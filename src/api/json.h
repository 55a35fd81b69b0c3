// Minimal JSON document model for the public campaign API.
//
// CampaignSpec files are plain JSON (RFC 8259 subset: objects, arrays,
// strings, integers, booleans, null).  The repo deliberately carries no
// third-party JSON dependency, so this header provides the little that the
// spec layer needs:
//
//   * parse()    text -> JsonValue tree, with line/column in parse errors;
//   * numbers keep their source text, so 64-bit seeds round-trip exactly
//     (a double would silently lose precision above 2^53);
//   * a Writer that emits deterministic, diffable output (fixed key order
//     is the caller's job — JsonValue objects preserve insertion order).
//
// This is a *document* model, not a general-purpose JSON library: no
// floating-point canonicalization, no \uXXXX emission beyond what escaping
// requires, no streaming parse.  Everything the spec grammar needs, nothing
// more.
#ifndef TWM_API_JSON_H
#define TWM_API_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace twm::api {

// Thrown by parse() with a "line L, column C: reason" message.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;  // null

  static JsonValue boolean(bool b);
  static JsonValue number(std::uint64_t v);
  static JsonValue number_raw(std::string text);  // verbatim numeric token
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const;
  const std::string& as_string() const;
  // Numeric token as an unsigned 64-bit integer; nullopt when the token is
  // negative, fractional, exponential, or out of range.
  std::optional<std::uint64_t> as_u64() const;
  const std::string& number_text() const;

  const std::vector<JsonValue>& items() const;  // array
  std::vector<JsonValue>& items();
  void push_back(JsonValue v);

  // Object members, in insertion order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  // First member named `key`, or nullptr.
  const JsonValue* find(const std::string& key) const;
  void set(std::string key, JsonValue v);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::string scalar_;  // Number: raw token; String: decoded text
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses exactly one JSON document (trailing whitespace allowed, trailing
// garbage is an error).  Containers may nest at most 256 levels deep —
// beyond that the parser throws instead of recursing off the stack, so a
// hostile "[[[[..." document from a socket cannot crash the process.
// Throws JsonParseError.
JsonValue json_parse(const std::string& text);

// Serializes with 2-space indentation when `pretty`, else compact one-line
// form.  Object members appear in insertion order.
std::string json_write(const JsonValue& v, bool pretty = false);

// "..." with JSON escaping — handy for hand-assembled writers.
std::string json_quote(const std::string& s);

}  // namespace twm::api

#endif  // TWM_API_JSON_H
