#include "api/spec.h"

#include <algorithm>

#include "api/json.h"
#include "march/generator.h"
#include "march/library.h"
#include "march/parser.h"
#include "march/printer.h"

namespace twm::api {

namespace {

std::string join_errors(const std::vector<SpecError>& errors) {
  std::string out;
  for (const SpecError& e : errors) {
    if (!out.empty()) out += '\n';
    out += to_string(e);
  }
  return out;
}

// One inline march element ("up(r0,w1)") parsed through the march DSL.  A
// multi-element string ("up(r0); down(r1)") is rejected so march_ops
// entries stay one element each — the grain the round-trip and the cache
// identity are defined over.
std::optional<MarchElement> parse_inline_element(const std::string& text,
                                                 std::string* error) {
  try {
    MarchTest t = parse_march("{ " + text + " }");
    if (t.elements.size() != 1) {
      if (error) *error = "must be a single march element";
      return std::nullopt;
    }
    return std::move(t.elements.front());
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace

std::string to_string(const SpecError& e) { return e.path + ": " + e.message; }

SpecValidationError::SpecValidationError(std::vector<SpecError> errors)
    : std::runtime_error(join_errors(errors)), errors_(std::move(errors)) {}

std::vector<SpecError> validate(const CampaignSpec& spec) {
  std::vector<SpecError> errors;
  if (spec.words == 0) errors.push_back({"memory.words", "must be at least 1"});
  if (auto e = words_limit_error(spec.words)) errors.push_back(*e);
  if (spec.width == 0) errors.push_back({"memory.width", "must be at least 1"});
  if (spec.march.empty() && spec.march_ops.empty()) {
    errors.push_back({"march", "is required (library name, or inline march_ops)"});
  } else if (!spec.march.empty() && !spec.march_ops.empty()) {
    errors.push_back({"march_ops", "cannot be combined with march (pick one)"});
  } else if (!spec.march.empty()) {
    const auto names = march_names();
    if (std::find(names.begin(), names.end(), spec.march) == names.end())
      errors.push_back({"march", "unknown march '" + spec.march + "' (see `twm_cli list`)"});
  } else {
    MarchTest t;
    bool parsed_all = true;
    for (std::size_t i = 0; i < spec.march_ops.size(); ++i) {
      std::string why;
      auto elem = parse_inline_element(spec.march_ops[i], &why);
      if (elem) {
        t.elements.push_back(std::move(*elem));
      } else {
        errors.push_back({"march_ops[" + std::to_string(i) + "]", why});
        parsed_all = false;
      }
    }
    if (parsed_all && !is_consistent_bit_march(t))
      errors.push_back({"march_ops",
                        "not a consistent bit-oriented march (must start with a "
                        "write; every read must expect the last written value)"});
  }
  if (spec.schemes.empty()) errors.push_back({"schemes", "at least one scheme is required"});
  if (spec.classes.empty())
    errors.push_back({"classes", "at least one fault class is required"});
  for (std::size_t i = 0; i < spec.classes.size(); ++i)
    if (auto e = class_size_error(spec.classes[i], spec.words, spec.width,
                                  "classes[" + std::to_string(i) + "]"))
      errors.push_back(*e);
  if (spec.seeds.empty()) errors.push_back({"seeds", "at least one content seed is required"});
  if (spec.threads == 0) errors.push_back({"run.threads", "must be at least 1"});
  if (spec.regions == 0) {
    errors.push_back({"run.regions", "must be at least 1"});
  } else if ((spec.regions & (spec.regions - 1)) != 0) {
    errors.push_back({"run.regions", "must be a power of two"});
  } else if (spec.words != 0 && spec.regions > spec.words) {
    errors.push_back({"run.regions", "must not exceed memory.words"});
  }
  return errors;
}

std::optional<SpecError> words_limit_error(std::size_t words) {
  if (words <= kMaxWords) return std::nullopt;
  return SpecError{"memory.words", "must not exceed 4294967296 (a word index is 32 bits)"};
}

std::optional<SpecError> class_size_error(const ClassSel& c, std::size_t words, unsigned width,
                                          const std::string& path) {
  if (words == 0 || width == 0 || words > kMaxWords) return std::nullopt;
  const std::uint64_t size = fault_list_size(c, words, width);
  if (size <= kMaxClassFaults) return std::nullopt;
  ClassSel sampled = c;
  sampled.sample = 100000;
  return SpecError{path, "'" + to_string(c) + "' denotes " + std::to_string(size) +
                             " faults, more than 4294967295 (a fault index is 32 bits); "
                             "sample it, e.g. '" + to_string(sampled) + "'"};
}

void require_valid(const CampaignSpec& spec) {
  auto errors = validate(spec);
  if (!errors.empty()) throw SpecValidationError(std::move(errors));
}

// ---- canonical enum spellings ------------------------------------------

std::optional<CoverageBackend> parse_backend(std::string_view s) {
  if (s == "scalar") return CoverageBackend::Scalar;
  if (s == "packed") return CoverageBackend::Packed;
  return std::nullopt;
}

std::string scheme_id(SchemeKind k) {
  switch (k) {
    case SchemeKind::NontransparentReference: return "ref";
    case SchemeKind::WordOrientedMarch: return "womarch";
    case SchemeKind::ProposedExact: return "twm";
    case SchemeKind::ProposedMisr: return "twm-misr";
    case SchemeKind::ProposedSymmetricXor: return "sym";
    case SchemeKind::TsmarchOnly: return "tsmarch";
    case SchemeKind::Scheme1Exact: return "s1";
    case SchemeKind::TomtModel: return "tomt";
  }
  return "?";
}

std::optional<SchemeKind> parse_scheme(std::string_view s) {
  for (SchemeKind k : kAllSchemes)
    if (s == scheme_id(k)) return k;
  return std::nullopt;
}

std::string to_string(const ClassSel& c) {
  std::string base;
  switch (c.kind) {
    case ClassKind::Saf: base = "saf"; break;
    case ClassKind::Tf: base = "tf"; break;
    case ClassKind::Ret: base = "ret"; break;
    case ClassKind::CFst: base = "cfst"; break;
    case ClassKind::CFid: base = "cfid"; break;
    case ClassKind::CFin: base = "cfin"; break;
    case ClassKind::Af: base = "af"; break;
  }
  if (c.is_coupling() && c.scope != CfScope::Both)
    base += c.scope == CfScope::InterWord ? ":inter" : ":intra";
  if (c.sample != 0) base += "@" + std::to_string(c.sample);
  return base;
}

std::string class_label(const ClassSel& c) {
  std::string base;
  switch (c.kind) {
    case ClassKind::Saf: base = "SAF"; break;
    case ClassKind::Tf: base = "TF"; break;
    case ClassKind::Ret: base = "RET"; break;
    case ClassKind::CFst: base = "CFst"; break;
    case ClassKind::CFid: base = "CFid"; break;
    case ClassKind::CFin: base = "CFin"; break;
    case ClassKind::Af: base = "AF"; break;
  }
  if (c.is_coupling() && c.scope != CfScope::Both)
    base += c.scope == CfScope::InterWord ? " inter" : " intra";
  if (c.sample != 0) base += " @" + std::to_string(c.sample);
  return base;
}

std::optional<ClassSel> parse_class(std::string_view s) {
  ClassSel sel;
  // Trailing "@N" = deterministic sample size (pure decimal, >= 1).
  const auto at = s.find('@');
  if (at != std::string_view::npos) {
    const std::string_view digits = s.substr(at + 1);
    if (digits.empty()) return std::nullopt;
    std::uint64_t n = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') return std::nullopt;
      n = n * 10 + static_cast<std::uint64_t>(c - '0');
      if (n > UINT32_MAX) return std::nullopt;
    }
    if (n == 0) return std::nullopt;
    sel.sample = static_cast<std::uint32_t>(n);
    s = s.substr(0, at);
  }
  const auto colon = s.find(':');
  const std::string_view base = colon == std::string_view::npos ? s : s.substr(0, colon);
  if (base == "saf")
    sel.kind = ClassKind::Saf;
  else if (base == "tf")
    sel.kind = ClassKind::Tf;
  else if (base == "ret")
    sel.kind = ClassKind::Ret;
  else if (base == "cfst")
    sel.kind = ClassKind::CFst;
  else if (base == "cfid")
    sel.kind = ClassKind::CFid;
  else if (base == "cfin")
    sel.kind = ClassKind::CFin;
  else if (base == "af")
    sel.kind = ClassKind::Af;
  else
    return std::nullopt;
  if (colon != std::string_view::npos) {
    if (!sel.is_coupling()) return std::nullopt;  // scope only applies to CFs
    const std::string_view scope = s.substr(colon + 1);
    if (scope == "inter")
      sel.scope = CfScope::InterWord;
    else if (scope == "intra")
      sel.scope = CfScope::IntraWord;
    else
      return std::nullopt;
  }
  return sel;
}

namespace {

// Splits on commas, dropping empty pieces ("a,,b" == "a,b").
std::vector<std::string_view> split_csv(std::string_view s) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? s.size() : comma;
    if (end > start) parts.push_back(s.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return parts;
}

}  // namespace

std::optional<std::vector<SchemeKind>> parse_schemes(std::string_view csv) {
  if (csv == "all")
    return std::vector<SchemeKind>(std::begin(kAllSchemes), std::end(kAllSchemes));
  std::vector<SchemeKind> out;
  for (std::string_view part : split_csv(csv)) {
    const auto k = parse_scheme(part);
    if (!k) return std::nullopt;
    out.push_back(*k);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::vector<ClassSel>> parse_classes(std::string_view csv) {
  std::vector<ClassSel> out;
  for (std::string_view part : split_csv(csv)) {
    const auto c = parse_class(part);
    if (!c) return std::nullopt;
    out.push_back(*c);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::vector<std::uint64_t>> parse_seeds(std::string_view csv,
                                                      std::string* bad_token) {
  std::vector<std::uint64_t> out;
  for (std::string_view part : split_csv(csv)) {
    // Pure decimal digits only: no sign, no whitespace, no trailing junk,
    // no overflow wrap-around (everything std::stoull would let through).
    std::uint64_t value = 0;
    bool ok = true;
    for (char c : part) {
      if (c < '0' || c > '9') {
        ok = false;
        break;
      }
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        ok = false;
        break;
      }
      value = value * 10 + digit;
    }
    if (!ok) {
      if (bad_token) *bad_token = std::string(part);
      return std::nullopt;
    }
    out.push_back(value);
  }
  return out;
}

namespace {

std::vector<Fault> exhaustive_fault_list(const ClassSel& c, std::size_t words,
                                         unsigned width) {
  switch (c.kind) {
    case ClassKind::Saf: return all_safs(words, width);
    case ClassKind::Tf: return all_tfs(words, width);
    case ClassKind::Ret: return all_rets(words, width, 1);
    case ClassKind::CFst: return all_cfs(words, width, FaultClass::CFst, c.scope);
    case ClassKind::CFid: return all_cfs(words, width, FaultClass::CFid, c.scope);
    case ClassKind::CFin: return all_cfs(words, width, FaultClass::CFin, c.scope);
    case ClassKind::Af: return all_afs(words);
  }
  throw std::logic_error("build_fault_list: unknown class kind");
}

// a * b, or UINT64_MAX when the product does not fit.
std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t p;
  return __builtin_mul_overflow(a, b, &p) ? UINT64_MAX : p;
}

// How many faults exhaustive_fault_list(c, words, width) enumerates,
// saturated at UINT64_MAX (an exhaustive coupling class on 2^32 words has
// about 2^70).
std::uint64_t enumeration_size(const ClassSel& c, std::size_t words, unsigned width) {
  const std::uint64_t cells = saturating_mul(words, width);
  if (c.kind == ClassKind::Af) return saturating_mul(words, words);
  if (!c.is_coupling()) return saturating_mul(2, cells);
  const std::uint64_t partners = c.scope == CfScope::IntraWord   ? width - 1
                                 : c.scope == CfScope::InterWord ? cells - width
                                                                 : cells - 1;
  const std::uint64_t pairs = saturating_mul(cells, partners);
  return saturating_mul(pairs, c.kind == ClassKind::CFin ? 2 : 4);
}

// Fault at position `i` of the exhaustive enumeration of a non-coupling
// class — the decode of all_safs/all_tfs/all_rets/all_afs' loop order,
// without materializing the list.
Fault decode_enumerated_fault(const ClassSel& c, std::size_t words, unsigned width,
                              std::uint64_t i) {
  if (c.kind == ClassKind::Af) {
    if (i < words) return Fault::af_no_access(static_cast<std::uint32_t>(i));
    const std::uint64_t k = i - words;
    const auto w = static_cast<std::uint32_t>(k / (words - 1));
    auto also = static_cast<std::uint32_t>(k % (words - 1));
    if (also >= w) ++also;
    return Fault::af_alias(w, also);
  }
  const CellAddr cell{static_cast<std::uint32_t>(i / (2ull * width)),
                      static_cast<std::uint32_t>((i / 2) % width)};
  const bool second = (i & 1) != 0;
  switch (c.kind) {
    case ClassKind::Saf: return Fault::saf(cell, second);
    case ClassKind::Tf: return Fault::tf(cell, second ? Transition::Down : Transition::Up);
    case ClassKind::Ret: return Fault::ret(cell, second, 1);
    default: throw std::logic_error("decode_enumerated_fault: class not enumerable");
  }
}

}  // namespace

std::vector<Fault> build_fault_list(const ClassSel& c, std::size_t words, unsigned width) {
  if (c.sample == 0) return exhaustive_fault_list(c, words, width);

  if (c.is_coupling()) {
    // Fixed-seed draw: the sampled list is a pure function of the selector
    // and the geometry, as the cell identity requires.
    Rng rng(0x7477u * 2654435761ull + c.sample);
    const FaultClass cls = c.kind == ClassKind::CFst   ? FaultClass::CFst
                           : c.kind == ClassKind::CFid ? FaultClass::CFid
                                                       : FaultClass::CFin;
    return sampled_cfs(words, width, cls, c.scope, c.sample, rng);
  }

  const std::uint64_t total = enumeration_size(c, words, width);
  if (c.sample >= total) return exhaustive_fault_list(c, words, width);
  std::vector<Fault> out;
  out.reserve(c.sample);
  // Even stride over the enumeration: sample distinct faults spread across
  // the whole address space (so every region receives work).  Position
  // k * total / sample, split as k * q + k * r / sample (total = q * sample
  // + r) so no product overflows: k and r are below sample < 2^32.
  const std::uint64_t q = total / c.sample, r = total % c.sample;
  for (std::uint64_t k = 0; k < c.sample; ++k)
    out.push_back(decode_enumerated_fault(c, words, width, k * q + k * r / c.sample));
  return out;
}

std::uint64_t fault_list_size(const ClassSel& c, std::size_t words, unsigned width) {
  const std::uint64_t total = enumeration_size(c, words, width);
  if (c.sample == 0) return total;
  // A coupling sample draws exactly `sample` faults, repeats allowed.
  return c.is_coupling() ? c.sample : std::min<std::uint64_t>(c.sample, total);
}

MarchTest resolve_march(const CampaignSpec& spec) {
  if (spec.march_ops.empty()) {
    try {
      return march_by_name(spec.march);
    } catch (const std::out_of_range&) {
      throw SpecValidationError(
          {{"march", "unknown march '" + spec.march + "' (see `twm_cli list`)"}});
    }
  }
  MarchTest t;
  t.name = "inline";
  std::vector<SpecError> errors;
  for (std::size_t i = 0; i < spec.march_ops.size(); ++i) {
    std::string why;
    auto elem = parse_inline_element(spec.march_ops[i], &why);
    if (elem)
      t.elements.push_back(std::move(*elem));
    else
      errors.push_back({"march_ops[" + std::to_string(i) + "]", why});
  }
  if (!errors.empty()) throw SpecValidationError(std::move(errors));
  return t;
}

// ---- content addressing ---------------------------------------------------

std::string march_display(const CampaignSpec& spec) {
  if (spec.march_ops.empty()) return spec.march;
  MarchTest t = resolve_march(spec);
  t.name.clear();
  return twm::to_string(t);
}

std::string_view engine_revision() {
  // r7: Scheme 1 takes every datum relative to the value its dropped init
  // element wrote (r6 mis-detected on marches whose init writes 1).  Bump
  // on any verdict-affecting change.
  return "twm-engine-r7";
}

std::string cell_identity_json(const CampaignSpec& spec, SchemeKind scheme,
                               const ClassSel& cls) {
  JsonValue v = JsonValue::object();
  v.set("engine", JsonValue::string(std::string(engine_revision())));
  v.set("march", JsonValue::string(march_display(spec)));
  v.set("words", JsonValue::number(spec.words));
  v.set("width", JsonValue::number(spec.width));
  v.set("scheme", JsonValue::string(scheme_id(scheme)));
  v.set("class", JsonValue::string(to_string(cls)));
  JsonValue seeds = JsonValue::array();
  for (std::uint64_t seed : spec.seeds) seeds.push_back(JsonValue::number(seed));
  v.set("seeds", std::move(seeds));
  return json_write(v, /*pretty=*/false);
}

std::string region_identity_json(std::string_view cell_identity, unsigned region,
                                 unsigned regions) {
  // Appended to the canonical compact object, so the result is canonical
  // too (JsonValue keeps member order).
  std::string out(cell_identity.substr(0, cell_identity.size() - 1));
  out += ",\"region\":" + std::to_string(region) + ",\"regions\":" + std::to_string(regions) +
         "}";
  return out;
}

namespace {

std::uint64_t fnv1a64(std::string_view s, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string content_key(std::string_view identity) {
  // Two chained FNV-1a passes -> 128 address bits.  Not cryptographic;
  // CellCache implementations verify the stored identity on lookup, so a
  // collision degrades to a cache miss, never to wrong results.
  const std::uint64_t h1 = fnv1a64(identity, 14695981039346656037ull);
  const std::uint64_t h2 = fnv1a64(identity, h1 ^ 0x9e3779b97f4a7c15ull);
  static const char* hex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = hex[(h1 >> (4 * i)) & 0xF];
    out[31 - i] = hex[(h2 >> (4 * i)) & 0xF];
  }
  return out;
}

std::string cell_key(const CampaignSpec& spec, SchemeKind scheme, const ClassSel& cls) {
  return content_key(cell_identity_json(spec, scheme, cls));
}

// ---- JSON ---------------------------------------------------------------

namespace {

JsonValue spec_to_value(const CampaignSpec& s) {
  JsonValue memory = JsonValue::object();
  memory.set("words", JsonValue::number(s.words));
  memory.set("width", JsonValue::number(s.width));

  JsonValue schemes = JsonValue::array();
  for (SchemeKind k : s.schemes) schemes.push_back(JsonValue::string(scheme_id(k)));
  JsonValue classes = JsonValue::array();
  for (const ClassSel& c : s.classes) classes.push_back(JsonValue::string(to_string(c)));
  JsonValue seeds = JsonValue::array();
  for (std::uint64_t seed : s.seeds) seeds.push_back(JsonValue::number(seed));

  JsonValue run = JsonValue::object();
  run.set("backend", JsonValue::string(to_string(s.backend)));
  run.set("threads", JsonValue::number(s.threads));
  run.set("simd", JsonValue::string(simd::to_string(s.simd)));
  // regions = 1 is the implicit default; omitting it keeps every pre-region
  // serialization (and the golden-serialization test) byte-identical.
  if (s.regions != 1) run.set("regions", JsonValue::number(s.regions));
  // Same contract for deadline_ms: 0 (no deadline) stays invisible.
  if (s.deadline_ms != 0) run.set("deadline_ms", JsonValue::number(s.deadline_ms));

  JsonValue v = JsonValue::object();
  v.set("name", JsonValue::string(s.name));
  v.set("memory", std::move(memory));
  // Library specs always carry "march" (every pre-inline serialization is
  // byte-identical); inline specs carry "march_ops" instead.  A spec that
  // (invalidly) sets both round-trips both so validate() can name the clash.
  if (s.march_ops.empty() || !s.march.empty()) v.set("march", JsonValue::string(s.march));
  if (!s.march_ops.empty()) {
    JsonValue ops = JsonValue::array();
    for (const std::string& op : s.march_ops) ops.push_back(JsonValue::string(op));
    v.set("march_ops", std::move(ops));
  }
  v.set("schemes", std::move(schemes));
  v.set("classes", std::move(classes));
  v.set("seeds", std::move(seeds));
  v.set("run", std::move(run));
  return v;
}

}  // namespace

void read_shared_run_keys(const JsonValue& run, const std::string& prefix,
                          CoverageBackend& backend, unsigned& threads, simd::Request& simd,
                          std::vector<SpecError>& errors) {
  auto fail = [&](const char* key, const char* message) {
    errors.push_back({prefix + "run." + key, message});
  };
  if (const JsonValue* v = run.find("backend")) {
    const auto b = v->is_string() ? parse_backend(v->as_string()) : std::nullopt;
    if (b)
      backend = *b;
    else
      fail("backend", "must be \"scalar\" or \"packed\"");
  }
  if (const JsonValue* v = run.find("threads")) {
    const auto t = v->as_u64();
    if (t && *t <= UINT32_MAX)
      threads = static_cast<unsigned>(*t);
    else
      fail("threads", "must be an unsigned integer");
  }
  if (const JsonValue* v = run.find("simd")) {
    const auto r = v->is_string() ? simd::parse_request(v->as_string()) : std::nullopt;
    if (r)
      simd = *r;
    else
      fail("simd", "must be \"auto\", \"64\", \"256\", \"512\", \"tiled\" or \"tiled:4096\"");
  }
  // Keys still carried by older specs: read and dropped, never stored or
  // re-serialized.  "schedule" names the one scheduler; "collapse" toggled
  // a pre-dispatch pass that no longer exists.
  if (const JsonValue* v = run.find("schedule"))
    if (!v->is_string() || v->as_string() != "repack")
      fail("schedule", "must be \"repack\" (the only scheduler)");
  if (const JsonValue* v = run.find("collapse"))
    if (!v->is_bool()) fail("collapse", "must be a boolean");
}

namespace {

// Collects structural errors instead of stopping at the first: a queued
// spec that is wrong in three places should say so in one round.
class SpecReader {
 public:
  explicit SpecReader(std::string prefix) : prefix_(std::move(prefix)) {}

  CampaignSpec read(const JsonValue& v) {
    CampaignSpec s;
    if (!v.is_object()) {
      fail("", "spec must be a JSON object");
      throw SpecValidationError(std::move(errors_));
    }
    static const char* kKnown[] = {"name", "memory", "march", "march_ops",
                                   "schemes", "classes", "seeds", "run"};
    for (const auto& [key, member] : v.members()) {
      (void)member;
      if (std::find_if(std::begin(kKnown), std::end(kKnown),
                       [&key = key](const char* k) { return key == k; }) == std::end(kKnown))
        fail(key, "unknown field");
    }

    if (const JsonValue* name = v.find("name")) {
      if (name->is_string())
        s.name = name->as_string();
      else
        fail("name", "must be a string");
    }
    if (const JsonValue* memory = v.find("memory")) {
      if (memory->is_object()) {
        s.words = read_count(*memory, "memory", "words");
        const std::size_t width = read_count(*memory, "memory", "width");
        if (width > UINT32_MAX)
          fail("memory.width", "must fit an unsigned 32-bit integer");
        else
          s.width = static_cast<unsigned>(width);
      } else {
        fail("memory", "must be an object {\"words\": N, \"width\": B}");
      }
    } else {
      fail("memory", "is required");
    }
    if (const JsonValue* march = v.find("march")) {
      if (march->is_string())
        s.march = march->as_string();
      else
        fail("march", "must be a string");
    } else if (!v.find("march_ops")) {
      fail("march", "is required (or inline march_ops)");
    }
    if (v.find("march_ops")) {
      read_array(v, "march_ops", [&](const JsonValue& item, const std::string& path) {
        if (!item.is_string())
          return fail(path, "must be a march element string (e.g. \"up(r0,w1)\")");
        s.march_ops.push_back(item.as_string());
      });
    }

    read_array(v, "schemes", [&](const JsonValue& item, const std::string& path) {
      if (!item.is_string()) return fail(path, "must be a scheme id string");
      const auto k = parse_scheme(item.as_string());
      if (!k)
        return fail(path, "unknown scheme '" + item.as_string() +
                              "' (want ref|womarch|twm|twm-misr|sym|tsmarch|s1|tomt)");
      s.schemes.push_back(*k);
    });
    read_array(v, "classes", [&](const JsonValue& item, const std::string& path) {
      if (!item.is_string()) return fail(path, "must be a fault-class string");
      const auto c = parse_class(item.as_string());
      if (!c)
        return fail(path, "unknown fault class '" + item.as_string() +
                              "' (want saf|tf|ret|cfst|cfid|cfin|af, CFs optionally "
                              ":inter|:intra)");
      s.classes.push_back(*c);
    });
    read_array(v, "seeds", [&](const JsonValue& item, const std::string& path) {
      const auto seed = item.as_u64();
      if (!seed) return fail(path, "must be an unsigned 64-bit integer");
      s.seeds.push_back(*seed);
    });

    if (const JsonValue* run = v.find("run")) {
      if (run->is_object()) {
        for (const auto& [key, member] : run->members()) {
          (void)member;
          if (key != "backend" && key != "threads" && key != "simd" && key != "schedule" &&
              key != "collapse" && key != "regions" && key != "deadline_ms")
            fail("run." + key, "unknown field");
        }
        read_shared_run_keys(*run, prefix_, s.backend, s.threads, s.simd, errors_);
        if (const JsonValue* regions = run->find("regions")) {
          const auto r = regions->as_u64();
          if (r && *r <= UINT32_MAX)
            s.regions = static_cast<unsigned>(*r);
          else
            fail("run.regions", "must be an unsigned integer");
        }
        if (const JsonValue* deadline = run->find("deadline_ms")) {
          const auto d = deadline->as_u64();
          if (d)
            s.deadline_ms = *d;
          else
            fail("run.deadline_ms", "must be an unsigned 64-bit integer");
        }
      } else {
        fail("run", "must be an object");
      }
    }

    if (!errors_.empty()) throw SpecValidationError(std::move(errors_));
    return s;
  }

 private:
  void fail(const std::string& path, const std::string& message) {
    errors_.push_back({prefix_ + path, message});
  }

  std::size_t read_count(const JsonValue& obj, const std::string& parent, const char* key) {
    const JsonValue* member = obj.find(key);
    const std::string path = parent + "." + key;
    if (!member) {
      fail(path, "is required");
      return 0;
    }
    const auto n = member->as_u64();
    if (!n) {
      fail(path, "must be an unsigned integer");
      return 0;
    }
    return *n;
  }

  template <typename Fn>
  void read_array(const JsonValue& v, const char* key, Fn&& per_item) {
    const JsonValue* member = v.find(key);
    if (!member) return fail(key, "is required");
    if (!member->is_array()) return fail(key, "must be an array");
    std::size_t i = 0;
    for (const JsonValue& item : member->items())
      per_item(item, std::string(key) + "[" + std::to_string(i++) + "]");
  }

  std::string prefix_;
  std::vector<SpecError> errors_;
};

}  // namespace

std::string to_json(const CampaignSpec& spec, bool pretty) {
  return json_write(spec_to_value(spec), pretty);
}

std::string to_json(const std::vector<CampaignSpec>& batch, bool pretty) {
  // The batch form keeps one spec per line even in pretty mode — diffable
  // and exactly the shape a queue would append to.
  std::string out = "[";
  bool first = true;
  for (const CampaignSpec& s : batch) {
    if (!first) out += ",";
    first = false;
    if (pretty) out += "\n";
    out += json_write(spec_to_value(s), /*pretty=*/false);
  }
  if (pretty && !batch.empty()) out += "\n";
  out += "]";
  return out;
}

CampaignSpec spec_from_json(const std::string& text) {
  return SpecReader("").read(json_parse(text));
}

CampaignSpec spec_from_json_value(const JsonValue& v) { return SpecReader("").read(v); }

std::vector<CampaignSpec> specs_from_json(const std::string& text) {
  const JsonValue doc = json_parse(text);
  std::vector<CampaignSpec> out;
  if (doc.is_array()) {
    // Collect every spec's structural errors before failing: a queued
    // batch that is wrong in three specs should say so in one round.
    std::vector<SpecError> errors;
    std::size_t i = 0;
    for (const JsonValue& item : doc.items()) {
      try {
        out.push_back(SpecReader("spec[" + std::to_string(i) + "].").read(item));
      } catch (const SpecValidationError& e) {
        errors.insert(errors.end(), e.errors().begin(), e.errors().end());
      }
      ++i;
    }
    if (!errors.empty()) throw SpecValidationError(std::move(errors));
  } else {
    out.push_back(SpecReader("").read(doc));
  }
  return out;
}

}  // namespace twm::api
