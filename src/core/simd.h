// Packed-backend lane width: a compatibility shim.
//
// The packed backend runs one lane width, 64 lanes (one std::uint64_t
// block per cell: the golden lane plus 63 fault universes per pass).  Spec
// files and command lines written for older releases still name a width —
// "auto", "64", "256", "512", "tiled" or "tiled:4096" — so every one of
// those requests is still parsed, kept as given (the campaign_begin record
// echoes it) and resolved to W64.  Verdicts never depended on the width.
#ifndef TWM_CORE_SIMD_H
#define TWM_CORE_SIMD_H

#include <optional>
#include <string>
#include <string_view>

namespace twm::simd {

// Lane count doubles as the enum value: static_cast<unsigned>(w) == lanes.
enum class Width : unsigned { W64 = 64 };

inline constexpr unsigned lanes(Width w) { return static_cast<unsigned>(w); }

// A width request, as it comes in from --simd / run.simd.
enum class Request { Auto, W64, W256, W512, Tiled4096 };

// Parses "auto" | "64" | "256" | "512" | "tiled" | "tiled:4096" (both tiled
// spellings name Tiled4096); nullopt on anything else.
inline std::optional<Request> parse_request(std::string_view s) {
  if (s == "auto") return Request::Auto;
  if (s == "64") return Request::W64;
  if (s == "256") return Request::W256;
  if (s == "512") return Request::W512;
  if (s == "tiled" || s == "tiled:4096") return Request::Tiled4096;
  return std::nullopt;
}

// Every request runs at 64 lanes.
inline Width resolve(Request) { return Width::W64; }

inline std::string to_string(Width w) { return std::to_string(lanes(w)); }

inline std::string to_string(Request r) {
  switch (r) {
    case Request::Auto: return "auto";
    case Request::W64: return "64";
    case Request::W256: return "256";
    case Request::W512: return "512";
    case Request::Tiled4096: return "tiled:4096";
  }
  return "?";
}

}  // namespace twm::simd

#endif  // TWM_CORE_SIMD_H
