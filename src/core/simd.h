// Runtime SIMD width selection for the packed campaign backend.
//
// The packed stack is compiled three times — LaneBlock widths of 64, 256
// and 512 lanes, the wide two in their own translation units built with
// -mavx2 / -mavx512f (see src/analysis/campaign_w256.cpp, campaign_w512.cpp
// and CMakeLists.txt) so their block loops become vector instructions.
// Which of those translation units is safe to *execute* depends on the CPU
// the process landed on, so every campaign resolves its width at runtime:
//
//   best_width()                 widest width this CPU supports (cpuid)
//   resolve(Request::Auto)       best_width() — graceful downgrade
//   resolve(Request::W512) ...   exactly that width, or std::runtime_error
//                                when the CPU cannot execute it (the
//                                forced-width contract a CI matrix relies
//                                on: --simd 512 on a non-AVX-512 runner
//                                must error cleanly, never SIGILL)
//
// On non-x86 builds only the 64-lane width reports as supported; the wide
// code paths still compile (plain word loops) but are never dispatched.
//
// The TILED width (4096 lanes; "--simd tiled[:4096]") selects the
// array-of-blocks backend (memsim/lane_tile.h) instead of a single
// lane block.  A tiled width is supported on every CPU: the tile's INNER
// block width is itself a cpuid decision the campaign dispatcher makes
// (analysis/campaign.cpp picks the AVX-512, AVX2 or portable tile
// instantiation), so forcing "tiled" can never SIGILL.  Auto never
// resolves to a tiled width — tiles trade per-batch latency for
// throughput and only pay off on fault lists large enough to fill them,
// which is a caller's judgement, not a cpuid fact.
#ifndef TWM_CORE_SIMD_H
#define TWM_CORE_SIMD_H

#include <optional>
#include <string>
#include <string_view>

namespace twm::simd {

// Lane count doubles as the enum value: static_cast<unsigned>(w) == lanes.
enum class Width : unsigned {
  W64 = 64,
  W256 = 256,
  W512 = 512,
  Tiled4096 = 4096,
};

// The single-lane-block widths (cpuid-gated; what Auto chooses between).
inline constexpr Width kAllWidths[] = {Width::W64, Width::W256, Width::W512};
// The tiled widths (always dispatchable; never chosen by Auto).
inline constexpr Width kTiledWidths[] = {Width::Tiled4096};

inline constexpr unsigned lanes(Width w) { return static_cast<unsigned>(w); }

// True when `w` names a tiled (array-of-blocks) backend width.
inline constexpr bool is_tiled(Width w) { return w == Width::Tiled4096; }

// True when the running CPU can execute the lane-block code compiled for
// `w` (W64: always; W256: AVX2; W512: AVX-512F; tiled widths: always —
// their inner block is cpuid-selected at dispatch).
bool supported(Width w);

// Widest supported single-block width — the Auto choice (never tiled).
Width best_width();

// A campaign's width request, as it comes in from --simd.
enum class Request { Auto, W64, W256, W512, Tiled4096 };

// Parses "auto" | "64" | "256" | "512" | "tiled" | "tiled:4096" (both tiled
// spellings name Tiled4096); nullopt on anything else.
std::optional<Request> parse_request(std::string_view s);

// Auto -> best_width(); a forced width resolves to
// itself when supported and throws std::runtime_error otherwise.
Width resolve(Request r);

std::string to_string(Width w);
std::string to_string(Request r);

}  // namespace twm::simd

#endif  // TWM_CORE_SIMD_H
