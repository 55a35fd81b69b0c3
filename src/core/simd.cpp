#include "core/simd.h"

#include <stdexcept>

namespace twm::simd {

namespace {

bool cpu_has(Width w) {
  if (is_tiled(w)) return true;  // inner block is cpuid-selected at dispatch
#if defined(__x86_64__) || defined(__i386__)
  switch (w) {
    case Width::W64: return true;
    case Width::W256: return __builtin_cpu_supports("avx2");
    case Width::W512: return __builtin_cpu_supports("avx512f");
    default: break;
  }
  return false;
#else
  // Wide blocks compile to plain word loops everywhere, but without a
  // vector unit behind them they only amortize per-op overhead; keep the
  // conservative contract that only W64 is dispatchable off x86.
  return w == Width::W64;
#endif
}

}  // namespace

bool supported(Width w) { return cpu_has(w); }

Width best_width() {
  Width best = Width::W64;
  for (Width w : kAllWidths)
    if (supported(w)) best = w;
  return best;
}

std::optional<Request> parse_request(std::string_view s) {
  if (s == "auto") return Request::Auto;
  if (s == "64") return Request::W64;
  if (s == "256") return Request::W256;
  if (s == "512") return Request::W512;
  if (s == "tiled" || s == "tiled:4096") return Request::Tiled4096;
  return std::nullopt;
}

Width resolve(Request r) {
  if (r == Request::Auto) return best_width();
  Width w = Width::W64;
  switch (r) {
    case Request::W64: w = Width::W64; break;
    case Request::W256: w = Width::W256; break;
    case Request::W512: w = Width::W512; break;
    case Request::Tiled4096: w = Width::Tiled4096; break;
    case Request::Auto: break;  // handled above
  }
  if (!supported(w))
    throw std::runtime_error("simd: width " + to_string(w) +
                             " is not supported by this CPU (best: " + to_string(best_width()) +
                             "; use --simd auto)");
  return w;
}

std::string to_string(Width w) {
  if (is_tiled(w)) return "tiled:" + std::to_string(lanes(w));
  return std::to_string(lanes(w));
}

std::string to_string(Request r) {
  switch (r) {
    case Request::Auto: return "auto";
    case Request::W64: return to_string(Width::W64);
    case Request::W256: return to_string(Width::W256);
    case Request::W512: return to_string(Width::W512);
    case Request::Tiled4096: return to_string(Width::Tiled4096);
  }
  return "?";
}

}  // namespace twm::simd
