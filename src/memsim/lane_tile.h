// Lane tiles: an array-of-lane-blocks execution unit for the many-thousand-
// lane regime (4096 fault universes per machine pass).
//
// The lane-block stack went 64 -> 512 lanes purely by widening the Block
// type the packed engine is templated over (memsim/lane_block.h).  This
// header takes the same step again: LaneTile<Inner, T> is a tile of T inner
// blocks — block_lanes_v<Inner> * T lanes total — that itself satisfies the
// Block concept, so PackedMemoryT<LaneTile<...>>, PackedMarchRunnerT,
// PackedMisrT, SessionBrakeT, the engine traits and every traits-templated
// scheme session run on it UNCHANGED.  One simulated march operation then
// advances 4096 fault universes.
//
// Why a tile instead of an ever-wider LaneBlock<K>?  The inner block stays
// the width the CPU's vector unit natively executes (std::uint64_t
// portable, LaneBlock<4> under -mavx2, LaneBlock<8> under -mavx512f), and
// the tile dimension T turns each per-cell operation into a short,
// trip-count-constant loop of full-width vector ops — a software-pipelined
// stream the hardware prefetchers and the explicit prefetch hook
// (PackedMemoryT::prefetch, issued one address ahead by the march sweep)
// keep fed from L2 instead of stalling per block.  Runtime selection of
// the inner width lives with the other arch dispatching in core/simd.h /
// analysis/campaign.cpp; the one shipped tile size is 4096 lanes
// (src/analysis/campaign_tiled*.cpp).
//
// Lane numbering is global and row-major over the tile: lane L lives in
// inner block L / block_lanes_v<Inner>, inner lane L % block_lanes_v<Inner>.
// Lane 0 is the golden (fault-free) universe, as in every packed backend.
#ifndef TWM_MEMSIM_LANE_TILE_H
#define TWM_MEMSIM_LANE_TILE_H

#include <array>
#include <cstdint>

#include "memsim/lane_block.h"

namespace twm {

template <class Inner, unsigned T>
struct LaneTile {
  static_assert(T >= 1, "LaneTile needs at least one inner block");
  static constexpr unsigned kInnerLanes = block_lanes_v<Inner>;

  std::array<Inner, T> b{};

  friend LaneTile operator&(const LaneTile& a, const LaneTile& o) {
    LaneTile r;
    for (unsigned i = 0; i < T; ++i) r.b[i] = a.b[i] & o.b[i];
    return r;
  }
  friend LaneTile operator|(const LaneTile& a, const LaneTile& o) {
    LaneTile r;
    for (unsigned i = 0; i < T; ++i) r.b[i] = a.b[i] | o.b[i];
    return r;
  }
  friend LaneTile operator^(const LaneTile& a, const LaneTile& o) {
    LaneTile r;
    for (unsigned i = 0; i < T; ++i) r.b[i] = a.b[i] ^ o.b[i];
    return r;
  }
  friend LaneTile operator~(const LaneTile& a) {
    LaneTile r;
    for (unsigned i = 0; i < T; ++i) r.b[i] = ~a.b[i];
    return r;
  }
  LaneTile& operator&=(const LaneTile& o) {
    for (unsigned i = 0; i < T; ++i) b[i] &= o.b[i];
    return *this;
  }
  LaneTile& operator|=(const LaneTile& o) {
    for (unsigned i = 0; i < T; ++i) b[i] |= o.b[i];
    return *this;
  }
  LaneTile& operator^=(const LaneTile& o) {
    for (unsigned i = 0; i < T; ++i) b[i] ^= o.b[i];
    return *this;
  }
  friend bool operator==(const LaneTile& a, const LaneTile& o) { return a.b == o.b; }
  friend bool operator!=(const LaneTile& a, const LaneTile& o) { return a.b != o.b; }
};

// --- Block-concept vocabulary (see lane_block.h) -------------------------

template <class Inner, unsigned T>
inline constexpr unsigned block_lanes_v<LaneTile<Inner, T>> = block_lanes_v<Inner> * T;

template <class Inner, unsigned T>
LaneTile<Inner, T> block_ones(LaneTile<Inner, T>*) {
  LaneTile<Inner, T> r;
  for (unsigned i = 0; i < T; ++i) r.b[i] = block_ones<Inner>();
  return r;
}

template <class Inner, unsigned T>
bool block_any(const LaneTile<Inner, T>& t) {
  for (unsigned i = 0; i < T; ++i)
    if (block_any(t.b[i])) return true;
  return false;
}

template <class Inner, unsigned T>
bool block_bit(const LaneTile<Inner, T>& t, unsigned lane) {
  constexpr unsigned kIn = block_lanes_v<Inner>;
  return block_bit(t.b[lane / kIn], lane % kIn);
}

template <class Inner, unsigned T>
void block_set_bit(LaneTile<Inner, T>& t, unsigned lane) {
  constexpr unsigned kIn = block_lanes_v<Inner>;
  block_set_bit(t.b[lane / kIn], lane % kIn);
}

// First 64-lane word of a Block of any nesting depth — the word that holds
// the golden lane (bit 0), which the campaign's golden-lane self-check
// inspects (analysis/campaign_exec.h).
inline std::uint64_t block_word0(std::uint64_t b) { return b; }
template <unsigned K>
std::uint64_t block_word0(const LaneBlock<K>& b) {
  return b.w[0];
}
template <class Inner, unsigned T>
std::uint64_t block_word0(const LaneTile<Inner, T>& t) {
  return block_word0(t.b[0]);
}

}  // namespace twm

#endif  // TWM_MEMSIM_LANE_TILE_H
