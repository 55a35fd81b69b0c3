// Lane blocks: the machine word the packed backend is templated over.
//
// The packed backend evaluates 64 fault universes per pass — one
// std::uint64_t lane vector per cell.  The simulator, march engine and
// scheme sessions are written against the lane-indexed vocabulary below
// rather than raw shifts, so they read the same whatever the block is.
//
// The Block concept, satisfied by std::uint64_t:
//
//   * value-initialization yields the all-zero block,
//   * operators & | ^ ~ &= |= ^= == != operate lane-wise,
//   * the free functions below (block_lanes_v, block_ones, block_bit, ...)
//     provide the lane-indexed vocabulary.
//
// Lane 0 is the golden (fault-free) universe.
#ifndef TWM_MEMSIM_LANE_BLOCK_H
#define TWM_MEMSIM_LANE_BLOCK_H

#include <cstdint>

namespace twm {

template <class Block>
inline constexpr unsigned block_lanes_v = 64;

inline std::uint64_t block_ones(std::uint64_t*) { return ~0ull; }
// All-lanes-set block, e.g. the "every universe failed" verdict.
template <class Block>
Block block_ones() {
  return block_ones(static_cast<Block*>(nullptr));
}

inline bool block_any(std::uint64_t b) { return b != 0; }

inline bool block_bit(std::uint64_t b, unsigned lane) { return (b >> lane) & 1u; }

inline void block_set_bit(std::uint64_t& b, unsigned lane) { b |= 1ull << lane; }

// Single-lane mask (the injection mask of fault slot -> lane slot+1).
template <class Block>
Block block_lane(unsigned lane) {
  Block b{};
  block_set_bit(b, lane);
  return b;
}

// Mask of lanes 1..count — the occupied fault lanes of a (possibly partial)
// batch.  Lane 0 (golden) and the lanes past `count` stay clear, so a
// partial final batch can neither report phantom universes nor hide a
// golden-lane detection.
template <class Block>
Block block_used_mask(unsigned count) {
  Block b{};
  for (unsigned lane = 1; lane <= count && lane < block_lanes_v<Block>; ++lane)
    block_set_bit(b, lane);
  return b;
}

}  // namespace twm

#endif  // TWM_MEMSIM_LANE_BLOCK_H
