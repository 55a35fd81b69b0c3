// Bit-array helpers shared by the scalar Memory and PackedMemory.
//
// Both memories keep per-word contents as a flat array of 64-bit limbs,
// cell (addr, bit) at bit position addr * width + bit: the scalar Memory as
// its whole state, PackedMemory as the background its slots materialize
// from.  seeded_limbs is the one generator of seeded contents.  A campaign
// generates each seed's table once (CampaignScheduler, campaign_exec.h),
// and every worker memory fills from that one copy: a PackedMemory
// borrows it as its background, a Memory copies it.
#ifndef TWM_MEMSIM_LIMB_BITS_H
#define TWM_MEMSIM_LIMB_BITS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace twm {

inline bool get_limb_bit(const std::uint64_t* limbs, std::size_t pos) {
  return (limbs[pos >> 6] >> (pos & 63)) & 1u;
}

inline void set_limb_bit(std::uint64_t* limbs, std::size_t pos, bool v) {
  const std::uint64_t m = std::uint64_t{1} << (pos & 63);
  if (v)
    limbs[pos >> 6] |= m;
  else
    limbs[pos >> 6] &= ~m;
}

// Bit position of cell (word, bit) in a `width`-bit-word array.  The
// product is taken in std::size_t: a 32-bit word index (CellAddr) times
// the width would wrap once the array passes 2^32 cells.
constexpr std::size_t cell_bit_pos(std::uint32_t word, unsigned width, unsigned bit) {
  return std::size_t{word} * width + bit;
}

// Limbs of a `words` x `width` bit array.
inline std::size_t limb_count(std::size_t words, unsigned width) {
  return (words * width + 63) / 64;
}

// The contents fill_random(rng) loads into a `words` x `width` memory, as
// limbs: one rng.next_bool() per cell, word by word, bit 0 first —
// the same draws as rng.next_word(width) per word.
inline void random_limbs(std::size_t words, unsigned width, Rng& rng,
                         std::vector<std::uint64_t>& out) {
  out.assign(limb_count(words, width), 0);
  for (std::size_t a = 0; a < words; ++a)
    for (unsigned j = 0; j < width; ++j) set_limb_bit(out.data(), a * width + j, rng.next_bool());
}

// What seed `seed` holds: random_limbs over Rng(seed), or no limbs for seed
// 0, whose contents are all zero.
inline std::vector<std::uint64_t> seeded_limbs(std::size_t words, unsigned width,
                                               std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  Rng rng(seed);
  if (seed != 0) random_limbs(words, width, rng, out);
  return out;
}

}  // namespace twm

#endif  // TWM_MEMSIM_LIMB_BITS_H
