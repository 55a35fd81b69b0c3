#include "bist/misr.h"

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace twm {

std::vector<unsigned> Misr::default_taps(unsigned width) {
  switch (width) {
    case 1: return {0};
    case 2: return {1, 0};
    case 3: return {1, 0};
    case 4: return {1, 0};
    case 8: return {4, 3, 2, 0};
    case 16: return {12, 3, 1, 0};
    case 32: return {22, 2, 1, 0};
    case 64: return {4, 3, 1, 0};
    case 128: return {7, 2, 1, 0};
    default: return {1, 0};
  }
}

Misr::Misr(unsigned width) : Misr(width, default_taps(width)) {}

Misr::Misr(unsigned width, const std::vector<unsigned>& taps)
    : state_(BitVec::zeros(width)), poly_(BitVec::zeros(width)) {
  if (width == 0) throw std::invalid_argument("Misr: zero width");
  for (unsigned t : taps) {
    if (t >= width) throw std::invalid_argument("Misr: tap exponent >= width");
    poly_.set(t, true);
  }
}

void Misr::step() {
  const unsigned w = state_.width();
  const bool out = state_.get(w - 1);
  BitVec next = BitVec::zeros(w);
  for (unsigned i = w; i-- > 1;) next.set(i, state_.get(i - 1));
  if (out) next ^= poly_;
  state_ = next;
}

void Misr::feed(const BitVec& input) {
  const unsigned w = state_.width();
  step();
  // Fold the input into width-sized chunks.
  BitVec folded = BitVec::zeros(w);
  for (unsigned i = 0; i < input.width(); ++i)
    if (input.get(i)) folded.flip(i % w);
  state_ ^= folded;
}

MisrJumps MisrJumps::build(unsigned width, const std::vector<unsigned>& taps) {
  if (width == 0) throw std::invalid_argument("MisrJumps: zero width");
  MisrJumps j;
  j.width = width;
  j.limbs = (width + 63) / 64;
  const std::size_t matrix = width * j.limbs;
  j.pow2.assign(64 * matrix, 0);
  const auto set = [&](std::uint64_t* m, unsigned r, unsigned c) {
    m[r * j.limbs + c / 64] |= std::uint64_t{1} << (c % 64);
  };
  // A itself (Misr::step: shift up, feedback from the MSB into the taps).
  std::uint64_t* a = j.pow2.data();
  for (unsigned r = 1; r < width; ++r) set(a, r, r - 1);
  for (unsigned t : taps) {
    if (t >= width) throw std::invalid_argument("MisrJumps: tap exponent >= width");
    set(a, t, width - 1);
  }
  // A^(2^(i+1)) = (A^(2^i))^2: row r of the square is the XOR of the rows
  // of A^(2^i) that row r selects.
  for (unsigned i = 0; i + 1 < 64; ++i) {
    const std::uint64_t* p = j.pow2.data() + i * matrix;
    std::uint64_t* sq = j.pow2.data() + (i + 1) * matrix;
    for (unsigned r = 0; r < width; ++r)
      for (std::size_t l = 0; l < j.limbs; ++l)
        for (std::uint64_t bits = p[r * j.limbs + l]; bits; bits &= bits - 1) {
          const std::size_t c = l * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          for (std::size_t k = 0; k < j.limbs; ++k) sq[r * j.limbs + k] ^= p[c * j.limbs + k];
        }
  }
  return j;
}

}  // namespace twm
