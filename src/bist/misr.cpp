#include "bist/misr.h"

#include <algorithm>
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

void MisrJumps::times_x(std::uint64_t* a) const {
  // Shift every coefficient up by one; the coefficient that reaches x^W
  // leaves the polynomial and folds back in as the feedback taps.
  const unsigned top = width - 1;
  const bool out = (a[top / 64] >> (top % 64)) & 1u;
  for (std::size_t l = limbs; l-- > 1;) a[l] = (a[l] << 1) | (a[l - 1] >> 63);
  a[0] <<= 1;
  if (width % 64) a[limbs - 1] &= (std::uint64_t{1} << (width % 64)) - 1;
  if (out)
    for (std::size_t l = 0; l < limbs; ++l) a[l] ^= feedback[l];
}

void MisrJumps::multiples(const std::uint64_t* b, std::uint64_t* m) const {
  std::fill(m, m + limbs, std::uint64_t{0});
  std::copy(b, b + limbs, m + limbs);
  for (unsigned v = 2; v < 16; ++v) {
    std::uint64_t* mv = m + v * limbs;
    if ((v & (v - 1)) == 0) {  // x^i * b = x * (x^(i-1) * b)
      std::copy(m + v / 2 * limbs, m + v / 2 * limbs + limbs, mv);
      times_x(mv);
    } else {  // the sum of v's top term and the rest
      const unsigned top = 1u << (31 - std::countl_zero(v));
      for (std::size_t l = 0; l < limbs; ++l)
        mv[l] = m[top * limbs + l] ^ m[(v - top) * limbs + l];
    }
  }
}

void MisrJumps::multiply(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                         std::uint64_t* scratch) const {
  multiples(b, scratch);
  // Horner over a's 4-bit windows, highest first: out = out * x^4 + a_i * b.
  // A window never spans two limbs (64 is a multiple of 4).
  std::fill(out, out + limbs, std::uint64_t{0});
  for (unsigned i = (width + 3) / 4; i-- > 0;) {
    times_x4(out);
    const unsigned v = (a[i / 16] >> (i % 16 * 4)) & 15u;
    for (std::size_t l = 0; l < limbs; ++l) out[l] ^= scratch[v * limbs + l];
  }
}

void MisrJumps::times_x4(std::uint64_t* a) const {
  // The coefficients that reach x^W..x^(W+3) are those of
  // x^(W-4)..x^(W-1) now; they fold back in through high[].
  unsigned h = 0;
  for (unsigned t = 0; t < 4; ++t)
    if (width + t >= 4) {
      const unsigned pos = width + t - 4;
      h |= static_cast<unsigned>((a[pos / 64] >> (pos % 64)) & 1u) << t;
    }
  for (std::size_t l = limbs; l-- > 1;) a[l] = (a[l] << 4) | (a[l - 1] >> 60);
  a[0] <<= 4;
  if (width % 64) a[limbs - 1] &= (std::uint64_t{1} << (width % 64)) - 1;
  for (std::size_t l = 0; l < limbs; ++l) a[l] ^= high[h * limbs + l];
}

void MisrJumps::power(std::uint64_t k, std::uint64_t* out, std::uint64_t* scratch) const {
  // x^k = product over the hex digits v_b of k of x^(v_b * 16^b).
  bool first = true;
  for (unsigned b = 0; k; ++b, k >>= 4) {
    const unsigned v = k & 15u;
    if (!v) continue;
    const std::uint64_t* factor = &digits[(b * 16 + v) * limbs];
    if (first) {
      std::copy(factor, factor + limbs, out);
      first = false;
    } else {
      multiply(out, factor, scratch, scratch + limbs);
      std::copy(scratch, scratch + limbs, out);
    }
  }
  if (first) {  // x^0 = 1
    std::fill(out, out + limbs, std::uint64_t{0});
    out[0] = 1;
  }
}

MisrJumps MisrJumps::build(unsigned width, const std::vector<unsigned>& taps) {
  if (width == 0) throw std::invalid_argument("MisrJumps: zero width");
  MisrJumps j;
  j.width = width;
  j.limbs = (width + 63) / 64;
  j.feedback.assign(j.limbs, 0);
  for (unsigned t : taps) {
    if (t >= width) throw std::invalid_argument("MisrJumps: tap exponent >= width");
    j.feedback[t / 64] |= std::uint64_t{1} << (t % 64);
  }
  // Each tap once, as Misr sets them: a repeated tap is one term of p.
  for (unsigned t = 0; t < width; ++t)
    if ((j.feedback[t / 64] >> (t % 64)) & 1u) j.taps.push_back(t);
  // high[h] = h(x) * x^W mod p, the fold of the four coefficients a
  // window shift pushes past x^(W-1): the multiples of x^W mod p.
  const std::size_t n = j.limbs;
  j.high.assign(16 * n, 0);
  j.multiples(j.feedback.data(), j.high.data());
  // digits[b][v] = digits[b][v - 1] * digits[b][1], starting from
  // digits[b][0] = 1; digits[0][1] = x and digits[b + 1][1] = digits[b][1]^16.
  std::vector<std::uint64_t> scratch(j.scratch_limbs());
  j.digits.assign(16 * 16 * n, 0);
  for (unsigned b = 0; b < 16; ++b) {
    std::uint64_t* row = &j.digits[b * 16 * n];
    row[0] = 1;
    if (b == 0) {
      row[n] = 1;
      j.times_x(row + n);
    } else {
      const std::uint64_t* prev = &j.digits[(b - 1) * 16 * n];
      // x^(15 * 16^(b-1) + 16^(b-1))
      j.multiply(prev + 15 * n, prev + n, row + n, scratch.data());
    }
    for (unsigned v = 2; v < 16; ++v)
      j.multiply(row + (v - 1) * n, row + n, row + v * n, scratch.data());
  }
  return j;
}

}  // namespace twm
