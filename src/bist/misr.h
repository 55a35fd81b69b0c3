// Multiple-input signature register (MISR).
//
// Galois-style MISR over GF(2): each step shifts the state left by one, adds
// the feedback polynomial when the bit shifted out is 1, and XORs in the
// input word.  Used by transparent BIST to compact the read-data stream of
// the prediction pass and of the test pass; the two signatures are equal in
// a fault-free memory and differ (up to the usual 2^-W aliasing probability)
// when a fault distorts the test-pass stream.
//
// The register is linear and starts at zero, so the signature difference
// of two equally long streams is the signature of their positional XOR.
// Read as a polynomial S(x) = sum s_i x^i, one zero-input step is
// S * x mod p, where p(x) = x^W + sum x^t over the feedback taps t, so a
// run of k zero inputs multiplies the state by the scalar polynomial
// x^k mod p.  MisrJumps holds p and tables of x^(v * 16^b) mod p, from
// which a compactor assembles x^k mod p in at most 15 polynomial products
// and skips such a run with one product of the state (PackedMisr::skip).
// A product walks one factor four coefficients at a time: per window, one
// shift by x^4 with a table fold of the four overflowing coefficients, and
// one XOR of a precomputed multiple of the other factor.
#ifndef TWM_BIST_MISR_H
#define TWM_BIST_MISR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitvec.h"

namespace twm {

class Misr {
 public:
  // Uses a built-in feedback polynomial (primitive for widths 2, 3, 4, 8,
  // 16, 32, 64; irreducible for 128; x^W + x + 1 fallback otherwise, which
  // still compacts correctly but with unscreened aliasing structure).
  explicit Misr(unsigned width);
  // Explicit feedback taps: exponents of the polynomial x^W + .. + 1,
  // excluding W and including the listed intermediate terms (the +1 term is
  // implied by tap 0 being present or not; pass tap 0 explicitly).
  Misr(unsigned width, const std::vector<unsigned>& taps);

  unsigned width() const { return state_.width(); }

  // Folds `input` into the signature.  Inputs wider than the MISR are
  // XOR-folded in width-sized chunks; narrower inputs are zero-extended.
  void feed(const BitVec& input);

  void reset() { state_ = BitVec::zeros(state_.width()); }
  const BitVec& signature() const { return state_; }

  // Default feedback taps for a width (see constructor).
  static std::vector<unsigned> default_taps(unsigned width);

 private:
  void step();  // one shift of the underlying LFSR

  BitVec state_;
  BitVec poly_;  // feedback pattern XORed in when the MSB shifts out
};

// The feedback polynomial p(x) = x^W + sum x^t (t over the taps) of a
// width-W Galois MISR, and the tables that advance a register over a run
// of zero inputs by multiplying its state by x^k mod p.  A polynomial of
// degree < W is `limbs` 64-bit words, bit i of the whole being the
// coefficient of x^i; one implementation serves every width.  A register
// feeds and skips with the taps of the same object (PackedMisr::reset).
struct MisrJumps {
  unsigned width = 0;
  std::vector<unsigned> taps;       // the exponents t < W of p, as Misr takes them
  std::size_t limbs = 0;            // 64-bit limbs per polynomial
  std::vector<std::uint64_t> feedback;  // x^W mod p: the taps as a polynomial
  std::vector<std::uint64_t> digits;    // [b][v][limb]: x^(v * 16^b) mod p
  std::vector<std::uint64_t> high;      // [h][limb]: h(x) * x^W mod p, h < 16

  // Words of scratch power() and multiply() take.
  std::size_t scratch_limbs() const { return 17 * limbs; }

  // out = x^k mod p.  `out` spans `limbs` words, `scratch` scratch_limbs(),
  // and they are distinct.
  void power(std::uint64_t k, std::uint64_t* out, std::uint64_t* scratch) const;
  // out = a * b mod p; `out` aliases neither factor, and `scratch` (16 *
  // limbs words: the multiples of b) none of the three.
  void multiply(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                std::uint64_t* scratch) const;

  static MisrJumps build(unsigned width, const std::vector<unsigned>& taps);
  static MisrJumps build(unsigned width) { return build(width, Misr::default_taps(width)); }

 private:
  void times_x(std::uint64_t* a) const;   // a = a * x mod p, in place
  void times_x4(std::uint64_t* a) const;  // a = a * x^4 mod p, in place
  // m[v] = v(x) * b mod p for the 16 polynomials v of degree < 4; `m`
  // spans 16 * limbs words.
  void multiples(const std::uint64_t* b, std::uint64_t* m) const;
};

}  // namespace twm

#endif  // TWM_BIST_MISR_H
