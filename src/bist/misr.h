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
// of two equally long streams is the signature of their positional XOR,
// and a run of k zero inputs multiplies the state by A^k, where A is the
// companion matrix of one step.  MisrJumps holds A^(2^i) so a compactor
// can skip such a run in O(log k) matrix applications (PackedMisr::skip).
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

// Powers A^(2^i), i = 0..63, of the companion matrix A of one MISR step
// (a zero-input feed).  Bit c of row r of a power is set when bit c of the
// state feeds bit r after the jump.
struct MisrJumps {
  unsigned width = 0;
  std::size_t limbs = 0;            // 64-bit limbs per row
  std::vector<std::uint64_t> pow2;  // [i][row][limb]

  const std::uint64_t* row(unsigned i, unsigned r) const {
    return &pow2[(static_cast<std::size_t>(i) * width + r) * limbs];
  }

  static MisrJumps build(unsigned width, const std::vector<unsigned>& taps);
  static MisrJumps build(unsigned width) { return build(width, Misr::default_taps(width)); }
};

}  // namespace twm

#endif  // TWM_BIST_MISR_H
