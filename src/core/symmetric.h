// Symmetric transparent BIST (Yarmolik/Hellebrand, DATE 1999 — reference
// [18] of the paper under reproduction).
//
// The classical transparent flow needs two passes: a read-only prediction
// pass that computes the expected signature, then the test pass.  The
// symmetric idea removes the prediction pass: if the compactor is an
// order-insensitive XOR accumulator and every word is read an *even*
// number of times, the content-dependent part of the signature cancels —
// the fault-free signature is a constant computable at transform time, so
// TCP = 0.
//
// The price is aliasing: an error contributes to the XOR signature once per
// faulty read, so error effects that recur an even number of times at the
// same bit position cancel (the aliasing problem the paper's introduction
// attributes to this family of schemes).  bench_aliasing quantifies the
// loss against the MISR + prediction flow.
//
// symmetrize() takes any transparent march (e.g. a TWMarch) and appends a
// balancing read element when the per-word read count is odd; the returned
// descriptor carries the constant expected signature as a function of the
// word count N.
//
// The session is implemented once, templated over the engine traits
// (core/engine_traits.h): run_symmetric_session_t<ScalarEngine> runs one
// universe, run_symmetric_session_t<PackedEngine> 64 at once — the same
// code path, so the backends cannot drift.
//
// A packed campaign unit may walk only its fault footprint, F of the N
// words.  Each unlisted word is golden in every lane and contributes
// mask_xor to every lane's accumulator (the campaign's golden certificate
// checked exactly that on a one-word memory), so together they fold to
// expected_signature(N) ^ expected_signature(F), and the full-walk verdict
// acc_N != expected_signature(N) is acc_F != expected_signature(F).
#ifndef TWM_CORE_SYMMETRIC_H
#define TWM_CORE_SYMMETRIC_H

#include <cstddef>

#include "core/engine_traits.h"
#include "march/test.h"

namespace twm {

// True iff the content contribution to an XOR-accumulated signature
// cancels for every possible memory content: each word is read an even
// number of times.  (March semantics apply every element to every word, so
// this is a property of the op list alone.)
bool is_symmetric(const MarchTest& transparent);

struct SymmetricTest {
  MarchTest test;        // transparent march with even per-word read count
  BitVec mask_xor;       // XOR of all read-operation masks (one word's worth)

  // Constant fault-free signature of the XOR accumulator after running
  // `test` on an N-word memory: N copies of mask_xor fold to either zero
  // (N even) or mask_xor (N odd).
  BitVec expected_signature(std::size_t num_words) const;
};

// Balances the read count (appending any(r <final content>) if needed) and
// precomputes the signature constant.  The input must be a transparent
// march whose final content equals the initial content (true for every
// TWMarch) — otherwise the appended read's expectation would be wrong and
// the test would still displace data; throws std::invalid_argument.
SymmetricTest symmetrize(const MarchTest& transparent, unsigned width);

// Single-pass symmetric session over the runner's listed words (`list`,
// the list the runner walks): resets `acc`, runs the test (transparent
// semantics) XOR-accumulating every read into it, and compares it against
// the constant for that many words.  `acc` holds the observed signature
// afterwards; a campaign worker reuses one.  `masks`, when non-null, are
// the test's compiled packed op masks (bist/packed_engine.h).
template <class Engine>
typename Engine::Verdict run_symmetric_session_t(typename Engine::Runner& runner,
                                                 const SymmetricTest& st, AddressList list,
                                                 typename Engine::Accumulator& acc,
                                                 const PackedOpMasks* masks = nullptr) {
  acc.reset(st.mask_xor.width());
  Engine::run_test(runner, st.test, acc, masks);
  return Engine::signature_mismatch(acc, st.mask_xor, list.size % 2 == 1);
}

// Classic scalar result shape.
struct SymmetricOutcome {
  bool detected = false;
  BitVec signature;  // observed accumulator value
};

// Scalar convenience wrapper over run_symmetric_session_t<ScalarEngine>.
SymmetricOutcome run_symmetric_session(Memory& mem, const SymmetricTest& st);

}  // namespace twm

#endif  // TWM_CORE_SYMMETRIC_H
