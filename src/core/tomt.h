// Scheme 2 baseline: TOMT-style transparent online memory test [13].
//
// TOMT (Thaller/Steininger, IEEE Trans. Reliability 2003) tests one word at
// a time with bit-wise manipulations, detecting errors concurrently via the
// word's parity/Hamming protection instead of a signature — so it needs no
// prediction pass (TCP = 0) but pays a per-word cost proportional to the
// word width.
//
// Substitution note (see DESIGN.md): the authors' exact operation sequence
// depends on their ECC datapath, which the paper under reproduction only
// summarizes by its time complexity.  We build a behavioural stand-in with
// the same structure — a per-word prologue exercising solid transitions,
// an 8-operation read/flip/restore block per bit, and parity-ledger
// checking — calibrated to the complexity the paper attributes to [13]:
// TCM = (7 + 8·B)·N (which reproduces the paper's "about 19%" ratio for
// March C-, B = 32).
//
// The session is implemented once, templated over the engine traits
// (core/engine_traits.h): run_tomt_session<ScalarEngine> walks one fault
// universe with early exit at the first detection, and
// run_tomt_session<PackedEngine> latches per-lane verdicts across 64
// universes — the same code path, so the backends cannot drift.
//
// A campaign compiles the block once, into its SchemePlan (SchemePlan::tomt,
// its packed op masks into PlanOpMasks::tomt), and its workers keep the
// session's working words and ledger in their session scratch, so a packed
// unit allocates none of them.  The scalar reference derives each op's mask
// from the block itself, every session.
//
// The sweep runs over an AddressList (bist/address_gen.h) and the ledger
// holds one expected parity per listed word.  Both checkers are local to
// a word, so a packed campaign unit walks only its fault footprint and
// takes the footprint's ledger bits from the pre-injection background:
// a word outside the footprint is golden in every lane, and the campaign's
// golden certificate proved a golden word raises no detection.
#ifndef TWM_CORE_TOMT_H
#define TWM_CORE_TOMT_H

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/engine_traits.h"
#include "march/test.h"

namespace twm {

// The TOMT-style test as a march (single element, Up order, 7 + 8*B
// transparent operations per word).
MarchTest tomt_test(unsigned width);

// Parity ledger for the current (assumed fault-free) contents.
std::vector<bool> make_parity_ledger(const Memory& mem);

// Fills `ledger` with the listed words' parities, [i] -> parity of word
// list[i]; the memory must still hold its fault-free contents (captured
// before injection).  A reused ledger keeps its capacity.
template <class Engine>
void fill_parity_ledger(const typename Engine::Memory& mem, AddressList list,
                        std::vector<bool>& ledger) {
  ledger.assign(list.size, false);
  for (std::size_t i = 0; i < list.size; ++i) ledger[i] = Engine::golden_parity(mem, list[i]);
}

// The session's working words — base estimate, read value, expected value
// — kept by the caller, so a campaign worker reuses them unit after unit.
template <class Engine>
struct TomtRegisters {
  typename Engine::Word base, value, expect;
};

template <class Engine>
struct TomtSessionResult {
  typename Engine::Verdict detected{};
  // Address at which the verdict saturated (every universe detected); for
  // the scalar engine this is the classic first-failure address.
  std::size_t fail_addr = 0;
  std::uint64_t operations = 0;  // memory port operations consumed
};

// Runs the TOMT-style test `test` (tomt_test(width): a campaign compiles
// it once, in its SchemePlan) with its concurrent checkers:
//  * parity ledger: expected per-word parity captured while the system was
//    fault-free (TOMT's parity protection), checked at each word's first
//    read;
//  * intra-session comparator: every later read of a word is checked
//    against the value implied by that word's first read and the operation
//    masks (TOMT's read-back verification).
// The sweep aborts once the verdict is saturated (scalar: first detection,
// reproducing TOMT's stop-on-failure behaviour).  `parity_ledger[i]` is the
// expected parity of word list[i].  The packed engine reads the block's op
// masks from `masks` (compiled from `test`); the scalar reference derives
// its own from the ops.
template <class Engine>
TomtSessionResult<Engine> run_tomt_session(typename Engine::Memory& mem, const MarchTest& test,
                                           const PackedOpMasks* masks,
                                           const std::vector<bool>& parity_ledger,
                                           typename Engine::Brake* brake, AddressList list,
                                           TomtRegisters<Engine>& regs) {
  if (parity_ledger.size() != list.size)
    throw std::invalid_argument("run_tomt: ledger size mismatch");
  if (test.elements.size() != 1)
    throw std::invalid_argument("run_tomt: the TOMT block is a single element");
  if (brake) ++brake->elements_entered;  // the single per-word sweep element

  const unsigned w = mem.word_width();
  const MarchElement& elem = test.elements.front();
  const typename Engine::OpMaskTable op_masks = Engine::element_masks(elem, w, masks);

  TomtSessionResult<Engine> res;
  const std::uint64_t before = mem.op_count();
  typename Engine::Word& base = regs.base;
  typename Engine::Word& value = regs.value;
  typename Engine::Word& expect = regs.expect;
  Engine::reset_word(base, w);
  Engine::reset_word(value, w);
  Engine::reset_word(expect, w);

  bool done = false;
  for (std::size_t k = 0; k < list.size && !done; ++k) {
    const std::size_t addr = list[k];
    // The block works on one word: resolve it once.
    typename Engine::WordRef word = Engine::word_ref(mem, addr);
    bool have_base = false;
    for (std::size_t i = 0; i < elem.ops.size(); ++i) {
      const Op& op = elem.ops[i];
      if (op.is_write()) {
        Engine::xor_word(expect, base, Engine::mask_at(op_masks, i));
        Engine::write_word(mem, word, expect);
        continue;
      }
      Engine::read_word(mem, word, value);
      if (!have_base) {
        // mask is zero for the leading r(a); keeps intent clear.
        Engine::xor_word(base, value, Engine::mask_at(op_masks, i));
        have_base = true;
        // Concurrent parity check on the word's first observation.
        res.detected |= Engine::parity_mismatch(base, parity_ledger[k]);
      } else {
        Engine::xor_word(expect, base, Engine::mask_at(op_masks, i));
        res.detected |= Engine::differs(value, expect);  // read-back comparator
      }
      // Both checkers latch (the verdict is monotone), so the sweep aborts
      // once no lane the caller cares about can change: every universe
      // detected (the classic scalar stop-on-failure), or — with an armed
      // scheduler brake — every live fault lane of the batch settled.
      if (Engine::saturated(res.detected) || (brake && brake->should_stop(res.detected))) {
        res.fail_addr = addr;
        done = true;
        break;
      }
    }
  }

  res.operations = mem.op_count() - before;
  return res;
}

// The whole-memory sweep, building its own block, masks and registers.
template <class Engine>
TomtSessionResult<Engine> run_tomt_session(typename Engine::Memory& mem,
                                           const std::vector<bool>& parity_ledger,
                                           typename Engine::Brake* brake = nullptr) {
  const MarchTest test = tomt_test(mem.word_width());
  const PackedOpMasks masks(test, mem.word_width());
  TomtRegisters<Engine> regs;
  return run_tomt_session<Engine>(mem, test, &masks, parity_ledger, brake,
                                  AddressList::all(mem.num_words()), regs);
}

// Classic scalar result shape, kept for the diagnosis-style consumers.
struct TomtResult {
  bool detected = false;
  std::size_t fail_addr = 0;
  std::uint64_t operations = 0;  // memory port operations consumed
};

// Scalar convenience wrapper over run_tomt_session<ScalarEngine>.
TomtResult run_tomt(Memory& mem, const std::vector<bool>& parity_ledger);

}  // namespace twm

#endif  // TWM_CORE_TOMT_H
