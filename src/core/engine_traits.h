// Engine traits: the vocabulary that lets one scheme-session implementation
// run on either simulation backend.
//
// A coverage campaign executes the same march session logic whether it
// simulates one fault universe at a time (Memory + MarchRunner + Misr) or
// 64 bit-parallel universes per pass (PackedMemory + PackedMarchRunner +
// PackedMisr).  The two backends differ only in their *data plane*:
//
//   ScalarEngine   Verdict = bool      one universe per session
//   PackedEngine   Verdict = LaneMask  lane k of every value/verdict belongs
//                                      to universe k (64 lanes)
//
// Each trait struct maps the shared vocabulary — verdict algebra, fault
// injection, the engine entry points, and the word/mask/signature
// operations the TOMT and symmetric sessions are written in — onto its
// backend.  core/scheme_session.h instantiates the session templates with
// either engine; the Memory vs PackedMemory *write semantics* stay
// deliberately independent implementations so the differential check in
// tests/coverage_backend_test.cpp keeps its power — only the orchestration
// above the memory port is unified here.
//
// The contract a new backend (a new Engine struct) must honour —
// docs/ARCHITECTURE.md walks through each rule with rationale; the short
// form:
//
//   * Verdict semantics: bit k of a Verdict is a latch for "universe k has
//     detected its fault".  Session code only ORs verdicts together;
//     nothing may ever clear a detection bit.
//   * Golden lane: lane 0 carries no fault and must read back the
//     fault-free memory image exactly.  `bit(v, slot)` therefore maps
//     fault slot s to lane s+1, and `used_mask(count)` covers lanes
//     1..count only — a partial final batch must neither report phantom
//     universes nor mask the golden lane.
//   * Brake monotonicity: SessionBrake::should_stop answers "are all used
//     lanes settled"; once true for a verdict v it must stay true for any
//     v' ⊇ v.  The settle-exit schedule relies on this to cut sessions
//     short without changing any verdict bit that the full run would set.
//   * Differential proof: a backend is correct when its VerdictMatrix is
//     byte-identical to ScalarEngine's across every scheme — that check
//     lives in tests/coverage_backend_test.cpp and is the required
//     template for qualifying any new backend.
#ifndef TWM_CORE_ENGINE_TRAITS_H
#define TWM_CORE_ENGINE_TRAITS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bist/address_gen.h"
#include "bist/engine.h"
#include "bist/misr.h"
#include "bist/packed_engine.h"
#include "memsim/fault.h"
#include "memsim/memory.h"
#include "memsim/packed_memory.h"
#include "util/bitvec.h"

namespace twm {

// Order-insensitive XOR compactor (the symmetric scheme's signature
// register), one universe.
class XorAccumulator final : public ReadSink {
 public:
  XorAccumulator() = default;  // no register until reset()
  explicit XorAccumulator(unsigned width) { reset(width); }
  void reset(unsigned width) { acc_ = BitVec::zeros(width); }
  void on_read(std::size_t, const BitVec& value) override { acc_ ^= value; }
  const BitVec& value() const { return acc_; }

 private:
  BitVec acc_;
};

// One XOR accumulator per lane: signature bit j across all lanes is acc()[j].
class PackedXorAccumulator {
 public:
  PackedXorAccumulator() = default;  // no register until reset()
  explicit PackedXorAccumulator(unsigned width) { reset(width); }
  // Zeroes the register; a reused accumulator keeps its capacity.
  void reset(unsigned width) { acc_.assign(width, LaneMask{}); }
  void on_read(std::size_t, const LaneMask* value) {
    for (std::size_t j = 0; j < acc_.size(); ++j) acc_[j] ^= value[j];
  }
  const std::vector<LaneMask>& value() const { return acc_; }

 private:
  std::vector<LaneMask> acc_;
};

// Scalar counterpart of SessionBrake (bist/packed_engine.h): one lane, so
// "every target lane settled" degenerates to "the fault was detected".
// The scalar reference engine does not abort sessions mid-march (it IS the
// reference); the brake still carries the settle predicate the TOMT
// session's stop-on-failure sweep and the scheduler's counters share.
struct ScalarSessionBrake {
  bool target = true;
  bool already = false;
  bool exit_enabled = false;
  std::uint64_t elements_entered = 0;

  bool should_stop(bool verdict) const { return exit_enabled && (verdict || already); }
  void on_element_end(bool /*verdict*/) {}
};

// The scalar reference keeps no runner buffers across sessions.
struct ScalarRunnerScratch {};

struct ScalarEngine {
  using Verdict = bool;  // detected?
  using Memory = twm::Memory;
  using Runner = MarchRunner;
  using Misr = twm::Misr;
  using Word = BitVec;       // one word's value
  using Mask = BitVec;       // a per-op data mask
  using Accumulator = XorAccumulator;
  using Brake = ScalarSessionBrake;
  using Scratch = ScalarRunnerScratch;
  // The TOMT block's per-op masks: the reference derives its own from the
  // ops every session and ignores the packed compiled ones.
  using OpMaskTable = std::vector<BitVec>;

  // One fault universe per session.
  static constexpr unsigned kFaultsPerUnit = 1;
  // The reference walks every word, always: its runner has no address list.
  static constexpr bool kSparseWalk = false;

  static Brake make_brake(Memory& /*mem*/, Verdict used) {
    Brake b;
    b.target = used;
    b.exit_enabled = true;
    return b;
  }

  // --- verdict algebra (Verdicts also combine with plain &, |, ==) ------
  static Verdict used_mask(unsigned /*count*/) { return true; }
  static bool bit(Verdict v, unsigned /*slot*/) { return v; }
  // Every universe has detected; nothing further can change the verdict.
  static bool saturated(Verdict v) { return v; }

  // --- fault injection --------------------------------------------------
  static void inject(Memory& mem, const Fault& f, unsigned /*slot*/) { mem.inject(f); }

  // --- engine entry points ----------------------------------------------
  static Runner make_runner(Memory& mem, AddressList list, Scratch& /*scratch*/) {
    if (!list.full()) throw std::logic_error("ScalarEngine: the reference walks every word");
    return Runner(mem);
  }

  // The scalar engine ignores the brake's exit (one universe, reference
  // semantics) but reports its elements for the progress counters.  It
  // also ignores the packed op masks: its runner derives each op's data
  // per word.
  static Verdict run_direct(Runner& runner, const MarchTest& test, Brake* brake = nullptr,
                            const PackedOpMasks* /*masks*/ = nullptr) {
    if (brake) brake->elements_entered += test.elements.size();
    return runner.run_direct(test).mismatch;
  }
  static void run_test(Runner& runner, const MarchTest& test, ReadSink& sink,
                       const PackedOpMasks* /*masks*/ = nullptr) {
    runner.run_test(test, sink);
  }
  struct TransparentVerdicts {
    Verdict exact;
    Verdict misr;
  };
  static TransparentVerdicts run_transparent(Runner& runner, const MarchTest& test,
                                             const MarchTest& prediction, const MisrJumps& misr,
                                             Brake* brake = nullptr, bool /*want_misr*/ = true,
                                             const PackedOpMasks* /*test_masks*/ = nullptr,
                                             const PackedOpMasks* /*prediction_masks*/ = nullptr) {
    if (brake) brake->elements_entered += test.elements.size() + prediction.elements.size();
    const TransparentOutcome out =
        runner.run_transparent_session(test, prediction, misr.width, misr.taps);
    return {out.detected_exact, out.detected_misr};
  }

  // --- word vocabulary (the TOMT session's working registers) -----------
  // Parity of a word's current (fault-free) contents, for the TOMT ledger.
  static bool golden_parity(const Memory& mem, std::size_t addr) {
    return mem.peek(addr).parity();
  }
  static void reset_word(Word& w, unsigned width) { w = BitVec::zeros(width); }
  static OpMaskTable element_masks(const MarchElement& elem, unsigned width,
                                   const PackedOpMasks* /*masks*/) {
    OpMaskTable out;
    out.reserve(elem.ops.size());
    for (const Op& op : elem.ops) out.push_back(op.data.mask(width));
    return out;
  }
  static const Mask& mask_at(const OpMaskTable& table, std::size_t op) { return table[op]; }
  // A word the TOMT block works on: its address.
  using WordRef = std::size_t;
  static WordRef word_ref(const Memory& /*mem*/, std::size_t addr) { return addr; }
  static void read_word(Memory& mem, WordRef addr, Word& out) { out = mem.read(addr); }
  static void write_word(Memory& mem, WordRef addr, const Word& data) { mem.write(addr, data); }
  static void xor_word(Word& dst, const Word& src, const Mask& mask) { dst = src ^ mask; }
  static Verdict parity_mismatch(const Word& w, bool expected) { return w.parity() != expected; }
  static Verdict differs(const Word& a, const Word& b) { return a != b; }

  // --- signature vocabulary (the symmetric session's compactor) ---------
  // The accumulator differs from the fault-free signature, which is
  // `mask_xor` after an odd number of words and zero after an even one
  // (SymmetricTest::expected_signature).
  static Verdict signature_mismatch(const Accumulator& acc, const BitVec& mask_xor,
                                    bool odd_words) {
    return odd_words ? acc.value() != mask_xor : !acc.value().all_zero();
  }
};

struct PackedEngine {
  using Verdict = LaneMask;  // lane k: universe k detected
  using Memory = PackedMemory;
  using Runner = PackedMarchRunner;
  using Misr = PackedMisr;
  using Word = std::vector<LaneMask>;  // [bit] -> lane mask
  using Mask = const LaneMask*;        // broadcast op mask (compiled)
  using Accumulator = PackedXorAccumulator;
  using Brake = SessionBrake;
  using Scratch = PackedSessionScratch;
  using OpMaskTable = const PackedOpMasks*;

  // Lane 0 stays fault-free (golden); faults occupy the remaining lanes.
  static constexpr unsigned kFaultsPerUnit = kPackedLanes - 1;
  // A campaign unit walks its fault footprint instead of every word
  // (bist/packed_engine.h); the golden certificate is the precondition.
  static constexpr bool kSparseWalk = true;

  // An armed brake also drops settled lanes' faults from the memory's
  // per-word masks and buckets (fault dropping inside a live batch).
  static Brake make_brake(Memory& mem, Verdict used) {
    Brake b;
    b.target = used;
    b.exit_enabled = true;
    b.retire_from = &mem;
    return b;
  }

  // Lanes 1..count — a partial final batch must neither report phantom
  // universes nor mask the golden lane (used_lane_mask documents the rule).
  static Verdict used_mask(unsigned count) { return used_lane_mask(count); }
  static bool bit(Verdict v, unsigned slot) { return (v >> (slot + 1)) & 1u; }
  static bool saturated(Verdict v) { return v == ~LaneMask{0}; }

  static void inject(Memory& mem, const Fault& f, unsigned slot) {
    mem.inject(f, LaneMask{1} << (slot + 1));
  }

  static Runner make_runner(Memory& mem, AddressList list, Scratch& scratch) {
    return Runner(mem, list, scratch);
  }
  static Verdict run_direct(Runner& runner, const MarchTest& test, Brake* brake = nullptr,
                            const PackedOpMasks* masks = nullptr) {
    return runner.run_direct(test, brake, masks);
  }
  template <class Sink>  // any type with on_read(addr, const LaneMask*)
  static void run_test(Runner& runner, const MarchTest& test, Sink& sink,
                       const PackedOpMasks* masks = nullptr) {
    runner.run_test(test, sink, masks);
  }
  struct TransparentVerdicts {
    Verdict exact;
    Verdict misr;
  };
  static TransparentVerdicts run_transparent(Runner& runner, const MarchTest& test,
                                             const MarchTest& prediction, const MisrJumps& misr,
                                             Brake* brake = nullptr, bool want_misr = true,
                                             const PackedOpMasks* test_masks = nullptr,
                                             const PackedOpMasks* prediction_masks = nullptr) {
    const PackedTransparentOutcome out = runner.run_transparent_session(
        test, prediction, misr, brake, want_misr, test_masks, prediction_masks);
    return {out.detected_exact, out.detected_misr};
  }

  // Lane 0 still holds every word's fault-free contents before injection.
  static bool golden_parity(const Memory& mem, std::size_t addr) {
    const LaneMask* word = mem.peek(addr);
    LaneMask parity{};
    for (unsigned j = 0; j < mem.word_width(); ++j) parity ^= word[j];
    return parity & 1u;
  }
  // Registers are reused across sessions: no allocation once grown.
  static void reset_word(Word& w, unsigned width) { w.assign(width, LaneMask{}); }
  // The packed engine reads the compiled masks (an element of a
  // single-element test: the TOMT block).
  static OpMaskTable element_masks(const MarchElement& /*elem*/, unsigned /*width*/,
                                   const PackedOpMasks* masks) {
    if (!masks) throw std::invalid_argument("PackedEngine: op masks required");
    return masks;
  }
  static Mask mask_at(OpMaskTable table, std::size_t op) { return table->at(0, op); }
  // A word the TOMT block works on, resolved to its slot once: every op of
  // the block goes through the slot port.
  struct WordRef {
    std::size_t addr;
    std::uint32_t slot;  // PackedMemory::slot_of(addr), updated by a write
  };
  static WordRef word_ref(const Memory& mem, std::size_t addr) {
    return {addr, mem.slot_of(addr)};
  }
  static void read_word(Memory& mem, const WordRef& ref, Word& out) {
    // The port's pointer is invalidated by the next port op; take a copy.
    const LaneMask* v = mem.read_slot(ref.slot, ref.addr);
    std::copy(v, v + out.size(), out.begin());
  }
  static void write_word(Memory& mem, WordRef& ref, const Word& data) {
    mem.write_slot(ref.slot, ref.addr, data.data());
  }
  static void xor_word(Word& dst, const Word& src, Mask mask) {
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] = src[j] ^ mask[j];
  }
  static Verdict parity_mismatch(const Word& w, bool expected) {
    LaneMask parity{};
    for (const LaneMask lanes : w) parity ^= lanes;
    return expected ? ~parity : parity;
  }
  static Verdict differs(const Word& a, const Word& b) {
    Verdict d{};
    for (std::size_t j = 0; j < a.size(); ++j) d |= a[j] ^ b[j];
    return d;
  }

  static Verdict signature_mismatch(const Accumulator& acc, const BitVec& mask_xor,
                                    bool odd_words) {
    Verdict d{};
    for (unsigned j = 0; j < mask_xor.width(); ++j)
      d |= acc.value()[j] ^ (odd_words && mask_xor.get(j) ? ~LaneMask{0} : LaneMask{});
    return d;
  }
};

}  // namespace twm

#endif  // TWM_CORE_ENGINE_TRAITS_H
