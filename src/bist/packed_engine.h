// Lane-parallel march test execution over PackedMemory: the batched
// counterpart of bist/engine.h, evaluating one fault universe per lane of
// a LaneMask (64 per pass).
//
// Execution styles mirror MarchRunner operation-for-operation:
//
//  * run_direct()     — nontransparent tests; returns the lane mask of
//                       lanes in which at least one Read mismatched its
//                       absolute expected value.
//  * run_test()       — transparent test pass; Write data is derived
//                       per lane from the Read that precedes it in its
//                       element (base-estimate XOR operation mask).  Every
//                       relative write must follow a read of the same
//                       element — the transparent-march normal form every
//                       built plan satisfies; anything else is a
//                       std::logic_error.  The scalar MarchRunner keeps the
//                       general per-word history.
// Every pass walks the runner's AddressList (bist/address_gen.h) in
// element order instead of [0, words): the whole memory, or — in a
// campaign unit, whose golden certificate (analysis/campaign_exec.h) is
// the precondition — only the unit's fault footprint.  A word outside
// every injected fault's footprint holds golden data in every lane for the
// whole session, so its reads contribute in lane k exactly what they
// contribute in golden lane 0, which the certificate proved to be nothing
// (exact and direct compare) or a known constant (XOR and MISR compaction,
// both linear).  A pass resolves each listed word's slot once when it
// starts and then reads and writes through PackedMemory's slot port, with
// no bounds check or index probe per op.
//
// run_transparent_session() runs a transparent session — the read-only
// signature-prediction pass, then the test pass — and reports, per lane,
// the exact stream comparison and the MISR comparison.  The prediction
// pass is derived, not swept: PackedMemory::read changes no cell (only
// elapse, a pause, does), so between two pauses every prediction read of
// a listed word returns what the word held when that pause-free segment
// began.  The session applies the prediction's pauses to the memory in
// order, snapshots the listed words once per segment, and the test pass's
// sink computes each predicted read from the snapshot and the read's op
// mask as the test pass reads (packed_detail::DerivedPrediction).  The
// exact compare aligns reads by (element, listed address, read), which is
// valid because the prediction is the test with its writes dropped:
// make_scheme_plan asserts the two run every element in the same address
// order with the same read count.  The MISR comparison compacts the
// positional difference stream pred ^ test into one zero-initialised
// register; by linearity that equals the difference of the two signatures
// the scalar engine computes.  Zero differences — every unlisted read, and
// most listed ones — are never fed: the register jumps over each run of k
// of them by multiplying its state by x^k modulo its feedback polynomial
// (MisrJumps, bist/misr.h).
//
// A sweep reads each op's broadcast data mask from a PackedOpMasks.  Callers
// that run the same test many times (the campaign scheduler, through
// PlanOpMasks in core/scheme_session.h) compile it once and pass it in;
// without one, each pass compiles its own.  Likewise every buffer a
// session needs — the prediction snapshots, the difference word, the MISR,
// the pass registers — lives in a PackedSessionScratch that a campaign
// worker keeps for all its units (core/scheme_session.h SessionScratch),
// so a campaign unit's session allocates nothing once the buffers have
// grown.
//
// Like the packed memory, the implementation is header-only: sweep_braked
// and the port operations it calls form the innermost loop, and the build
// has no LTO.
#ifndef TWM_BIST_PACKED_ENGINE_H
#define TWM_BIST_PACKED_ENGINE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bist/address_gen.h"
#include "bist/misr.h"
#include "march/test.h"
#include "memsim/packed_memory.h"

namespace twm {

// One Galois MISR per lane, every lane with the feedback polynomial of one
// MisrJumps; signature bit i across all lanes is state()[i].
class PackedMisr {
 public:
  PackedMisr() = default;  // no register until reset()
  explicit PackedMisr(const MisrJumps& poly) { reset(poly); }

  // Zeroes every lane's signature at poly.width bits.  feed() and skip()
  // both take the feedback taps from `poly`, which must outlive the
  // register's use.  A reused register (a session scratch's) allocates
  // nothing once its buffers have grown.
  void reset(const MisrJumps& poly) {
    if (poly.width == 0) throw std::invalid_argument("PackedMisr: zero width");
    poly_ = &poly;
    state_.assign(poly.width, LaneMask{});
    factor_.resize(poly.limbs);
    tmp_.resize(poly.scratch_limbs());
  }

  unsigned width() const { return static_cast<unsigned>(state_.size()); }

  // Folds one packed input word (input_width lane masks) into all lane
  // signatures; replicates Misr::feed (shift, conditional feedback, XOR of
  // the width-folded input).
  void feed(const LaneMask* input, unsigned input_width) {
    const unsigned w = width();
    const LaneMask carry = state_[w - 1];  // lanes whose MSB shifts out
    for (unsigned i = w; i-- > 1;) state_[i] = state_[i - 1];
    state_[0] = LaneMask{};
    for (unsigned t : poly_->taps) state_[t] ^= carry;
    // Fold the input into width-sized chunks (Misr::feed's rule, per lane).
    for (unsigned i = 0; i < input_width; ++i) state_[i % w] ^= input[i];
  }

  // Advances every lane's signature by `zeros` zero-input feeds: multiplies
  // each lane's state polynomial by the scalar x^zeros mod p — one lane
  // XOR per (set coefficient of the factor, state bit), then one reduction
  // modulo p.  Nothing to do while the state is still zero.
  void skip(std::uint64_t zeros) {
    if (zeros == 0 || !nonzero()) return;
    const MisrJumps& p = *poly_;
    const unsigned w = width();
    p.power(zeros, factor_.data(), tmp_.data());
    product_.assign(2 * w - 1, LaneMask{});
    for (std::size_t l = 0; l < p.limbs; ++l)
      for (std::uint64_t bits = factor_[l]; bits; bits &= bits - 1) {
        LaneMask* to = &product_[l * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        for (unsigned i = 0; i < w; ++i) to[i] ^= state_[i];
      }
    // x^d = x^(d - W) * x^W, and x^W = sum x^t mod p: fold the high
    // coefficients down, highest first.
    for (std::size_t d = product_.size(); d-- > w;)
      if (const LaneMask c = product_[d])
        for (unsigned t : p.taps) product_[d - w + t] ^= c;
    std::copy(product_.begin(), product_.begin() + w, state_.begin());
  }

  bool nonzero() const {
    for (const LaneMask& b : state_)
      if (b != 0) return true;
    return false;
  }

  const std::vector<LaneMask>& state() const { return state_; }

 private:
  const MisrJumps* poly_ = nullptr;
  std::vector<LaneMask> state_;         // [bit] -> lane mask
  std::vector<LaneMask> product_;       // skip(): state * factor, 2W - 1 coefficients
  std::vector<std::uint64_t> factor_;   // skip(): x^zeros mod p
  std::vector<std::uint64_t> tmp_;      // skip(): MisrJumps::power's scratch
};

struct PackedTransparentOutcome {
  LaneMask detected_exact{};  // prediction/test read streams differ
  LaneMask detected_misr{};   // MISR signatures differ
};

// Cooperative mid-session brake for sessions whose per-lane verdict is
// MONOTONE (exact stream/value comparison: a lane's bit, once set, is
// final).  The campaign scheduler (analysis/campaign_exec.h) arms one per
// unit so a session can
//
//   * abort the remaining march work once every lane in `target` has a
//     final verdict (settle-exit — checked after each address's ops), and
//   * drop the faults of lanes that settled mid-session from the packed
//     memory's masks and buckets (retire_lanes, at element boundaries), so
//     the write path stops paying for universes whose verdict is already
//     known.
//
// Both actions are verdict-preserving only for monotone verdicts; sessions
// with order-insensitive compaction (XOR accumulator) or signature
// compression (MISR) must not arm `exit_enabled` — their lanes' verdicts
// are not final until the session ends (aliasing can cancel a mismatch).
// With exit_enabled false the brake still counts march elements entered,
// which is what the scheduler's occupancy/forward-progress counters read.
struct SessionBrake {
  LaneMask target{};   // lanes whose verdicts the caller needs (fault lanes)
  LaneMask already{};  // verdict contribution of earlier passes (e.g. SMarch)
  bool exit_enabled = false;
  PackedMemory* retire_from = nullptr;  // optional fault dropping
  LaneMask retired{};                   // lanes already dropped
  std::uint64_t elements_entered = 0;   // march elements started

  // Every target lane's verdict is final -> abort the rest of the session.
  bool should_stop(LaneMask verdict) const {
    if (!exit_enabled || target == 0) return false;
    return ((verdict | already) & target) == target;
  }

  // Element boundary: drop the faults of lanes that settled since the last
  // boundary (only meaningful for monotone sessions, hence the exit gate).
  void on_element_end(LaneMask verdict) {
    if (!exit_enabled || !retire_from) return;
    const LaneMask settled = (verdict | already) & target & ~retired;
    if (settled == 0) return;
    retired |= settled;
    retire_from->retire_lanes(retired);
  }
};

// The broadcast data masks of every op of a march test at one word width,
// flattened in march order: op i of element e spans `width` lane masks at
// at(e, i).  For absolute specs mask(w) == value(w, ·), the write data or
// expected read value; for relative ones it is the operation mask.  It
// also keeps the test's read count, so a session need not recount it.
class PackedOpMasks {
 public:
  PackedOpMasks() = default;
  PackedOpMasks(const MarchTest& test, unsigned width)
      : width_(width), reads_(test.read_count()) {
    first_.reserve(test.elements.size());
    std::size_t ops = 0;
    for (const MarchElement& e : test.elements) {
      first_.push_back(ops);
      ops += e.ops.size();
    }
    masks_.reserve(ops * width);
    for (const MarchElement& e : test.elements)
      for (const Op& op : e.ops) {
        const std::vector<LaneMask> m = broadcast_word(op.data.mask(width));
        masks_.insert(masks_.end(), m.begin(), m.end());
      }
  }

  const LaneMask* at(std::size_t element, std::size_t op) const {
    return &masks_[(first_[element] + op) * width_];
  }

  // MarchTest::read_count() of the compiled test.
  std::size_t read_count() const { return reads_; }

 private:
  unsigned width_ = 0;
  std::size_t reads_ = 0;
  std::vector<std::size_t> first_;  // [element] -> index of its first op
  std::vector<LaneMask> masks_;     // [op * width + bit]
};

namespace packed_detail {

// The prediction pass of a transparent session, derived instead of swept.
// PackedMemory::read changes no cell — only elapse does — so between two
// pauses every read of listed word k returns what k held when that
// pause-free segment began, and read r of prediction element e at slot k
// predicts snap[k] ^ mask(e, r).  start() applies the pass's pauses to the
// memory in order, each an elapse(1) as the swept pass would apply it, and
// snapshots the port view of every listed word (AF-distorted, as read
// returns it) when each segment that reads begins: a plan without pauses
// takes one snapshot.  The memory then holds exactly what the swept pass
// would have left for the test pass.  next() yields the predicted reads in
// stream order.  A session scratch reuses one instance unit after unit,
// and start() keeps its capacity.  The snapshots read through the slot
// port: `slots[k]` is PackedMemory::slot_of(list[k]).
class DerivedPrediction {
 public:
  struct Read {
    const LaneMask* word;  // the read word's snapshot, `width` lane masks
    const LaneMask* mask;  // the read's op mask, `width` lane masks
    std::uint64_t pos;     // its position in a walk over every word
  };

  // `masks` are the prediction's and must outlive the reads.  Throws
  // std::invalid_argument when the prediction writes.
  void start(PackedMemory& mem, AddressList list, const std::uint32_t* slots,
             const MarchTest& prediction, const PackedOpMasks& masks) {
    width_ = mem.word_width();
    words_ = mem.num_words();
    list_ = list;
    snap_.clear();
    elements_.clear();
    i_ = k_ = r_ = 0;
    std::uint64_t base = 0;
    std::size_t snap = 0;  // offset in snap_ of the current segment's snapshot
    bool fresh = false;    // the current segment has its snapshot
    for (std::size_t e = 0; e < prediction.elements.size(); ++e) {
      const MarchElement& elem = prediction.elements[e];
      if (elem.pause_before) {
        mem.elapse(1);
        fresh = false;
      }
      for (const Op& op : elem.ops)
        if (op.is_write())
          throw std::invalid_argument("DerivedPrediction: prediction test must be read-only");
      if (elem.ops.empty()) continue;
      if (!fresh) {
        snap = snapshot(mem, slots);
        fresh = true;
      }
      elements_.push_back(
          {masks.at(e, 0), elem.ops.size(), elem.order == AddrOrder::Down, snap, base});
      base += static_cast<std::uint64_t>(elem.ops.size()) * words_;
    }
  }

  // The next read of the prediction pass, in stream order.
  Read next() {
    const Element& el = elements_[i_];
    const std::size_t slot = el.down ? list_.size - 1 - k_ : k_;
    const std::size_t addr = list_[slot];
    const std::size_t rank = el.down ? words_ - 1 - addr : addr;
    const Read out{&snap_[el.snap + slot * width_], el.masks + r_ * width_,
                   el.base + static_cast<std::uint64_t>(rank) * el.reads + r_};
    if (++r_ == el.reads) {
      r_ = 0;
      if (++k_ == list_.size) {
        k_ = 0;
        ++i_;
      }
    }
    return out;
  }

 private:
  // A prediction element that reads: its op masks, reads per address,
  // order, the offset of its segment's snapshot in snap_, and the position
  // of its first read in a walk over every word.
  struct Element {
    const LaneMask* masks;
    std::size_t reads;
    bool down;
    std::size_t snap;
    std::uint64_t base;
  };

  // Appends the port view of every listed word; returns its offset.
  std::size_t snapshot(PackedMemory& mem, const std::uint32_t* slots) {
    const std::size_t at = snap_.size();
    snap_.resize(at + list_.size * width_);
    for (std::size_t k = 0; k < list_.size; ++k) {
      const LaneMask* v = mem.read_slot(slots[k], list_[k]);
      std::copy(v, v + width_, snap_.begin() + static_cast<std::ptrdiff_t>(at + k * width_));
    }
    return at;
  }

  unsigned width_ = 0;
  std::size_t words_ = 0;
  AddressList list_;
  std::vector<LaneMask> snap_;     // [segment][slot * width + bit]
  std::vector<Element> elements_;  // the read-bearing elements, in order
  std::size_t i_ = 0, k_ = 0, r_ = 0;  // next read: element, visit, read
};

// The test-pass sink of a transparent session: diffs every read against
// the derived prediction read at the same stream position.  The exact
// comparison ORs the difference into one verdict; the MISR comparison
// feeds the difference stream, placed at its full-walk position, into a
// zero-initialised MISR that jumps over every run of zero differences.
// The two streams have equal length (run_transparent_session checks it).
// `diff` is caller-owned storage for one difference word.
class SessionTestSink {
 public:
  SessionTestSink(unsigned width, DerivedPrediction& prediction, PackedMisr* misr,
                  std::vector<LaneMask>& diff)
      : width_(width), prediction_(prediction), misr_(misr), diff_(diff) {
    diff_.resize(width);
  }

  void on_read(std::size_t, const LaneMask* value) {
    const DerivedPrediction::Read p = prediction_.next();
    LaneMask any{};
    for (unsigned j = 0; j < width_; ++j) {
      diff_[j] = value[j] ^ p.word[j] ^ p.mask[j];
      any |= diff_[j];
    }
    stream_diff_ |= any;
    // A zero difference is covered by the next skip.
    if (misr_ && any) {
      misr_->skip(p.pos - next_);
      misr_->feed(diff_.data(), width_);
      next_ = p.pos + 1;
    }
  }

  // Advances the MISR over the trailing zero differences of a
  // `total`-read stream.
  void finish(std::uint64_t total) {
    if (misr_) misr_->skip(total - next_);
  }

  LaneMask stream_diff() const { return stream_diff_; }

 private:
  unsigned width_;
  DerivedPrediction& prediction_;
  PackedMisr* misr_;
  std::vector<LaneMask>& diff_;
  std::uint64_t next_ = 0;  // stream position the MISR has consumed up to
  LaneMask stream_diff_{};
};

}  // namespace packed_detail

// The buffers a packed session needs, kept across sessions so that a
// campaign worker's units allocate nothing once the buffers have grown to
// the largest unit: the listed words' slots, the test pass's one-word
// registers, the derived prediction's snapshots, the test sink's
// difference word and the difference MISR.  Each session resets what it
// uses before it starts, so a scratch carries capacity from one session to
// the next, never state.
// A campaign worker owns one (inside SessionScratch,
// core/scheme_session.h); other callers build a local one.
struct PackedSessionScratch {
  std::vector<std::uint32_t> slots;              // [k] -> slot_of(list[k])
  std::vector<LaneMask> data, cur;               // test-pass registers
  packed_detail::DerivedPrediction prediction;   // snapshots of the listed words
  std::vector<LaneMask> diff;                    // test read ^ predicted read
  PackedMisr misr;                               // compacts the difference stream
};

class PackedMarchRunner {
 public:
  // Walks the words in `list` (ascending, within the memory) with the
  // buffers of `scratch`; both must outlive the runner, and the scratch
  // serves one runner at a time.  Each pass resolves the listed words'
  // slots when it starts (a pass sees the faults injected before it) and
  // then addresses the memory through its slot port.
  PackedMarchRunner(PackedMemory& mem, AddressList list, PackedSessionScratch& scratch)
      : mem_(mem), list_(list), scratch_(scratch) {}

  // `brake`, when non-null, is polled after each address's ops: the sweep
  // aborts once every brake-target lane's mismatch bit is set (the verdict
  // is monotone — an abort returns exactly the final verdict of the target
  // lanes), and lanes that settle mid-march have their faults dropped from
  // the memory at element boundaries.  `masks`, when non-null, holds the
  // test's compiled op masks (otherwise the pass compiles its own); so for
  // every run_* below.
  LaneMask run_direct(const MarchTest& test, SessionBrake* brake = nullptr,
                      const PackedOpMasks* masks = nullptr) {
    const unsigned w = mem_.word_width();
    LaneMask mismatch{};
    resolve();
    sweep_braked(
        test, masks,
        [&](std::size_t k, const Op& op, const LaneMask* mask) {
          if (op.data.relative)
            throw std::invalid_argument(
                "run_direct: test contains transparent (relative) operations");
          // For absolute specs, mask(w) == value(w, ·): the expected read
          // value / the write data, broadcast over lanes.
          if (op.is_write()) {
            write_at(k, mask);
            return;
          }
          const LaneMask* actual = read_at(k);
          for (unsigned j = 0; j < w; ++j) mismatch |= actual[j] ^ mask[j];
        },
        brake, [&] { return mismatch; });
    return mismatch;
  }

  template <typename Sink>
  void run_test(const MarchTest& test, Sink& sink, const PackedOpMasks* masks = nullptr) {
    resolve();
    run_test_braked(test, masks, sink, nullptr, [] { return LaneMask{}; });
  }

  // `want_misr` = false skips the MISR compaction (detected_misr is then
  // meaningless).  A brake may only arm exit_enabled when want_misr is
  // false (the exact stream comparison is monotone; MISR signatures are not
  // final until the session ends).  Throws std::logic_error when the two
  // passes' read counts differ.
  PackedTransparentOutcome run_transparent_session(const MarchTest& test,
                                                   const MarchTest& prediction,
                                                   const MisrJumps& misr,
                                                   SessionBrake* brake = nullptr,
                                                   bool want_misr = true,
                                                   const PackedOpMasks* test_masks = nullptr,
                                                   const PackedOpMasks* prediction_masks = nullptr);

 private:
  // Resolves every listed word's slot for the pass about to start.
  void resolve() {
    std::vector<std::uint32_t>& slots = scratch_.slots;
    slots.resize(list_.size);
    for (std::size_t k = 0; k < list_.size; ++k) slots[k] = mem_.slot_of(list_[k]);
  }

  // The port ops on listed word k.
  const LaneMask* read_at(std::size_t k) { return mem_.read_slot(scratch_.slots[k], list_[k]); }
  void write_at(std::size_t k, const LaneMask* data) {
    mem_.write_slot(scratch_.slots[k], list_[k], data);
  }

  // run_test on resolved slots, with an armed brake: `verdict` reports the
  // caller's current (monotone) detection state — for a transparent
  // session that is the exact stream comparison accumulated by the sink,
  // which the runner itself cannot see.  Sink is any type with
  // on_read(addr, const LaneMask*); the call inlines.
  template <typename Sink, typename VerdictFn>
  void run_test_braked(const MarchTest& test, const PackedOpMasks* masks, Sink& sink,
                       SessionBrake* brake, VerdictFn&& verdict) {
    // Every relative write follows a read of the same word earlier in its
    // element's op list, so by the time the write fires the "most recent
    // read of this word" is the one just performed at the current address:
    // the base estimate register is O(width), not an O(words x width)
    // shadow copy of the memory.
    const unsigned w = mem_.word_width();
    std::vector<LaneMask>& data = scratch_.data;
    std::vector<LaneMask>& cur = scratch_.cur;
    data.resize(w);
    cur.resize(w);
    std::size_t cur_k = static_cast<std::size_t>(-1);
    sweep_braked(
        test, masks,
        [&](std::size_t k, const Op& op, const LaneMask* mask) {
          if (op.is_read()) {
            const LaneMask* v = read_at(k);
            sink.on_read(list_[k], v);
            for (unsigned j = 0; j < w; ++j) cur[j] = v[j] ^ mask[j];
            cur_k = k;
            return;
          }
          if (op.data.relative) {
            if (cur_k != k)
              throw std::logic_error("run_test: transparent write before any read of word");
            for (unsigned j = 0; j < w; ++j) data[j] = cur[j] ^ mask[j];
            write_at(k, data.data());
          } else {
            // Absolute write: mask(w) == value(w, ·), lane-uniform.
            write_at(k, mask);
          }
        },
        brake, std::forward<VerdictFn>(verdict));
  }

  // Visits every (element, listed word, op) in march order, handing per_op
  // the word's position k in the list and the op's broadcast data mask.  An
  // optional SessionBrake counts elements entered, polls the settle
  // predicate after each address and drops settled lanes' faults at
  // element boundaries; `verdict` yields the caller's current monotone
  // detection state.
  template <typename PerOp, typename VerdictFn>
  void sweep_braked(const MarchTest& test, const PackedOpMasks* masks, PerOp&& per_op,
                    SessionBrake* brake, VerdictFn&& verdict) {
    PackedOpMasks own;
    if (!masks) {
      own = PackedOpMasks(test, mem_.word_width());
      masks = &own;
    }
    const std::size_t n = list_.size;
    for (std::size_t e = 0; e < test.elements.size(); ++e) {
      const MarchElement& elem = test.elements[e];
      if (brake) ++brake->elements_entered;
      if (elem.pause_before) mem_.elapse(1);
      if (elem.ops.empty() || n == 0) continue;
      const bool down = elem.order == AddrOrder::Down;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = down ? n - 1 - i : i;
        for (std::size_t o = 0; o < elem.ops.size(); ++o) per_op(k, elem.ops[o], masks->at(e, o));
        if (brake && brake->should_stop(verdict())) return;
      }
      if (brake) brake->on_element_end(verdict());
    }
  }

  PackedMemory& mem_;
  AddressList list_;
  PackedSessionScratch& scratch_;
};

inline PackedTransparentOutcome PackedMarchRunner::run_transparent_session(
    const MarchTest& test, const MarchTest& prediction, const MisrJumps& misr,
    SessionBrake* brake, bool want_misr, const PackedOpMasks* test_masks,
    const PackedOpMasks* prediction_masks) {
  const unsigned w = mem_.word_width();
  PackedOpMasks own_test, own_prediction;
  if (!test_masks) {
    own_test = PackedOpMasks(test, w);
    test_masks = &own_test;
  }
  if (!prediction_masks) {
    own_prediction = PackedOpMasks(prediction, w);
    prediction_masks = &own_prediction;
  }
  const std::size_t reads = test_masks->read_count();
  if (reads != prediction_masks->read_count())
    throw std::logic_error("run_transparent_session: prediction/test read counts differ");
  PackedSessionScratch& s = scratch_;
  resolve();

  // The prediction pass has no comparison, so the brake only counts its
  // elements; the settle predicate cannot fire before the test pass.
  if (brake) brake->elements_entered += prediction.elements.size();
  s.prediction.start(mem_, list_, s.slots.data(), prediction, *prediction_masks);

  if (want_misr) s.misr.reset(misr);
  packed_detail::SessionTestSink test_sink(w, s.prediction, want_misr ? &s.misr : nullptr,
                                           s.diff);
  run_test_braked(test, test_masks, test_sink, brake, [&] { return test_sink.stream_diff(); });

  PackedTransparentOutcome out;
  out.detected_exact = test_sink.stream_diff();
  if (want_misr) {
    test_sink.finish(reads * mem_.num_words());
    for (const LaneMask& b : s.misr.state()) out.detected_misr |= b;
  }
  return out;
}

}  // namespace twm

#endif  // TWM_BIST_PACKED_ENGINE_H
