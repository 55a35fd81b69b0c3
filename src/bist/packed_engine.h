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
//  * run_prediction() — read-only signature-prediction pass feeding
//                       read-value XOR operation-mask per lane.
//
// Every pass walks the runner's AddressList (bist/address_gen.h) in
// element order instead of [0, words): the whole memory, or — in a
// campaign unit, whose golden certificate (analysis/campaign_exec.h) is
// the precondition — only the unit's fault footprint.  A word outside
// every injected fault's footprint holds golden data in every lane for the
// whole session, so its reads contribute in lane k exactly what they
// contribute in golden lane 0, which the certificate proved to be nothing
// (exact and direct compare) or a known constant (XOR and MISR compaction,
// both linear).
//
// run_transparent_session() bundles both passes and reports, per lane, the
// exact stream comparison and the MISR comparison.  The exact compare
// aligns reads by (element, listed address, read), which is valid because
// the prediction is the test with its writes dropped: make_scheme_plan
// asserts the two run every element in the same address order with the
// same read count.  The MISR comparison compacts the positional
// difference stream pred ^ test into one zero-initialised register; by
// linearity that equals the difference of the two signatures the scalar
// engine computes.  Zero differences — every unlisted read, and most
// listed ones — are never fed: the register jumps over each run of them
// with the companion-matrix powers of MisrJumps (bist/misr.h).
//
// The prediction pass is recorded as a flat stream, `width` lane masks per
// read: a campaign walk covers only the unit's fault footprint, so the
// stream is bounded by the footprint's reads.
//
// A sweep reads each op's broadcast data mask from a PackedOpMasks.  Callers
// that run the same test many times (the campaign scheduler, through
// PlanOpMasks in core/scheme_session.h) compile it once and pass it in;
// without one, each pass compiles its own.  Likewise every buffer a
// session needs — the prediction stream, the difference word, the MISR,
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

// Receives the lane masks of every Read operation.  `value` spans the
// word width and is only valid for the duration of the call.
class PackedReadSink {
 public:
  virtual ~PackedReadSink() = default;
  virtual void on_read(std::size_t addr, const LaneMask* value) = 0;
};

// One Galois MISR per lane with the same feedback polynomial; signature bit
// i across all lanes is state()[i].
class PackedMisr {
 public:
  PackedMisr() = default;  // no register until reset()
  explicit PackedMisr(unsigned width) { reset(width); }

  // Zeroes every lane's signature at `width` bits.  The feedback taps are
  // recomputed only when the width changes, so a reused register (a
  // session scratch's) allocates nothing.
  void reset(unsigned width) {
    if (width == 0) throw std::invalid_argument("PackedMisr: zero width");
    if (width != this->width()) taps_ = Misr::default_taps(width);
    state_.assign(width, LaneMask{});
  }

  unsigned width() const { return static_cast<unsigned>(state_.size()); }

  // Folds one packed input word (input_width lane masks) into all lane
  // signatures; replicates Misr::feed (shift, conditional feedback, XOR of
  // the width-folded input).
  void feed(const LaneMask* input, unsigned input_width) {
    const unsigned w = width();
    step();
    // Fold the input into width-sized chunks (Misr::feed's rule, per lane).
    for (unsigned i = 0; i < input_width; ++i) state_[i % w] ^= input[i];
  }

  // Advances every lane's signature by `zeros` zero-input feeds: one
  // matrix application per set bit of `zeros`, none while the state is
  // still zero (A^k * 0 = 0).
  void skip(const MisrJumps& jumps, std::uint64_t zeros) {
    if (zeros == 0 || !nonzero()) return;
    if (jumps.width != width()) throw std::invalid_argument("PackedMisr::skip: width mismatch");
    const unsigned w = width();
    scratch_.resize(w);
    for (unsigned i = 0; zeros; ++i, zeros >>= 1) {
      if (!(zeros & 1u)) continue;
      for (unsigned r = 0; r < w; ++r) {
        const std::uint64_t* row = jumps.row(i, r);
        LaneMask b{};
        for (std::size_t l = 0; l < jumps.limbs; ++l)
          for (std::uint64_t bits = row[l]; bits; bits &= bits - 1)
            b ^= state_[l * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        scratch_[r] = b;
      }
      state_.swap(scratch_);
    }
  }

  bool nonzero() const {
    for (const LaneMask& b : state_)
      if (b != 0) return true;
    return false;
  }

  const std::vector<LaneMask>& state() const { return state_; }

 private:
  void step() {
    const unsigned w = width();
    const LaneMask carry = state_[w - 1];  // lanes whose MSB shifts out
    for (unsigned i = w; i-- > 1;) state_[i] = state_[i - 1];
    state_[0] = LaneMask{};
    for (unsigned t : taps_) state_[t] ^= carry;
  }

  std::vector<LaneMask> state_;    // [bit] -> lane mask
  std::vector<unsigned> taps_;     // set bits of the feedback pattern
  std::vector<LaneMask> scratch_;  // skip() double buffer
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
//     memory's index buckets (retire_lanes, at element boundaries), so the
//     write path stops paying for universes whose verdict is already known.
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
// expected read value; for relative ones it is the operation mask.
class PackedOpMasks {
 public:
  PackedOpMasks() = default;
  PackedOpMasks(const MarchTest& test, unsigned width) : width_(width) {
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

 private:
  unsigned width_ = 0;
  std::vector<std::size_t> first_;  // [element] -> index of its first op
  std::vector<LaneMask> masks_;     // [op * width + bit]
};

namespace packed_detail {

// Records a session's prediction read stream as flat lane masks, `width`
// per read.  A campaign unit walks only its fault footprint, so the stream
// is bounded by the footprint's reads; a session scratch reuses one
// recorder unit after unit, and start() keeps its capacity.
class StreamRecorder final : public PackedReadSink {
 public:
  // Drops the previous stream; `reads` is the length the caller expects.
  void start(unsigned width, std::size_t reads) {
    width_ = width;
    lanes_.clear();
    lanes_.reserve(reads * width);
  }

  void on_read(std::size_t, const LaneMask* value) override {
    lanes_.insert(lanes_.end(), value, value + width_);
  }

  // Read i of the stream: `width` lane masks.
  const LaneMask* at(std::size_t i) const { return &lanes_[i * width_]; }

 private:
  unsigned width_ = 0;
  std::vector<LaneMask> lanes_;  // [read * width + bit]
};

// Position, in the read stream a walk over EVERY word would produce, of
// each read a walk over `list` performs: element e's reads start at
// sum(reads(e') * words, e' < e), and a listed address contributes its
// reads at its rank in the element's order.  The gaps between consecutive
// positions are the unlisted reads the listed walk skipped.  `reads`
// is caller-owned storage for the per-element read counts.
class FullStreamCursor {
 public:
  FullStreamCursor(const MarchTest& test, AddressList list, std::size_t words,
                   std::vector<std::size_t>& reads)
      : test_(test), list_(list), words_(words), reads_(reads) {
    reads_.clear();
    for (const MarchElement& e : test.elements) reads_.push_back(e.read_count());
  }

  std::uint64_t next() {
    while (r_ == 0 && (reads_[e_] == 0 || k_ == list_.size)) {
      base_ += static_cast<std::uint64_t>(reads_[e_]) * words_;
      ++e_;
      k_ = 0;
    }
    const AddrOrder order = test_.elements[e_].order;
    const std::size_t addr = list_.visit(order, k_);
    const std::size_t rank = order == AddrOrder::Down ? words_ - 1 - addr : addr;
    const std::uint64_t pos = base_ + static_cast<std::uint64_t>(rank) * reads_[e_] + r_;
    if (++r_ == reads_[e_]) {
      r_ = 0;
      ++k_;
    }
    return pos;
  }

 private:
  const MarchTest& test_;
  AddressList list_;
  std::size_t words_;
  std::vector<std::size_t>& reads_;  // [element] -> reads per address
  std::size_t e_ = 0, k_ = 0, r_ = 0;
  std::uint64_t base_ = 0;
};

// The test-pass sink of a transparent session: diffs every read against
// the recorded prediction read at the same stream position.  The exact
// comparison ORs the difference into one verdict; the MISR comparison
// feeds the difference stream, placed at its full-walk position, into a
// zero-initialised MISR that jumps over every run of zero differences.
// The two streams have equal length (run_transparent_session checks it).
// `diff` is caller-owned storage for one difference word.
class SessionTestSink final : public PackedReadSink {
 public:
  SessionTestSink(unsigned width, const StreamRecorder& prediction, PackedMisr* misr,
                  const MisrJumps* jumps, FullStreamCursor* cursor, std::vector<LaneMask>& diff)
      : width_(width),
        prediction_(prediction),
        misr_(misr),
        jumps_(jumps),
        cursor_(cursor),
        diff_(diff) {
    diff_.resize(width);
  }

  void on_read(std::size_t, const LaneMask* value) override {
    const LaneMask* p = prediction_.at(pos_);
    for (unsigned j = 0; j < width_; ++j) {
      diff_[j] = value[j] ^ p[j];
      stream_diff_ |= diff_[j];
    }
    if (misr_) feed_at(cursor_->next(), diff_.data());
    ++pos_;
  }

  // Advances the MISR over the trailing zero differences of a
  // `total`-read stream.
  void finish(std::uint64_t total) {
    if (misr_) misr_->skip(*jumps_, total - next_);
  }

  LaneMask stream_diff() const { return stream_diff_; }

 private:
  void feed_at(std::uint64_t at, const LaneMask* diff) {
    bool any = false;
    for (unsigned j = 0; j < width_ && !any; ++j) any = diff[j] != 0;
    if (!any) return;  // a zero input: covered by the next skip
    misr_->skip(*jumps_, at - next_);
    misr_->feed(diff, width_);
    next_ = at + 1;
  }

  unsigned width_;
  const StreamRecorder& prediction_;
  PackedMisr* misr_;
  const MisrJumps* jumps_;
  FullStreamCursor* cursor_;
  std::vector<LaneMask>& diff_;
  std::size_t pos_ = 0;
  std::uint64_t next_ = 0;  // stream position the MISR has consumed up to
  LaneMask stream_diff_{};
};

}  // namespace packed_detail

// The buffers a packed session needs, kept across sessions so that a
// campaign worker's units allocate nothing once the buffers have grown to
// the largest unit: the passes' one-word registers, the prediction stream,
// the test sink's difference word, the full-stream cursor's read counts
// and the difference MISR.  Each pass resets what it uses before it
// starts, so a scratch carries capacity from one session to the next,
// never state.  A campaign worker owns one (inside SessionScratch,
// core/scheme_session.h); other callers build a local one.
struct PackedSessionScratch {
  std::vector<LaneMask> data, cur, word;      // one-word pass registers
  packed_detail::StreamRecorder prediction;   // the prediction read stream
  std::vector<LaneMask> diff;                 // test read ^ predicted read
  std::vector<std::size_t> element_reads;     // [element] -> reads per address
  PackedMisr misr;                            // compacts the difference stream
};

class PackedMarchRunner {
 public:
  // Walks the words in `list` (ascending, within the memory) with the
  // buffers of `scratch`; both must outlive the runner, and the scratch
  // serves one runner at a time.
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
    sweep_braked(
        test, masks,
        [&](std::size_t addr, std::size_t, const Op& op, const LaneMask* mask) {
          if (op.data.relative)
            throw std::invalid_argument(
                "run_direct: test contains transparent (relative) operations");
          // For absolute specs, mask(w) == value(w, ·): the expected read
          // value / the write data, broadcast over lanes.
          if (op.is_write()) {
            mem_.write(addr, mask);
            return;
          }
          const LaneMask* actual = mem_.read(addr);
          for (unsigned j = 0; j < w; ++j) mismatch |= actual[j] ^ mask[j];
        },
        brake, [&] { return mismatch; });
    return mismatch;
  }

  template <typename Sink>
  void run_test(const MarchTest& test, Sink& sink, const PackedOpMasks* masks = nullptr) {
    run_test_braked(test, masks, sink, nullptr, [] { return LaneMask{}; });
  }

  // run_test with an armed brake: `verdict` reports the caller's current
  // (monotone) detection state — here that is the exact stream comparison
  // accumulated by the sink, which the runner itself cannot see.  A final
  // Sink type lets the compiler inline its on_read.
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
    std::size_t cur_addr = static_cast<std::size_t>(-1);
    sweep_braked(
        test, masks,
        [&](std::size_t addr, std::size_t, const Op& op, const LaneMask* mask) {
          if (op.is_read()) {
            const LaneMask* v = mem_.read(addr);
            sink.on_read(addr, v);
            for (unsigned j = 0; j < w; ++j) cur[j] = v[j] ^ mask[j];
            cur_addr = addr;
            return;
          }
          if (op.data.relative) {
            if (cur_addr != addr)
              throw std::logic_error("run_test: transparent write before any read of word");
            for (unsigned j = 0; j < w; ++j) data[j] = cur[j] ^ mask[j];
            mem_.write(addr, data.data());
          } else {
            // Absolute write: mask(w) == value(w, ·), lane-uniform.
            mem_.write(addr, mask);
          }
        },
        brake, std::forward<VerdictFn>(verdict));
  }

  template <typename Sink>
  void run_prediction(const MarchTest& prediction, Sink& sink,
                      const PackedOpMasks* masks = nullptr) {
    const unsigned w = mem_.word_width();
    std::vector<LaneMask>& predicted = scratch_.word;
    predicted.resize(w);
    sweep(prediction, masks,
          [&](std::size_t addr, std::size_t, const Op& op, const LaneMask* mask) {
            if (op.is_write())
              throw std::invalid_argument("run_prediction: prediction test must be read-only");
            const LaneMask* raw = mem_.read(addr);
            for (unsigned j = 0; j < w; ++j) predicted[j] = raw[j] ^ mask[j];
            sink.on_read(addr, predicted.data());
          });
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
  // A pass that runs to completion regardless of the brake (the prediction
  // pass) still reports its march elements to the progress counters.
  static void sweep_count_only(const MarchTest& test, SessionBrake* brake) {
    if (brake) brake->elements_entered += test.elements.size();
  }

  // Visits every (element, listed address, op) in march order, handing
  // per_op the address, its slot in the list and the op's broadcast data
  // mask.
  template <typename PerOp>
  void sweep(const MarchTest& test, const PackedOpMasks* masks, PerOp&& per_op) {
    sweep_braked(test, masks, std::forward<PerOp>(per_op), nullptr, [] { return LaneMask{}; });
  }

  // sweep with an optional SessionBrake: counts elements entered, polls the
  // settle predicate after each address, drops settled lanes' faults at
  // element boundaries.  `verdict` yields the caller's current monotone
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
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t slot = down ? n - 1 - k : k;
        const std::size_t addr = list_[slot];
        for (std::size_t i = 0; i < elem.ops.size(); ++i)
          per_op(addr, slot, elem.ops[i], masks->at(e, i));
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
  if (test.read_count() != prediction.read_count())
    throw std::logic_error("run_transparent_session: prediction/test read counts differ");
  const unsigned w = mem_.word_width();
  PackedSessionScratch& s = scratch_;
  PackedTransparentOutcome out;

  // The prediction is read-only, so its exact read count is known up front.
  s.prediction.start(w, prediction.op_count() * list_.size);
  // The prediction pass has no comparison yet, so the brake only counts
  // its elements; the settle predicate cannot fire before the test pass.
  sweep_count_only(prediction, brake);
  run_prediction(prediction, s.prediction, prediction_masks);

  if (want_misr) s.misr.reset(misr.width);
  packed_detail::FullStreamCursor cursor(test, list_, mem_.num_words(), s.element_reads);
  packed_detail::SessionTestSink test_sink(w, s.prediction, want_misr ? &s.misr : nullptr,
                                           &misr, &cursor, s.diff);
  run_test_braked(test, test_masks, test_sink, brake, [&] { return test_sink.stream_diff(); });

  out.detected_exact = test_sink.stream_diff();
  if (want_misr) {
    test_sink.finish(test.read_count() * mem_.num_words());
    out.detected_misr = LaneMask{};
    for (const LaneMask& b : s.misr.state()) out.detected_misr |= b;
  }
  return out;
}

}  // namespace twm

#endif  // TWM_BIST_PACKED_ENGINE_H
