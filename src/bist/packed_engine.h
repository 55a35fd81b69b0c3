// Lane-parallel march test execution over PackedMemoryT: the batched
// counterpart of bist/engine.h, evaluating one fault universe per lane of
// the Block it is templated over (64, 256 or 512 per pass; see
// memsim/lane_block.h).
//
// Execution styles mirror MarchRunner operation-for-operation:
//
//  * run_direct()     — nontransparent tests; returns the lane mask of
//                       lanes in which at least one Read mismatched its
//                       absolute expected value.
//  * run_test()       — transparent test pass; Write data is derived
//                       per lane from the most recent Read of the same word
//                       (base-estimate XOR operation mask).
//  * run_prediction() — read-only signature-prediction pass feeding
//                       read-value XOR operation-mask per lane.
//
// run_transparent_session() bundles both passes and reports, per lane, the
// exact stream comparison and the MISR signature comparison.  PackedMisrT
// runs one Galois MISR per lane at once by keeping each signature bit as a
// lane block; it reproduces Misr (bist/misr.h) exactly, including the input
// folding rule, so lane verdicts match the scalar engine's.
//
// Like the packed memory, the implementation is header-only so each SIMD
// width compiles in its own arch-flagged translation unit; the 64-lane
// aliases (PackedReadSink, PackedMisr, PackedMarchRunner) keep the PR 1
// spelling and are pinned in packed_engine.cpp.
#ifndef TWM_BIST_PACKED_ENGINE_H
#define TWM_BIST_PACKED_ENGINE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bist/address_gen.h"
#include "bist/misr.h"
#include "march/test.h"
#include "memsim/packed_memory.h"

namespace twm {

// Receives the lane blocks of every Read operation.  `value` spans the
// word width and is only valid for the duration of the call.
template <class Block>
class PackedReadSinkT {
 public:
  virtual ~PackedReadSinkT() = default;
  virtual void on_read(std::size_t addr, const Block* value) = 0;
};

// One Galois MISR per lane with the same feedback polynomial; signature bit
// i across all lanes is state()[i].
template <class Block>
class PackedMisrT {
 public:
  explicit PackedMisrT(unsigned width) : state_(width), taps_(Misr::default_taps(width)) {
    if (width == 0) throw std::invalid_argument("PackedMisr: zero width");
  }

  unsigned width() const { return static_cast<unsigned>(state_.size()); }

  // Folds one packed input word (input_width lane blocks) into all lane
  // signatures; replicates Misr::feed (shift, conditional feedback, XOR of
  // the width-folded input).
  void feed(const Block* input, unsigned input_width) {
    const unsigned w = width();
    step();
    // Fold the input into width-sized chunks (Misr::feed's rule, per lane).
    for (unsigned i = 0; i < input_width; ++i) state_[i % w] ^= input[i];
  }

  const std::vector<Block>& state() const { return state_; }

  // Lanes whose signature differs from `other`'s.
  Block diff(const PackedMisrT& other) const {
    if (width() != other.width())
      throw std::invalid_argument("PackedMisr::diff: width mismatch");
    Block m{};
    for (unsigned i = 0; i < width(); ++i) m |= state_[i] ^ other.state_[i];
    return m;
  }

 private:
  void step() {
    const unsigned w = width();
    const Block carry = state_[w - 1];  // lanes whose MSB shifts out
    for (unsigned i = w; i-- > 1;) state_[i] = state_[i - 1];
    state_[0] = Block{};
    for (unsigned t : taps_) state_[t] ^= carry;
  }

  std::vector<Block> state_;    // [bit] -> lane block
  std::vector<unsigned> taps_;  // set bits of the feedback pattern
};

template <class Block>
struct PackedTransparentOutcomeT {
  Block detected_exact{};  // prediction/test read streams differ
  Block detected_misr{};   // MISR signatures differ
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
template <class Block>
struct SessionBrakeT {
  Block target{};    // lanes whose verdicts the caller needs (fault lanes)
  Block already{};   // verdict contribution of earlier passes (e.g. SMarch)
  bool exit_enabled = false;
  PackedMemoryT<Block>* retire_from = nullptr;  // optional fault dropping
  Block retired{};                              // lanes already dropped
  std::uint64_t elements_entered = 0;           // march elements started

  // Every target lane's verdict is final -> abort the rest of the session.
  bool should_stop(const Block& verdict) const {
    if (!exit_enabled || !block_any(target)) return false;
    return ((verdict | already) & target) == target;
  }

  // Element boundary: drop the faults of lanes that settled since the last
  // boundary (only meaningful for monotone sessions, hence the exit gate).
  void on_element_end(const Block& verdict) {
    if (!exit_enabled || !retire_from) return;
    const Block settled = (verdict | already) & target & ~retired;
    if (!block_any(settled)) return;
    retired |= settled;
    retire_from->retire_lanes(retired);
  }
};

template <class Block>
class PackedMarchRunnerT {
 public:
  explicit PackedMarchRunnerT(PackedMemoryT<Block>& mem) : mem_(mem) {}

  // `brake`, when non-null, is polled after each address's ops: the sweep
  // aborts once every brake-target lane's mismatch bit is set (the verdict
  // is monotone — an abort returns exactly the final verdict of the target
  // lanes), and lanes that settle mid-march have their faults dropped from
  // the memory at element boundaries.
  Block run_direct(const MarchTest& test, SessionBrakeT<Block>* brake = nullptr) {
    const unsigned w = mem_.word_width();
    Block mismatch{};
    sweep_braked(
        test,
        [&](std::size_t addr, const Op& op, const Block* mask) {
          if (op.data.relative)
            throw std::invalid_argument(
                "run_direct: test contains transparent (relative) operations");
          // For absolute specs, mask(w) == value(w, ·): the expected read
          // value / the write data, broadcast over lanes.
          if (op.is_write()) {
            mem_.write(addr, mask);
            return;
          }
          const Block* actual = mem_.read(addr);
          for (unsigned j = 0; j < w; ++j) mismatch |= actual[j] ^ mask[j];
        },
        brake, [&] { return mismatch; });
    return mismatch;
  }

  void run_test(const MarchTest& test, PackedReadSinkT<Block>& sink) {
    run_test_braked(test, sink, nullptr, [] { return Block{}; });
  }

  // run_test with an armed brake: `verdict` reports the caller's current
  // (monotone) detection state — here that is the exact stream comparison
  // accumulated by the sink, which the runner itself cannot see.
  template <typename VerdictFn>
  void run_test_braked(const MarchTest& test, PackedReadSinkT<Block>& sink,
                       SessionBrakeT<Block>* brake, VerdictFn&& verdict) {
    const unsigned w = mem_.word_width();
    std::vector<Block> data(w);

    if (history_free_relative(test)) {
      // Every relative write is preceded by a read of the same word earlier
      // in its element's op list, so by the time the write fires the "most
      // recent read of this word" is the one just performed at the current
      // address: the base estimate register shrinks to O(width) instead of
      // an O(words x width) shadow copy of the memory.
      std::vector<Block> cur(w);
      std::size_t cur_addr = static_cast<std::size_t>(-1);
      sweep_braked(
          test,
          [&](std::size_t addr, const Op& op, const Block* mask) {
            if (op.is_read()) {
              const Block* v = mem_.read(addr);
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
      return;
    }

    // General fallback for tests whose relative writes consume a read from
    // an earlier element: the full per-lane base estimate of each word's
    // initial content (the transparent BIST's word register, one copy per
    // universe).
    std::vector<Block> base(mem_.num_words() * w);
    std::vector<bool> valid(mem_.num_words(), false);

    sweep_braked(
        test,
        [&](std::size_t addr, const Op& op, const Block* mask) {
          Block* b = &base[addr * w];
          if (op.is_read()) {
            const Block* v = mem_.read(addr);
            sink.on_read(addr, v);
            for (unsigned j = 0; j < w; ++j) b[j] = v[j] ^ mask[j];
            valid[addr] = true;
            return;
          }
          if (op.data.relative) {
            if (!valid[addr])
              throw std::logic_error("run_test: transparent write before any read of word");
            for (unsigned j = 0; j < w; ++j) data[j] = b[j] ^ mask[j];
            mem_.write(addr, data.data());
          } else {
            // Absolute write: mask(w) == value(w, ·), lane-uniform.
            mem_.write(addr, mask);
          }
        },
        brake, std::forward<VerdictFn>(verdict));
  }

  void run_prediction(const MarchTest& prediction, PackedReadSinkT<Block>& sink) {
    const unsigned w = mem_.word_width();
    std::vector<Block> predicted(w);
    sweep(prediction, [&](std::size_t addr, const Op& op, const Block* mask) {
      if (op.is_write())
        throw std::invalid_argument("run_prediction: prediction test must be read-only");
      const Block* raw = mem_.read(addr);
      for (unsigned j = 0; j < w; ++j) predicted[j] = raw[j] ^ mask[j];
      sink.on_read(addr, predicted.data());
    });
  }

  // `want_exact` / `want_misr` select which verdicts the caller will
  // consume; the unused checker's work (stream recording + comparison, or
  // the per-read MISR folds) is skipped and its outcome member is
  // meaningless.  A brake may only arm exit_enabled when want_misr is
  // false (the exact stream comparison is monotone; MISR signatures are
  // not final until the session ends).
  PackedTransparentOutcomeT<Block> run_transparent_session(const MarchTest& test,
                                                           const MarchTest& prediction,
                                                           unsigned misr_width,
                                                           SessionBrakeT<Block>* brake = nullptr,
                                                           bool want_exact = true,
                                                           bool want_misr = true);

 private:
  // True when every relative write is preceded by a read somewhere earlier
  // in the SAME element's op list — the transparent-march normal form.  The
  // ops of one element run back-to-back at each address, so the read that
  // precedes the write in the op list is also the most recent read of that
  // word, and the per-word base history is unnecessary.
  static bool history_free_relative(const MarchTest& test) {
    for (const MarchElement& e : test.elements) {
      bool read_seen = false;
      for (const Op& op : e.ops) {
        if (op.is_read())
          read_seen = true;
        else if (op.data.relative && !read_seen)
          return false;
      }
    }
    return true;
  }

  // A pass that runs to completion regardless of the brake (the prediction
  // pass) still reports its march elements to the progress counters.
  static void sweep_count_only(const MarchTest& test, SessionBrakeT<Block>* brake) {
    if (brake) brake->elements_entered += test.elements.size();
  }

  // Per-op broadcast masks of a test, flattened as [element][op].
  static std::vector<std::vector<std::vector<Block>>> op_masks(const MarchTest& test,
                                                               unsigned w) {
    std::vector<std::vector<std::vector<Block>>> masks(test.elements.size());
    for (std::size_t e = 0; e < test.elements.size(); ++e) {
      masks[e].reserve(test.elements[e].ops.size());
      for (const Op& op : test.elements[e].ops)
        masks[e].push_back(broadcast_block<Block>(op.data.mask(w)));
    }
    return masks;
  }

  // Visits every (element, op, address) in march order, precomputing the
  // broadcast data mask of each op once per element.
  template <typename PerOp>
  void sweep(const MarchTest& test, PerOp&& per_op) {
    sweep_braked(test, std::forward<PerOp>(per_op), nullptr, [] { return Block{}; });
  }

  // sweep with an optional SessionBrake: counts elements entered, polls the
  // settle predicate after each address, drops settled lanes' faults at
  // element boundaries.  `verdict` yields the caller's current monotone
  // detection state.
  template <typename PerOp, typename VerdictFn>
  void sweep_braked(const MarchTest& test, PerOp&& per_op, SessionBrakeT<Block>* brake,
                    VerdictFn&& verdict) {
    const unsigned w = mem_.word_width();
    const auto masks = op_masks(test, w);
    for (std::size_t e = 0; e < test.elements.size(); ++e) {
      const MarchElement& elem = test.elements[e];
      if (brake) ++brake->elements_entered;
      if (elem.pause_before) mem_.elapse(1);
      if (elem.ops.empty()) continue;
      // Software-pipelined address loop: the generator runs one address
      // ahead of the ops, and the NEXT address's cell span is prefetched
      // while the CURRENT address's ops execute — with tile-sized lane
      // blocks (memsim/lane_tile.h) each span is KiBs, so starting the
      // stream an op early hides most of its memory latency.
      AddressGen gen(elem.order, mem_.num_words());
      std::size_t addr = gen.current();
      for (;;) {
        gen.advance();
        const bool last = gen.done();
        if (!last) mem_.prefetch(gen.current());
        for (std::size_t i = 0; i < elem.ops.size(); ++i)
          per_op(addr, elem.ops[i], masks[e][i].data());
        if (brake && brake->should_stop(verdict())) return;
        if (last) break;
        addr = gen.current();
      }
      if (brake) brake->on_element_end(verdict());
    }
  }

  PackedMemoryT<Block>& mem_;
};

namespace packed_detail {

// Records the packed read stream, compressed.  Reads of unfaulted words are
// lane-uniform (every lane holds the golden value), so the common case
// stores one bit per bit-plane; only reads whose lanes diverge — a bounded
// set, proportional to the fault footprint, not the geometry — keep their
// full lane blocks in a position-sorted side table.  This turns the
// prediction stream of a W-word march from O(W x width x sizeof(Block))
// into O(W x width / 8) bytes plus the divergent tail.
template <class Block>
class StreamRecorder final : public PackedReadSinkT<Block> {
 public:
  explicit StreamRecorder(unsigned width) : width_(width), scratch_(width) {}
  void reserve_reads(std::size_t reads) { bits_.reserve((reads * width_ + 63) / 64); }

  void on_read(std::size_t, const Block* value) override {
    bool divergent = false;
    for (unsigned j = 0; j < width_ && !divergent; ++j)
      divergent = block_any(value[j]) && block_any(~value[j]);
    const std::size_t base = count_ * width_;
    bits_.resize((base + width_ + 63) / 64, 0);
    if (divergent) {
      divergent_.push_back({count_, blocks_.size()});
      blocks_.insert(blocks_.end(), value, value + width_);
    } else {
      for (unsigned j = 0; j < width_; ++j)
        if (block_any(value[j]))
          bits_[(base + j) >> 6] |= std::uint64_t{1} << ((base + j) & 63);
    }
    ++count_;
  }

  std::size_t reads() const { return count_; }

  // The returned pointer is valid until the next at() call.
  const Block* at(std::size_t i) const {
    const auto it = std::lower_bound(
        divergent_.begin(), divergent_.end(), i,
        [](const Entry& e, std::size_t pos) { return e.pos < pos; });
    if (it != divergent_.end() && it->pos == i) return &blocks_[it->offset];
    const std::size_t base = i * width_;
    for (unsigned j = 0; j < width_; ++j)
      scratch_[j] = ((bits_[(base + j) >> 6] >> ((base + j) & 63)) & 1u)
                        ? block_ones<Block>()
                        : Block{};
    return scratch_.data();
  }

 private:
  struct Entry {
    std::size_t pos;     // read index in the stream
    std::size_t offset;  // into blocks_ (width_ lane blocks per entry)
  };

  unsigned width_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> bits_;  // [pos * width + j] -> uniform lane bit
  std::vector<Entry> divergent_;     // appended in stream order => sorted
  std::vector<Block> blocks_;
  mutable std::vector<Block> scratch_;
};

// Feeds reads into a packed MISR and/or diffs them against a recorded
// prediction stream position-by-position; either checker may be absent
// (nullptr) when its verdict is not wanted.
template <class Block>
class SessionTestSink final : public PackedReadSinkT<Block> {
 public:
  SessionTestSink(unsigned width, const StreamRecorder<Block>* prediction,
                  PackedMisrT<Block>* misr)
      : width_(width), prediction_(prediction), misr_(misr) {}

  void on_read(std::size_t, const Block* value) override {
    if (misr_) misr_->feed(value, width_);
    if (prediction_ && pos_ < prediction_->reads()) {
      const Block* p = prediction_->at(pos_);
      for (unsigned j = 0; j < width_; ++j) stream_diff_ |= value[j] ^ p[j];
    }
    ++pos_;
  }

  std::size_t reads() const { return pos_; }
  Block stream_diff() const { return stream_diff_; }

 private:
  unsigned width_;
  const StreamRecorder<Block>* prediction_;
  PackedMisrT<Block>* misr_;
  std::size_t pos_ = 0;
  Block stream_diff_{};
};

// Feeds reads into a packed MISR and optionally records them (the
// recorder is skipped when the exact comparison is not wanted).
template <class Block>
class MisrFeedSink final : public PackedReadSinkT<Block> {
 public:
  MisrFeedSink(unsigned width, PackedMisrT<Block>& misr, StreamRecorder<Block>* rec)
      : width_(width), misr_(misr), rec_(rec) {}
  void on_read(std::size_t addr, const Block* value) override {
    misr_.feed(value, width_);
    if (rec_) rec_->on_read(addr, value);
  }

 private:
  unsigned width_;
  PackedMisrT<Block>& misr_;
  StreamRecorder<Block>* rec_;
};

}  // namespace packed_detail

template <class Block>
PackedTransparentOutcomeT<Block> PackedMarchRunnerT<Block>::run_transparent_session(
    const MarchTest& test, const MarchTest& prediction, unsigned misr_width,
    SessionBrakeT<Block>* brake, bool want_exact, bool want_misr) {
  const unsigned w = mem_.word_width();
  PackedTransparentOutcomeT<Block> out;

  packed_detail::StreamRecorder<Block> pred_stream(w);
  // The prediction is read-only, so its exact read count is known up front;
  // reserving avoids reallocating the (lanes x width)-sized stream as it
  // grows.
  if (want_exact) pred_stream.reserve_reads(prediction.op_count() * mem_.num_words());
  PackedMisrT<Block> pred_misr(want_misr ? misr_width : 1);
  if (want_misr) {
    packed_detail::MisrFeedSink<Block> pred_sink(w, pred_misr,
                                                 want_exact ? &pred_stream : nullptr);
    // The prediction pass has no comparison yet, so the brake only counts
    // its elements; the settle predicate cannot fire before the test pass.
    sweep_count_only(prediction, brake);
    run_prediction(prediction, pred_sink);
  } else {
    sweep_count_only(prediction, brake);
    run_prediction(prediction, pred_stream);
  }

  PackedMisrT<Block> test_misr(want_misr ? misr_width : 1);
  packed_detail::SessionTestSink<Block> test_sink(w, want_exact ? &pred_stream : nullptr,
                                                  want_misr ? &test_misr : nullptr);
  run_test_braked(test, test_sink, brake, [&] { return test_sink.stream_diff(); });

  out.detected_exact = test_sink.stream_diff();
  // A read-count mismatch makes the scalar stream comparison fail outright,
  // in every lane — unless the brake aborted the test pass, in which case
  // every target lane's bit is already (finally) set and the short count is
  // expected.
  const bool aborted = brake && brake->should_stop(test_sink.stream_diff());
  if (want_exact && !aborted && test_sink.reads() != pred_stream.reads())
    out.detected_exact = block_ones<Block>();
  if (want_misr) out.detected_misr = pred_misr.diff(test_misr);
  return out;
}

// The PR 1 64-lane spellings.
using PackedReadSink = PackedReadSinkT<std::uint64_t>;
using PackedMisr = PackedMisrT<std::uint64_t>;
using PackedTransparentOutcome = PackedTransparentOutcomeT<std::uint64_t>;
using PackedMarchRunner = PackedMarchRunnerT<std::uint64_t>;

extern template class PackedMisrT<std::uint64_t>;
extern template class PackedMarchRunnerT<std::uint64_t>;

}  // namespace twm

#endif  // TWM_BIST_PACKED_ENGINE_H
