#include "bist/engine.h"

#include <stdexcept>

#include "bist/address_gen.h"

namespace twm {

// Visits every (element, op, address) in march order and calls
// per_op(element_index, op_index, addr, op).
template <typename PerOp>
void MarchRunner::sweep(const MarchTest& test, PerOp&& per_op) {
  for (std::size_t e = 0; e < test.elements.size(); ++e) {
    const MarchElement& elem = test.elements[e];
    if (elem.pause_before) mem_.elapse(1);
    if (elem.ops.empty()) continue;
    for (AddressGen gen(elem.order, mem_.num_words()); !gen.done(); gen.advance()) {
      const std::size_t addr = gen.current();
      for (std::size_t i = 0; i < elem.ops.size(); ++i) per_op(e, i, addr, elem.ops[i]);
    }
  }
}

DirectRunResult MarchRunner::run_direct(const MarchTest& test) {
  const unsigned w = mem_.word_width();
  const BitVec zero = BitVec::zeros(w);
  DirectRunResult res;
  sweep(test, [&](std::size_t e, std::size_t i, std::size_t addr, const Op& op) {
    if (op.data.relative)
      throw std::invalid_argument("run_direct: test contains transparent (relative) operations");
    if (op.is_write()) {
      const BitVec data = op.data.value(w, zero);
      mem_.write(addr, data);
      if (observer_) observer_->on_op(e, i, addr, op, data);
      return;
    }
    const BitVec actual = mem_.read(addr);
    const BitVec expected = op.data.value(w, zero);
    if (actual != expected) {
      ++res.mismatch_count;
      if (!res.mismatch) {
        res.mismatch = true;
        res.fail_element = e;
        res.fail_op = i;
        res.fail_addr = addr;
        res.expected = expected;
        res.actual = actual;
      }
    }
    if (observer_) observer_->on_op(e, i, addr, op, actual);
  });
  return res;
}

void MarchRunner::run_test(const MarchTest& test, ReadSink& sink) {
  const unsigned w = mem_.word_width();
  // Base estimate of each word's initial content, derived from reads; a
  // transparent BIST keeps (the equivalent of) this in its word register.
  std::vector<BitVec> base(mem_.num_words(), BitVec::zeros(w));
  std::vector<bool> valid(mem_.num_words(), false);

  sweep(test, [&](std::size_t e, std::size_t i, std::size_t addr, const Op& op) {
    const BitVec mask = op.data.mask(w);
    if (op.is_read()) {
      const BitVec v = mem_.read(addr);
      sink.on_read(addr, v);
      base[addr] = v ^ mask;
      valid[addr] = true;
      if (observer_) observer_->on_op(e, i, addr, op, v);
      return;
    }
    BitVec data;
    if (op.data.relative) {
      if (!valid[addr])
        throw std::logic_error("run_test: transparent write before any read of word");
      data = base[addr] ^ mask;
    } else {
      data = op.data.value(w, base[addr]);
    }
    mem_.write(addr, data);
    if (observer_) observer_->on_op(e, i, addr, op, data);
  });
}

void MarchRunner::run_prediction(const MarchTest& prediction, ReadSink& sink) {
  const unsigned w = mem_.word_width();
  sweep(prediction, [&](std::size_t e, std::size_t i, std::size_t addr, const Op& op) {
    if (op.is_write())
      throw std::invalid_argument("run_prediction: prediction test must be read-only");
    const BitVec raw = mem_.read(addr);
    const BitVec predicted = raw ^ op.data.mask(w);
    sink.on_read(addr, predicted);
    if (observer_) observer_->on_op(e, i, addr, op, predicted);
  });
}

namespace {

// Diffs the test pass against a recorded prediction stream position by
// position, without storing a second stream — the scalar counterpart of the
// packed engine's SessionTestSink.
class CompareSink final : public ReadSink {
 public:
  explicit CompareSink(const std::vector<BitVec>& prediction) : prediction_(prediction) {}

  void on_read(std::size_t, const BitVec& value) override {
    if (pos_ < prediction_.size() && value != prediction_[pos_]) diff_ = true;
    ++pos_;
  }

  // Streams differ when any position mismatched or the lengths disagree.
  bool stream_diff() const { return diff_ || pos_ != prediction_.size(); }

 private:
  const std::vector<BitVec>& prediction_;
  std::size_t pos_ = 0;
  bool diff_ = false;
};

}  // namespace

TransparentOutcome MarchRunner::run_transparent_session(const MarchTest& test,
                                                        const MarchTest& prediction,
                                                        unsigned misr_width) {
  return run_transparent_session(test, prediction, misr_width, Misr::default_taps(misr_width));
}

TransparentOutcome MarchRunner::run_transparent_session(const MarchTest& test,
                                                        const MarchTest& prediction,
                                                        unsigned misr_width,
                                                        const std::vector<unsigned>& taps) {
  TransparentOutcome out;

  StreamRecorder pred_stream;
  MisrSink pred_misr(misr_width, taps);
  TeeSink pred_tee({&pred_stream, &pred_misr});
  run_prediction(prediction, pred_tee);

  CompareSink test_stream(pred_stream.stream());
  MisrSink test_misr(misr_width, taps);
  TeeSink test_tee({&test_stream, &test_misr});
  run_test(test, test_tee);

  out.signature_predicted = pred_misr.signature();
  out.signature_observed = test_misr.signature();
  out.detected_exact = test_stream.stream_diff();
  out.detected_misr = out.signature_predicted != out.signature_observed;
  return out;
}

}  // namespace twm
