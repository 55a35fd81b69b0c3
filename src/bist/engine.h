// March test execution engine.
//
// Three execution styles:
//
//  * run_direct()     — nontransparent tests: every Read is compared against
//                       its absolute expected value; Writes store absolute
//                       data.  Returns the comparison outcome (with first-
//                       failure diagnosis info).
//  * run_test()       — transparent test pass: Reads feed the *raw* read
//                       value to a ReadSink; Write data is derived from the
//                       most recent read of the same word, exactly as a
//                       transparent BIST datapath does (write data =
//                       base-estimate XOR operation mask, where the base
//                       estimate is updated to read-value XOR read-mask at
//                       every Read).  No stored golden data is consulted.
//  * run_prediction() — signature-prediction pass: the test's Read-only
//                       skeleton is executed on the unmodified memory; each
//                       Read feeds read-value XOR operation-mask, which in a
//                       fault-free memory equals the value the test pass
//                       will later read at the corresponding operation.
//
// run_transparent_session() bundles prediction pass + test pass and reports
// both the exact stream comparison (no aliasing) and the MISR comparison
// (realistic hardware, 2^-W aliasing).
#ifndef TWM_BIST_ENGINE_H
#define TWM_BIST_ENGINE_H

#include <cstdint>
#include <vector>

#include "bist/misr.h"
#include "march/test.h"
#include "memsim/memory.h"

namespace twm {

// Receives the value of every Read operation (after any transparency
// correction appropriate to the pass).
class ReadSink {
 public:
  virtual ~ReadSink() = default;
  virtual void on_read(std::size_t addr, const BitVec& value) = 0;
};

// Records the full read stream for exact (aliasing-free) comparison.
class StreamRecorder final : public ReadSink {
 public:
  void on_read(std::size_t, const BitVec& value) override { stream_.push_back(value); }
  const std::vector<BitVec>& stream() const { return stream_; }
  bool operator==(const StreamRecorder& o) const { return stream_ == o.stream_; }

 private:
  std::vector<BitVec> stream_;
};

// Feeds reads into a MISR.
class MisrSink final : public ReadSink {
 public:
  explicit MisrSink(unsigned width) : misr_(width) {}
  MisrSink(unsigned width, const std::vector<unsigned>& taps) : misr_(width, taps) {}
  void on_read(std::size_t, const BitVec& value) override { misr_.feed(value); }
  const BitVec& signature() const { return misr_.signature(); }

 private:
  Misr misr_;
};

// Fans a read out to several sinks.
class TeeSink final : public ReadSink {
 public:
  explicit TeeSink(std::vector<ReadSink*> sinks) : sinks_(std::move(sinks)) {}
  void on_read(std::size_t addr, const BitVec& value) override {
    for (auto* s : sinks_) s->on_read(addr, value);
  }

 private:
  std::vector<ReadSink*> sinks_;
};

// Analysis hook: called after each executed operation with the concrete
// value read or written.  `element` / `op_index` locate the operation.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_op(std::size_t element, std::size_t op_index, std::size_t addr, const Op& op,
                     const BitVec& value) = 0;
};

struct DirectRunResult {
  bool mismatch = false;
  std::uint64_t mismatch_count = 0;
  // First failing operation (valid when mismatch).
  std::size_t fail_element = 0;
  std::size_t fail_op = 0;
  std::size_t fail_addr = 0;
  BitVec expected;
  BitVec actual;
};

struct TransparentOutcome {
  bool detected_exact = false;  // prediction/test read streams differ
  bool detected_misr = false;   // MISR signatures differ
  BitVec signature_predicted;
  BitVec signature_observed;
};

class MarchRunner {
 public:
  explicit MarchRunner(MemoryIf& mem) : mem_(mem) {}

  void set_observer(EngineObserver* obs) { observer_ = obs; }

  DirectRunResult run_direct(const MarchTest& test);
  void run_test(const MarchTest& test, ReadSink& sink);
  void run_prediction(const MarchTest& prediction, ReadSink& sink);

  // Both signatures use the MISR of Misr(misr_width), or of
  // Misr(misr_width, taps).
  TransparentOutcome run_transparent_session(const MarchTest& test, const MarchTest& prediction,
                                             unsigned misr_width);
  TransparentOutcome run_transparent_session(const MarchTest& test, const MarchTest& prediction,
                                             unsigned misr_width,
                                             const std::vector<unsigned>& taps);

 private:
  template <typename PerOp>
  void sweep(const MarchTest& test, PerOp&& per_op);

  MemoryIf& mem_;
  EngineObserver* observer_ = nullptr;
};

}  // namespace twm

#endif  // TWM_BIST_ENGINE_H
