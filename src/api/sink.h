// Streaming result delivery for declarative campaigns.
//
// api::run_campaign (api/runner.h) feeds a ResultSink *during* the run —
// one record per fault as its unit's verdicts settle, not one aggregate
// after everything finished.  That turns a campaign from a batch job into
// a stream a scheduler can tail, persist, or abort:
//
//   on_campaign_begin   once, with the spec and the campaign's fault total
//   on_unit             one fault's final all/any verdict
//   flush               a report batch settled: every record delivered so
//                       far must now reach the consumer
//   on_campaign_end     aggregate per scheme x class cells + wall time
//   on_error            once, when the campaign dies on an engine error —
//                       the typed api::Error, delivered right before
//                       run_campaign rethrows it as CampaignError; a
//                       failed campaign's stream ends in an error record,
//                       not a campaign_end
//   cancelled()         polled before the engine claims each unit, before
//                       it delivers each run of a unit's records (the
//                       faults a unit settles that are contiguous in fault
//                       order), and at cell and region boundaries — never
//                       once per record; returning true stops the campaign
//                       cooperatively (in-flight units finish unreported,
//                       the record stream ends in a truncated prefix)
//
// Records stream while a repack round runs: the engine's in-order report
// drain (analysis/campaign_exec.h) delivers each finished unit's records
// as soon as every earlier unit's went out, in the same order for every
// thread count.
//
// The flush contract (what a tailing consumer can rely on): the runner
// calls flush() once per settled report batch — after each repack round's
// last record, and after a cell's replayed cache records — and once more
// right before on_error.  So a round's records are visible before the next
// round's first record, and every record delivered before a failure, a
// deadline cut or a sink cancel precedes the error or campaign_end record.
// JsonLinesSink writes one batch per flush, writes early whenever its
// buffer passes kMaxPendingBytes (64 KiB), and writes campaign_begin on its
// own at once (launch -> first line times setup).
//
// A spec with run.deadline_ms set cancels ITSELF: the runner polls the
// deadline at the same between-units granularity, and the summary of a
// deadline-stopped campaign has cancelled:true AND timed_out:true — the
// record stream is the exact prefix of the fault-free stream that fit in
// the budget (the PR 4 cancellation contract, with a clock as the sink).
//
// Sink callbacks are SERIALIZED by the campaign scheduler's in-order
// report drain (analysis/campaign_exec.h): on_unit and the per-round
// flush() come from the drain, which one thread at a time holds under its
// mutex, and every other call from the thread that called run_campaign
// while no drain runs — implementations need no locking of their own.
// They may run on an engine worker thread, not only on the thread that
// called run_campaign: on_unit comes from whichever thread holds the
// report drain.  cancelled() is read concurrently from worker threads, so
// a cancelling sink flips an atomic.
//
// A sink sees each fault's final verdicts only; the per-(fault, seed)
// verdicts come from CampaignRunner::matrix (analysis/campaign.h).
//
// Three sinks ship: JSON-lines (machine tailing), CSV (spreadsheets), and
// the human tables the CLI always printed.
#ifndef TWM_API_SINK_H
#define TWM_API_SINK_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/error.h"
#include "api/spec.h"
#include "memsim/fault.h"

namespace twm::api {

// Resolved facts reported once at campaign start.
struct CampaignMeta {
  const CampaignSpec* spec = nullptr;
  // Faults the campaign will evaluate, across every scheme x class cell.
  std::size_t total_faults = 0;
};

// One fault's settled verdict within one scheme x class cell.
struct UnitRecord {
  SchemeKind scheme = SchemeKind::ProposedExact;
  ClassSel cls;
  std::size_t fault_index = 0;  // within the class's fault list
  const Fault* fault = nullptr;
  bool detected_all = false;  // under every evaluated content
  bool detected_any = false;  // under at least one content
};

// Aggregate of one scheme x class cell.
struct CellResult {
  SchemeKind scheme = SchemeKind::ProposedExact;
  ClassSel cls;
  CoverageOutcome outcome;
};

struct CampaignSummary {
  std::vector<CellResult> cells;  // completed cells, spec order
  std::size_t total_faults = 0;   // planned, across all cells
  std::size_t units_emitted = 0;  // UnitRecords actually streamed
  bool cancelled = false;
  // Stopped by its own run.deadline_ms (implies cancelled).
  bool timed_out = false;
  double seconds = 0.0;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void on_campaign_begin(const CampaignMeta& meta) { (void)meta; }
  virtual void on_unit(const UnitRecord& record) { (void)record; }
  // A report batch settled; a buffering sink hands its records on now.
  virtual void flush() {}
  virtual void on_campaign_end(const CampaignSummary& summary) { (void)summary; }
  // Delivered once when the campaign aborts on an engine failure (after
  // which run_campaign throws CampaignError); never after on_campaign_end.
  virtual void on_error(const Error& error) { (void)error; }

  // Polled (possibly concurrently) between units and between runs of
  // records, not per record.
  virtual bool cancelled() const { return false; }
};

// JSON-lines: one self-describing record per line, streamed one report
// batch at a time (the flush contract above).  Line shapes:
// {"type":"campaign_begin",...}, {"type":"unit",...},
// {"type":"campaign_end","cells":[...]}, and on abort
// {"type":"error","scope":...,"retryable":...,"message":...}.
class JsonLinesSink : public ResultSink {
 public:
  // Formatted records past this many bytes are written out mid-batch, so
  // the buffer (and peak RSS) stays bounded whatever a batch's size.
  static constexpr std::size_t kMaxPendingBytes = 64 * 1024;

  explicit JsonLinesSink(std::ostream& out) : out_(out) {
    pending_.reserve(kMaxPendingBytes + 1024);  // the cap plus a record: no regrowth
  }

  void on_campaign_begin(const CampaignMeta& meta) override;
  void on_unit(const UnitRecord& record) override;
  void flush() override;
  void on_campaign_end(const CampaignSummary& summary) override;
  void on_error(const Error& error) override;

 private:
  // Points unit_record_ at the (scheme, class) cell.
  void select_cell(SchemeKind scheme, const ClassSel& cls);
  // Writes the pending records to the stream (without flushing it).
  void write_pending();

  std::ostream& out_;
  std::string pending_;  // formatted records not yet written; reused
  // The unit-record head ({"type":"unit","scheme":…,"class":…,"fault":) of
  // the cell the last record belonged to, followed by room for one
  // record's tail: on_unit formats the tail in place and appends the whole
  // line to pending_ in one copy.  Records arrive cell by cell, so the head
  // is formatted once per cell.
  bool cell_cached_ = false;
  SchemeKind cell_scheme_ = SchemeKind::ProposedExact;
  ClassSel cell_cls_;
  std::string unit_record_;
  std::size_t unit_head_ = 0;
};

// CSV: one header row (emitted at the first campaign's begin, never
// repeated — batch runs share one stream), then one row per unit.  The
// leading `campaign` column keeps rows of different batch entries apart.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}

  void on_campaign_begin(const CampaignMeta& meta) override;
  void on_unit(const UnitRecord& record) override;

 private:
  std::ostream& out_;
  std::string campaign_;  // current spec's name, CSV-quoted
  bool header_written_ = false;
  // The cell's row head (campaign,scheme,class,) followed by room for one
  // row's tail, as JsonLinesSink's unit_record_; rebuilt per campaign and
  // per cell.
  bool cell_cached_ = false;
  SchemeKind cell_scheme_ = SchemeKind::ProposedExact;
  ClassSel cell_cls_;
  std::string row_;
  std::size_t row_head_ = 0;
};

// The human tables `twm_cli coverage` always printed: a header line at
// campaign start, then — once aggregates exist — either the per-class
// table (single scheme) or the scheme x class matrix, plus the faults/s
// footer.
class TableSink : public ResultSink {
 public:
  explicit TableSink(std::ostream& out) : out_(out) {}

  void on_campaign_begin(const CampaignMeta& meta) override;
  void on_campaign_end(const CampaignSummary& summary) override;

 private:
  std::ostream& out_;
  CampaignSpec spec_;  // copied at begin; needed to shape the end tables
};

// Test/tooling helper: records everything it sees and can cancel the
// campaign after a fixed number of unit records.
class CollectingSink : public ResultSink {
 public:
  explicit CollectingSink(std::size_t cancel_after_units = 0)
      : cancel_after_units_(cancel_after_units) {}

  void on_campaign_begin(const CampaignMeta& meta) override;
  void on_unit(const UnitRecord& record) override;
  void on_campaign_end(const CampaignSummary& summary) override;
  void on_error(const Error& error) override { errors.push_back(error); }
  bool cancelled() const override { return cancelled_.load(std::memory_order_relaxed); }

  struct StoredUnit {
    SchemeKind scheme;
    ClassSel cls;
    std::size_t fault_index;
    bool detected_all, detected_any;
  };
  std::size_t begins = 0, ends = 0;
  std::vector<StoredUnit> units;
  std::vector<Error> errors;
  CampaignSummary summary;

 private:
  std::size_t cancel_after_units_;
  std::atomic<bool> cancelled_{false};
};

}  // namespace twm::api

#endif  // TWM_API_SINK_H
