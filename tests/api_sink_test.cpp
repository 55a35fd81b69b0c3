// Tests for the streaming ResultSink surface: per-unit records arrive
// during the run, cooperative cancellation truncates the stream to a
// prefix, the shipped sinks emit well-formed output, and spec-driven
// campaigns are verdict-identical to the scheduler-free oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <clocale>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <streambuf>
#include <thread>

#include "analysis/report.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "march/library.h"
#include "oracle.h"
#include "util/failpoint.h"

namespace twm::api {
namespace {

// Scalar + 1 thread: units are claimed sequentially in fault order, so the
// record stream is deterministic and cancellation cuts an exact prefix.
CampaignSpec sequential_spec() {
  CampaignSpec s;
  s.name = "sink-test";
  s.words = 2;
  s.width = 2;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedExact};
  s.classes = {{ClassKind::Saf, CfScope::Both}};  // 2*2*2 = 8 faults
  s.seeds = {0, 1};
  s.backend = CoverageBackend::Scalar;
  s.threads = 1;
  return s;
}

TEST(ResultSinkTest, StreamsOneUnitRecordPerFault) {
  CollectingSink sink;
  const CampaignSummary summary = run_campaign(sequential_spec(), &sink);
  EXPECT_EQ(sink.begins, 1u);
  EXPECT_EQ(sink.ends, 1u);
  ASSERT_EQ(sink.units.size(), 8u);
  EXPECT_FALSE(summary.cancelled);
  EXPECT_EQ(summary.units_emitted, 8u);
  ASSERT_EQ(summary.cells.size(), 1u);
  EXPECT_EQ(summary.cells[0].outcome.total, 8u);
  // Scalar single-thread: records arrive in fault order.
  for (std::size_t i = 0; i < sink.units.size(); ++i)
    EXPECT_EQ(sink.units[i].fault_index, i);
  // Units agree with the aggregate.
  std::size_t all = 0;
  for (const auto& u : sink.units) all += u.detected_all;
  EXPECT_EQ(all, summary.cells[0].outcome.detected_all);
}

TEST(ResultSinkTest, CancellationYieldsExactPrefixOfFullStream) {
  // Full stream first.
  CollectingSink full;
  run_campaign(sequential_spec(), &full);
  ASSERT_EQ(full.units.size(), 8u);

  // Cancel after 3 unit records: the engine stops claiming units, so the
  // observed stream is exactly the first 3 records of the full stream.
  CollectingSink cancelling(/*cancel_after_units=*/3);
  const CampaignSummary summary = run_campaign(sequential_spec(), &cancelling);
  EXPECT_TRUE(summary.cancelled);
  ASSERT_EQ(cancelling.units.size(), 3u);
  for (std::size_t i = 0; i < cancelling.units.size(); ++i) {
    EXPECT_EQ(cancelling.units[i].fault_index, full.units[i].fault_index);
    EXPECT_EQ(cancelling.units[i].detected_all, full.units[i].detected_all);
    EXPECT_EQ(cancelling.units[i].detected_any, full.units[i].detected_any);
  }
  // The aborted cell is not reported as an aggregate; end still fires.
  EXPECT_TRUE(summary.cells.empty());
  EXPECT_EQ(cancelling.ends, 1u);
}

TEST(ResultSinkTest, CancellationStopsMultiThreadedPackedRuns) {
  CampaignSpec spec = sequential_spec();
  spec.backend = CoverageBackend::Packed;
  spec.threads = 4;
  spec.words = 8;
  spec.width = 8;  // 8*8*2 = 128 faults -> several packed units at 64 lanes
  spec.simd = simd::Request::W64;
  CollectingSink cancelling(/*cancel_after_units=*/1);
  const CampaignSummary summary = run_campaign(spec, &cancelling);
  EXPECT_TRUE(summary.cancelled);
  // In-flight units may still settle after the flag flips (cooperative
  // cancellation).  The cell aggregate is reported iff every unit of the
  // cell streamed — a truncated cell must never appear complete.
  EXPECT_GE(cancelling.units.size(), 1u);
  EXPECT_LE(cancelling.units.size(), 128u);
  if (cancelling.units.size() == 128u) {
    ASSERT_EQ(summary.cells.size(), 1u);
    EXPECT_EQ(summary.cells[0].outcome.total, 128u);
  } else {
    EXPECT_TRUE(summary.cells.empty());
  }
  EXPECT_EQ(cancelling.ends, 1u);
}

TEST(ResultSinkTest, CancellationAtCellBoundaryKeepsTheCompletedCell) {
  // The flag flips while consuming the LAST unit record of the cell: all
  // work ran, so the aggregate must survive alongside cancelled=true.
  CollectingSink cancelling(/*cancel_after_units=*/8);
  const CampaignSummary summary = run_campaign(sequential_spec(), &cancelling);
  EXPECT_TRUE(summary.cancelled);
  EXPECT_EQ(cancelling.units.size(), 8u);
  ASSERT_EQ(summary.cells.size(), 1u);
  EXPECT_EQ(summary.cells[0].outcome.total, 8u);
}

TEST(ResultSinkTest, JsonLinesStreamIsWellFormed) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  run_campaign(sequential_spec(), &sink);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> types;
  while (std::getline(lines, line)) {
    const JsonValue v = json_parse(line);  // every line parses standalone
    ASSERT_TRUE(v.is_object());
    types.push_back(v.find("type")->as_string());
  }
  ASSERT_EQ(types.size(), 1u + 8u + 1u);
  EXPECT_EQ(types.front(), "campaign_begin");
  EXPECT_EQ(types.back(), "campaign_end");
  for (std::size_t i = 1; i + 1 < types.size(); ++i) EXPECT_EQ(types[i], "unit");

  // The end record carries the aggregate cells.
  const JsonValue end = json_parse(out.str().substr(out.str().rfind("{\"type\":\"campaign_end")));
  const JsonValue* cells = end.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 1u);
  EXPECT_EQ(*cells->items()[0].find("total")->as_u64(), 8u);
}

// ---- the flush contract at batch grain --------------------------------------

// Records what reaches the stream: every byte put since the last sync, and
// the content of each sync.  No put area, so every write is observed.
class CountingStreambuf : public std::streambuf {
 public:
  std::string pending;             // put since the last sync
  std::vector<std::string> syncs;  // content of each sync, in order
  std::string synced;              // all synced bytes

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) pending += traits_type::to_char_type(ch);
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    pending.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int sync() override {
    syncs.push_back(pending);
    synced += pending;
    pending.clear();
    return 0;
  }
};

std::size_t count_lines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

// Forwards to a JsonLinesSink over a CountingStreambuf and checks, as the
// campaign runs, what a tailing consumer of that stream could have seen.
class TailingProbe : public ResultSink {
 public:
  explicit TailingProbe(CountingStreambuf& buf) : buf_(buf), out_(&buf), inner_(out_) {}

  void on_campaign_begin(const CampaignMeta& meta) override {
    inner_.on_campaign_begin(meta);
    // campaign_begin is synced alone, at once.
    EXPECT_EQ(buf_.syncs.size(), 1u);
    EXPECT_TRUE(buf_.pending.empty());
    EXPECT_EQ(buf_.synced.rfind("{\"type\":\"campaign_begin\"", 0), 0u);
    EXPECT_EQ(count_lines(buf_.synced), 1u);
  }

  void on_unit(const UnitRecord& r) override {
    if (batch_closed_) {
      // The first record of a batch: the previous batch is fully visible.
      batch_closed_ = false;
      ++batches_checked;
      EXPECT_EQ(count_lines(buf_.synced), 1 + units) << "after " << units << " records";
    }
    inner_.on_unit(r);
    ++units;
  }

  void flush() override {
    if (units > units_at_flush_) {
      ++nonempty_batches;
      units_at_flush_ = units;
      batch_closed_ = true;
    }
    inner_.flush();
  }

  void on_campaign_end(const CampaignSummary& s) override { inner_.on_campaign_end(s); }
  void on_error(const Error& e) override { inner_.on_error(e); }

  std::size_t units = 0;
  std::size_t nonempty_batches = 0;
  std::size_t batches_checked = 0;

 private:
  CountingStreambuf& buf_;
  std::ostream out_;
  JsonLinesSink inner_;
  std::size_t units_at_flush_ = 0;
  bool batch_closed_ = false;
};

// Independent reference for the unit records: the record format written
// one ostringstream line per record, with describe() and json_quote.  The
// batched stream must equal it byte for byte.
std::string reference_unit_lines(const CampaignSpec& spec, const CollectingSink& records) {
  std::ostringstream out;
  for (const CollectingSink::StoredUnit& u : records.units) {
    const Fault f = build_fault_list(u.cls, spec.words, spec.width)[u.fault_index];
    out << "{\"type\":\"unit\",\"scheme\":" << json_quote(scheme_id(u.scheme))
        << ",\"class\":" << json_quote(to_string(u.cls)) << ",\"fault\":" << u.fault_index
        << ",\"describe\":" << json_quote(f.describe())
        << ",\"detected_all\":" << (u.detected_all ? "true" : "false")
        << ",\"detected_any\":" << (u.detected_any ? "true" : "false") << "}\n";
  }
  return out.str();
}

// Packed, several content seeds: the symmetric scheme's TF verdicts depend
// on the content, so faults settle over several repack rounds (several
// report batches in one cell), and the 1024-fault SAF cell's final batch
// is larger than the sink's pending-bytes cap.
CampaignSpec multi_round_spec() {
  CampaignSpec s;
  s.name = "tailing";
  s.words = 64;
  s.width = 8;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedSymmetricXor};
  s.classes = {{ClassKind::Tf, CfScope::Both}, {ClassKind::Saf, CfScope::Both}};
  s.seeds = {0, 1, 2, 3};
  s.backend = CoverageBackend::Packed;
  s.threads = 2;
  return s;
}

TEST(ResultSinkTest, JsonLinesHoldsRecordsUntilTheBatchIsFlushed) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  const Fault f = Fault::saf({1, 0}, true);
  UnitRecord r;
  r.fault = &f;
  sink.on_unit(r);
  sink.on_unit(r);
  EXPECT_TRUE(out.str().empty());
  sink.flush();
  EXPECT_EQ(count_lines(out.str()), 2u);
  sink.flush();  // nothing pending: nothing written
  EXPECT_EQ(count_lines(out.str()), 2u);
}

TEST(ResultSinkTest, JsonLinesTailingContractHoldsAtBatchGrain) {
  const CampaignSpec spec = multi_round_spec();
  CountingStreambuf buf;
  TailingProbe probe(buf);
  const CampaignSummary summary = run_campaign(spec, &probe);
  ASSERT_EQ(summary.cells.size(), 2u);
  EXPECT_TRUE(buf.pending.empty()) << "campaign_end left bytes unsynced";

  // More than one report batch inside the TF cell (three in total at
  // least), and every batch boundary was checked for visibility.
  ASSERT_GE(probe.nonempty_batches, 3u);
  EXPECT_EQ(probe.batches_checked, probe.nonempty_batches - 1);

  // Every sync ends a line; none holds more than the cap plus one record.
  std::size_t longest_line = 0;
  for (std::size_t at = 0, nl; (nl = buf.synced.find('\n', at)) != std::string::npos; at = nl + 1)
    longest_line = std::max(longest_line, nl + 1 - at);
  bool cap_fired = false;
  for (const std::string& chunk : buf.syncs) {
    ASSERT_FALSE(chunk.empty());
    EXPECT_EQ(chunk.back(), '\n');
    EXPECT_LE(chunk.size(), JsonLinesSink::kMaxPendingBytes + longest_line);
    cap_fired |= chunk.size() >= JsonLinesSink::kMaxPendingBytes;
  }
  EXPECT_TRUE(cap_fired) << "no batch reached the pending-bytes cap";

  // The stream is begin + the per-record reference + end.
  CollectingSink records;
  run_campaign(spec, &records);
  ASSERT_EQ(records.units.size(), probe.units);
  const std::string& stream = buf.synced;
  const std::size_t units_at = stream.find('\n') + 1;
  const std::size_t end_at = stream.rfind("{\"type\":\"campaign_end\"");
  ASSERT_NE(end_at, std::string::npos);
  EXPECT_EQ(stream.substr(units_at, end_at - units_at), reference_unit_lines(spec, records));
  EXPECT_EQ(count_lines(stream.substr(end_at)), 1u);
}

TEST(ResultSinkTest, CsvSinkEmitsOneHeaderAndOneRowPerUnit) {
  std::ostringstream out;
  CsvSink sink(out);
  run_campaign(sequential_spec(), &sink);
  // A second (batch) campaign through the SAME sink: rows append, the
  // header does not repeat, and the campaign column keeps them apart.
  CampaignSpec second = sequential_spec();
  second.name = "sink-test-2";
  run_campaign(second, &sink);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 1u + 8u + 8u);
  EXPECT_EQ(rows[0], "campaign,scheme,class,fault,describe,detected_all,detected_any");
  EXPECT_EQ(rows[1].rfind("\"sink-test\",twm,saf,0,", 0), 0u) << rows[1];
  EXPECT_EQ(rows[9].rfind("\"sink-test-2\",twm,saf,0,", 0), 0u) << rows[9];
}

TEST(ResultSinkTest, TableSinkPrintsHeaderAndFooter) {
  std::ostringstream out;
  TableSink sink(out);
  run_campaign(sequential_spec(), &sink);
  EXPECT_NE(out.str().find("coverage: March C-, N=2, B=2"), std::string::npos);
  EXPECT_NE(out.str().find("backend=scalar"), std::string::npos);
  EXPECT_NE(out.str().find("| SAF"), std::string::npos);
  EXPECT_NE(out.str().find("faults/s"), std::string::npos);
}

// The redesign's core promise: a spec-driven campaign is verdict-identical
// to the scheduler-free oracle.
TEST(ResultSinkTest, SpecCampaignMatchesTheOracle) {
  CampaignSpec spec;
  spec.words = 4;
  spec.width = 4;
  spec.march = "March C-";
  spec.schemes = {SchemeKind::ProposedExact, SchemeKind::TomtModel};
  spec.classes = *parse_classes("saf,tf,cfid:intra");
  spec.seeds = {0, 1, 2};
  spec.backend = CoverageBackend::Packed;
  spec.threads = 2;

  const CampaignSummary summary = run_campaign(spec);
  ASSERT_EQ(summary.cells.size(), 6u);

  const MarchTest march = march_by_name(spec.march);
  std::size_t i = 0;
  for (SchemeKind k : spec.schemes) {
    for (const ClassSel& cls : spec.classes) {
      const auto faults = build_fault_list(cls, spec.words, spec.width);
      const VerdictMatrix want =
          oracle_matrix(k, march, spec.words, spec.width, faults, spec.seeds);
      std::size_t all = 0, any = 0;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        all += want.detected_all(f);
        any += want.detected_any(f);
      }
      const CoverageOutcome& got = summary.cells[i++].outcome;
      EXPECT_EQ(got.total, faults.size()) << scheme_id(k) << "/" << to_string(cls);
      EXPECT_EQ(got.detected_all, all) << scheme_id(k) << "/" << to_string(cls);
      EXPECT_EQ(got.detected_any, any) << scheme_id(k) << "/" << to_string(cls);
    }
  }
}

TEST(ResultSinkTest, RunCampaignRejectsInvalidSpec) {
  CampaignSpec spec = sequential_spec();
  spec.words = 0;
  EXPECT_THROW(run_campaign(spec), SpecValidationError);
}

TEST(ResultSinkTest, DiagnoseCampaignLocalizesSpecFaults) {
  CampaignSpec spec = sequential_spec();
  spec.seeds = {3};
  const auto diags = diagnose_campaign(spec);
  const auto faults = build_fault_list(spec.classes[0], spec.words, spec.width);
  ASSERT_EQ(diags.size(), faults.size());
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (diags[i].fault_found) {
      EXPECT_EQ(diags[i].suspect_word, faults[i].victim.word);
    }
  }
}

TEST(ResultSinkTest, DiagnoseCampaignMergesAcrossEverySeed) {
  // State coupling faults are content-dependent: whether the aggressor's
  // state perturbs the victim during the transparent session depends on the
  // initial contents, so each seed localizes a different subset.  The old
  // behavior diagnosed spec.seeds.front() ONLY and silently dropped the
  // rest; diagnosing every seed recovers the faults seed 0 misses.
  CampaignSpec spec = sequential_spec();
  spec.words = 4;
  spec.width = 4;
  spec.classes = {{ClassKind::CFst, CfScope::Both}};
  spec.seeds = {0};
  const auto zero_only = diagnose_campaign(spec);
  std::size_t found_zero = 0;
  for (const auto& d : zero_only) found_zero += d.fault_found;
  ASSERT_LT(found_zero, zero_only.size()) << "seed 0 should miss some CFst faults";

  spec.seeds = {0, 3, 7};
  const auto merged = diagnose_campaign(spec);
  ASSERT_EQ(merged.size(), zero_only.size());
  std::size_t found_merged = 0;
  for (const auto& d : merged) found_merged += d.fault_found;
  EXPECT_GT(found_merged, found_zero) << "later seeds must contribute their findings";
  // First-seed-wins: where seed 0 already localized, the merge keeps it.
  for (std::size_t i = 0; i < merged.size(); ++i)
    if (zero_only[i].fault_found) {
      EXPECT_TRUE(merged[i].fault_found);
      EXPECT_EQ(merged[i].suspect_word, zero_only[i].suspect_word);
    }
}

// A forwarding sink that lets the campaign be cancelled mid-run while a
// real TableSink observes begin/end — the cancelled-campaign table shape.
class CancellingTableSink : public ResultSink {
 public:
  CancellingTableSink(std::ostream& out, std::size_t cancel_after) : table_(out), cancel_after_(cancel_after) {}
  void on_campaign_begin(const CampaignMeta& meta) override { table_.on_campaign_begin(meta); }
  void on_unit(const UnitRecord&) override {
    if (++units_ >= cancel_after_) cancelled_.store(true, std::memory_order_relaxed);
  }
  void on_campaign_end(const CampaignSummary& summary) override { table_.on_campaign_end(summary); }
  bool cancelled() const override { return cancelled_.load(std::memory_order_relaxed); }

 private:
  TableSink table_;
  std::size_t cancel_after_;
  std::size_t units_ = 0;
  std::atomic<bool> cancelled_{false};
};

TEST(ResultSinkTest, TableSinkPrintsPlaceholderRowsForCancelledCampaigns) {
  // Cancel inside the first of two cells: no aggregate exists for either
  // class, yet the table must still show both rows — as "—" placeholders,
  // not by silently dropping them (the old behavior made a cancelled
  // campaign's table indistinguishable from a narrower spec's).
  CampaignSpec spec = sequential_spec();
  spec.classes = {{ClassKind::Saf, CfScope::Both}, {ClassKind::Tf, CfScope::Both}};
  std::ostringstream out;
  CancellingTableSink sink(out, /*cancel_after=*/3);
  const CampaignSummary summary = run_campaign(spec, &sink);
  ASSERT_TRUE(summary.cancelled);
  ASSERT_TRUE(summary.cells.empty());
  EXPECT_NE(out.str().find("| SAF"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("| TF"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("—"), std::string::npos) << out.str();

  // Matrix shape (multi-scheme) gets the same treatment.
  spec.schemes = {SchemeKind::ProposedExact, SchemeKind::TomtModel};
  std::ostringstream mout;
  CancellingTableSink msink(mout, /*cancel_after=*/3);
  run_campaign(spec, &msink);
  EXPECT_NE(mout.str().find("—"), std::string::npos) << mout.str();
}

// ---- records stream while the round runs -------------------------------------

// Packed, three content seeds, two cells per scheme: sym x tf decides
// faults in non-final rounds (its TF verdicts depend on the content), so the
// report drain builds the survivor list across rounds; twm x saf reports
// everything in the final round.  64 words x 8 bits: 17 units per round.
CampaignSpec drain_spec(unsigned threads, unsigned regions) {
  CampaignSpec s;
  s.name = "drain";
  s.words = 64;
  s.width = 8;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedSymmetricXor, SchemeKind::ProposedExact};
  s.classes = {{ClassKind::Tf, CfScope::Both}, {ClassKind::Saf, CfScope::Both}};
  s.seeds = {0, 1, 2};
  s.backend = CoverageBackend::Packed;
  s.threads = threads;
  s.regions = regions;
  return s;
}

// The stream with its two run-dependent fields masked.
std::string masked(std::string text) {
  for (const char* key : {"\"threads\":", "\"seconds\":"}) {
    for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key, at)) {
      at += std::strlen(key);
      const std::size_t end = text.find_first_of(",}", at);
      text.replace(at, end - at, 1, '#');
    }
  }
  return text;
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Counts the records of each flush batch.
class BatchCounter : public ResultSink {
 public:
  void on_unit(const UnitRecord&) override { ++open; }
  void flush() override {
    if (open) batches.push_back(open);
    open = 0;
  }
  std::size_t open = 0;
  std::vector<std::size_t> batches;
};

TEST(ResultSinkTest, StreamBytesDoNotDependOnTheThreadCount) {
  {
    // Not degenerate: one cell reports in more than one round.
    BatchCounter counter;
    run_campaign(drain_spec(1, 1), &counter);
    ASSERT_GE(counter.batches.size(), 5u) << "4 cells, and at least one multi-round cell";
  }
  std::vector<std::string> json_by_regions, csv_by_regions;
  for (const unsigned regions : {1u, 4u}) {
    std::string json_ref, csv_ref;
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      std::ostringstream json_out, csv_out;
      JsonLinesSink json(json_out);
      CsvSink csv(csv_out);
      run_campaign(drain_spec(threads, regions), &json);
      run_campaign(drain_spec(threads, regions), &csv);
      const std::string json_text = masked(json_out.str());
      ASSERT_EQ(count_lines(json_text), 2u + 4u * 1024u);
      if (threads == 1) {
        json_ref = json_text;
        csv_ref = csv_out.str();
        continue;
      }
      EXPECT_EQ(json_text, json_ref) << "threads " << threads << ", regions " << regions;
      EXPECT_EQ(csv_out.str(), csv_ref) << "threads " << threads << ", regions " << regions;
    }
    json_by_regions.push_back(json_ref);
    csv_by_regions.push_back(csv_ref);
  }
  // Regions reorder the stream (region by region), never its records.
  EXPECT_EQ(sorted_lines(json_by_regions[0]), sorted_lines(json_by_regions[1]));
  EXPECT_EQ(sorted_lines(csv_by_regions[0]), sorted_lines(csv_by_regions[1]));
}

// Collects unit records and throws from on_unit at the k-th.
class ThrowingSink : public ResultSink {
 public:
  explicit ThrowingSink(std::size_t throw_at) : throw_at_(throw_at) {}
  void on_unit(const UnitRecord& r) override {
    if (++calls_ == throw_at_) throw std::runtime_error("sink write failed");
    units.push_back({r.scheme, r.cls, r.fault_index, r.detected_all, r.detected_any});
  }
  void on_error(const Error& e) override { errors.push_back(e); }
  std::vector<CollectingSink::StoredUnit> units;
  std::vector<Error> errors;

 private:
  std::size_t throw_at_;
  std::size_t calls_ = 0;
};

void expect_prefix(const std::vector<CollectingSink::StoredUnit>& part,
                   const std::vector<CollectingSink::StoredUnit>& full) {
  ASSERT_LE(part.size(), full.size());
  for (std::size_t i = 0; i < part.size(); ++i) {
    EXPECT_EQ(part[i].scheme, full[i].scheme) << "record " << i;
    EXPECT_TRUE(part[i].cls == full[i].cls) << "record " << i;
    EXPECT_EQ(part[i].fault_index, full[i].fault_index) << "record " << i;
    EXPECT_EQ(part[i].detected_all, full[i].detected_all) << "record " << i;
    EXPECT_EQ(part[i].detected_any, full[i].detected_any) << "record " << i;
  }
}

TEST(ResultSinkTest, ThrowingSinkEndsTheCampaignAfterAPrefix) {
  // One 4096-fault round of 66 units: a throw early in it leaves most
  // units still to run on the other workers.
  CampaignSpec spec = drain_spec(4, 1);
  spec.words = 256;
  spec.schemes = {SchemeKind::ProposedExact};
  spec.classes = {{ClassKind::Saf, CfScope::Both}};
  spec.seeds = {0};
  CollectingSink full;
  run_campaign(spec, &full);
  ASSERT_EQ(full.units.size(), 4096u);
  for (const std::size_t k : {70u, 2000u}) {
    ThrowingSink sink(k);
    EXPECT_THROW(run_campaign(spec, &sink), CampaignError) << "k " << k;
    // Nothing after the throw: the report mutex was released on unwind and
    // no later drain re-reported or skipped ahead.
    EXPECT_EQ(sink.units.size(), k - 1);
    expect_prefix(sink.units, full.units);
    ASSERT_EQ(sink.errors.size(), 1u);
  }
}

TEST(ResultSinkTest, CancellingMidRoundLeavesAPrefix) {
  CampaignSpec spec = drain_spec(4, 1);
  spec.seeds = {0};  // one round per cell: the 1024-record TF cell is one round
  CollectingSink full;
  run_campaign(spec, &full);
  for (const std::size_t k : {1u, 100u, 700u}) {
    CollectingSink cancelling(/*cancel_after_units=*/k);
    const CampaignSummary summary = run_campaign(spec, &cancelling);
    EXPECT_TRUE(summary.cancelled);
    // The run being delivered when the flag flipped completes; nothing
    // after it arrives.
    EXPECT_GE(cancelling.units.size(), k);
    EXPECT_LT(cancelling.units.size(), 1024u);
    expect_prefix(cancelling.units, full.units);
    EXPECT_TRUE(summary.cells.empty());
  }
}

// ---- one scheduler per campaign -------------------------------------------

// An in-memory CellCache that can hand out copies of itself.
class MapCache : public CellCache {
 public:
  std::optional<CellRecords> lookup(const std::string& key,
                                    const std::string& identity) override {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.first != identity) return std::nullopt;
    return it->second.second;
  }
  void store(const std::string& key, const std::string& identity,
             const CellRecords& records) override {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = {identity, records};
  }
  // A cache holding only the given keys of this one.
  std::unique_ptr<MapCache> subset(const std::vector<std::string>& keys) const {
    const std::lock_guard<std::mutex> lock(mu_);
    auto out = std::make_unique<MapCache>();
    for (const std::string& key : keys) out->entries_[key] = entries_.at(key);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<std::string, CellRecords>> entries_;
};

// drain_spec with a third scheme: six cells, three schemes sharing the
// scheduler's plans and seeds.
CampaignSpec mixed_spec(unsigned threads, unsigned regions) {
  CampaignSpec s = drain_spec(threads, regions);
  s.schemes.push_back(SchemeKind::TomtModel);
  return s;
}

// Live cells and cache replays take their places in one drain: with one
// cell cached whole and (at regions 4) another with two of its regions
// stored, the stream is the same at every thread count.
TEST(CampaignScheduler, StreamBytesDoNotDependOnThreadsWithAPartlyWarmCache) {
  for (const unsigned regions : {1u, 4u}) {
    const CampaignSpec spec = mixed_spec(1, regions);
    MapCache full;
    CollectingSink cold;
    run_campaign(spec, &cold, &full);
    // Cell 1 (sym x saf) whole; regions 0 and 2 of cell 4 (tomt x tf).
    const std::string whole = cell_identity_json(spec, spec.schemes[0], spec.classes[1]);
    std::vector<std::string> keys = {content_key(whole)};
    if (regions > 1) {
      const std::string cell = cell_identity_json(spec, spec.schemes[2], spec.classes[0]);
      for (const unsigned r : {0u, 2u})
        keys.push_back(content_key(region_identity_json(cell, r, regions)));
    }
    std::string reference;
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      const std::unique_ptr<MapCache> cache = full.subset(keys);
      std::ostringstream out;
      JsonLinesSink sink(out);
      CacheStats stats;
      const CampaignSummary summary = run_campaign(mixed_spec(threads, regions), &sink,
                                                   cache.get(), &stats);
      EXPECT_FALSE(summary.cancelled);
      ASSERT_EQ(summary.cells.size(), 6u);
      EXPECT_EQ(stats.cells_cached, 1u);
      EXPECT_EQ(stats.cells_simulated, 5u);
      EXPECT_EQ(stats.faults_replayed, regions > 1 ? 1024u + 512u : 1024u);
      const std::string text = masked(out.str());
      ASSERT_EQ(count_lines(text), 2u + 6u * 1024u);
      if (threads == 1)
        reference = text;
      else
        EXPECT_EQ(text, reference) << "threads " << threads << ", regions " << regions;
    }
    // The replays hold the records of a cold run, cell by cell.
    EXPECT_EQ(sorted_lines(reference), sorted_lines([&] {
                std::ostringstream out;
                JsonLinesSink sink(out);
                run_campaign(spec, &sink);
                return masked(out.str());
              }()));
  }
}

// One pool per campaign, whatever its cells, regions and rounds.
TEST(CampaignScheduler, OnePoolPerCampaign) {
  CampaignSpec spec = mixed_spec(1, 4);  // seeds 0, 1, 2
  CampaignStats one;
  run_campaign(spec, nullptr, nullptr, nullptr, &one);
  EXPECT_EQ(one.pool_starts.load(), 0u) << "one thread starts no pool";
  EXPECT_GT(one.units.load(), 6u * 4u) << "6 cells x 4 regions, several rounds each";

  spec.threads = 4;
  CampaignStats four;
  run_campaign(spec, nullptr, nullptr, nullptr, &four);
  EXPECT_EQ(four.pool_starts.load(), 1u);
  EXPECT_EQ(four.units.load(), one.units.load());

  // CampaignRunner::run is the same scheduler with one cell.
  const std::vector<Fault> faults = all_tfs(64, 8);
  CoverageOptions options;
  options.backend = CoverageBackend::Packed;
  options.threads = 4;
  options.regions = 4;
  CampaignStats cell;
  CampaignRunner(64, 8, options)
      .per_fault(SchemeKind::ProposedSymmetricXor, march_by_name("March C-"), faults, {0, 1, 2},
                 &cell);
  EXPECT_EQ(cell.pool_starts.load(), 1u);
}

// Holds the report drain in the flush after cell 1's first round until
// every unit the workers may run ahead has been computed (cells 2 and 3
// included), then strikes: throws, arms the campaign.worker failpoint, or
// waits out the spec's deadline.
class StrikingSink : public ResultSink {
 public:
  enum class Strike { Throw, Failpoint, Deadline };
  StrikingSink(Strike strike, const CampaignStats& stats, std::uint64_t units_ahead,
               std::chrono::steady_clock::time_point deadline)
      : strike_(strike), stats_(stats), units_ahead_(units_ahead), deadline_(deadline) {}

  void on_unit(const UnitRecord& r) override {
    units.push_back({r.scheme, r.cls, r.fault_index, r.detected_all, r.detected_any});
  }
  void flush() override {
    if (++flushes_ != 3) return;  // cell 0: rounds 0 and 1; cell 1: round 0
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (stats_.units.load() < units_ahead_ && std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    computed_ahead = stats_.units.load() == units_ahead_;
    switch (strike_) {
      case Strike::Throw: throw std::runtime_error("sink write failed");
      case Strike::Failpoint: util::failpoints_configure("campaign.worker=err"); break;
      case Strike::Deadline: std::this_thread::sleep_until(deadline_); break;
    }
  }
  void on_error(const Error& e) override { errors.push_back(e); }

  std::vector<CollectingSink::StoredUnit> units;
  std::vector<Error> errors;
  bool computed_ahead = false;

 private:
  Strike strike_;
  const CampaignStats& stats_;
  std::uint64_t units_ahead_;
  std::chrono::steady_clock::time_point deadline_;
  int flushes_ = 0;
};

TEST(CampaignScheduler, AStrikeWhileTheNextCellsAreComputedLeavesAPrefix) {
  // Four cells of 4096 faults (66 units) and two seeds: no fault settles
  // in round 0, so each cell runs two rounds and reports in the second.
  CampaignSpec spec = drain_spec(4, 1);
  spec.words = 256;
  spec.schemes = {SchemeKind::ProposedExact, SchemeKind::TomtModel};
  spec.seeds = {0, 1};
  CollectingSink full;
  run_campaign(spec, &full);
  ASSERT_EQ(full.units.size(), 4u * 4096u);
  // Cell 0's two rounds, cell 1's first, and the first rounds of cells 2
  // and 3, which idle workers compute while cell 1 drains.
  const std::uint64_t units_ahead = 5 * 66;

  for (const auto strike : {StrikingSink::Strike::Throw, StrikingSink::Strike::Failpoint,
                            StrikingSink::Strike::Deadline}) {
    util::failpoints_clear();
    CampaignSpec run = spec;
    // The deadline must not expire before the strike (the runs above take
    // a few milliseconds, far less under any sanitizer than this margin).
    if (strike == StrikingSink::Strike::Deadline) run.deadline_ms = 3000;
    CampaignStats stats;
    StrikingSink sink(strike, stats, units_ahead,
                      std::chrono::steady_clock::now() + std::chrono::milliseconds(3100));
    const int label = static_cast<int>(strike);
    if (strike == StrikingSink::Strike::Deadline) {
      const CampaignSummary summary = run_campaign(run, &sink, nullptr, nullptr, &stats);
      EXPECT_TRUE(summary.timed_out);
      EXPECT_EQ(summary.cells.size(), 1u);
    } else {
      EXPECT_THROW(run_campaign(run, &sink, nullptr, nullptr, &stats), CampaignError) << label;
      EXPECT_EQ(sink.errors.size(), 1u) << label;
    }
    util::failpoints_clear();
    EXPECT_TRUE(sink.computed_ahead) << label;
    // Every record of cell 0 and none of cell 1, whose records come in
    // its second round: a prefix that ends at a cell boundary.
    EXPECT_EQ(sink.units.size(), 4096u) << label;
    expect_prefix(sink.units, full.units);
  }
}

// ---- the record formatter -------------------------------------------------

TEST(ResultSinkTest, UnitLinesHaveOneGoldenTailPerVerdictPair) {
  std::ostringstream json_out, csv_out;
  JsonLinesSink json(json_out);
  CsvSink csv(csv_out);
  CampaignSpec spec = sequential_spec();
  CampaignMeta meta;
  meta.spec = &spec;
  csv.on_campaign_begin(meta);
  const Fault f = Fault::cfid({12, 3}, Transition::Down, {4096, 7}, true);
  UnitRecord r;
  r.scheme = SchemeKind::ProposedMisr;
  r.cls = {ClassKind::CFid, CfScope::InterWord, 20000};
  r.fault_index = 151071;
  r.fault = &f;
  for (const bool all : {false, true})
    for (const bool any : {false, true}) {
      r.detected_all = all;
      r.detected_any = any;
      json.on_unit(r);
      csv.on_unit(r);
    }
  json.flush();
  const std::string head =
      "{\"type\":\"unit\",\"scheme\":\"twm-misr\",\"class\":\"cfid:inter@20000\","
      "\"fault\":151071,\"describe\":\"CFid<v;1> w12.b3->w4096.b7 [inter]\",";
  EXPECT_EQ(json_out.str(),
            head + "\"detected_all\":false,\"detected_any\":false}\n" +
                head + "\"detected_all\":false,\"detected_any\":true}\n" +
                head + "\"detected_all\":true,\"detected_any\":false}\n" +
                head + "\"detected_all\":true,\"detected_any\":true}\n");
  const std::string row =
      "\"sink-test\",twm-misr,cfid:inter@20000,151071,\"CFid<v;1> w12.b3->w4096.b7 [inter]\",";
  EXPECT_EQ(csv_out.str(),
            "campaign,scheme,class,fault,describe,detected_all,detected_any\n" + row +
                "0,0\n" + row + "0,1\n" + row + "1,0\n" + row + "1,1\n");
}

// Counts cancelled() polls; never cancels.
class PollCountingSink : public ResultSink {
 public:
  void on_unit(const UnitRecord&) override { ++records; }
  bool cancelled() const override {
    polls.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::size_t records = 0;
  mutable std::atomic<std::size_t> polls{0};
};

TEST(ResultSinkTest, CancellationIsPolledPerUnitAndRunNotPerRecord) {
  CampaignSpec spec = drain_spec(4, 1);
  spec.schemes = {SchemeKind::ProposedExact};
  spec.classes = {{ClassKind::Saf, CfScope::Both}};
  spec.seeds = {0};
  PollCountingSink sink;
  run_campaign(spec, &sink);
  ASSERT_EQ(sink.records, 1024u);
  // 17 units of 63 faults, each one contiguous run: one poll per claimed
  // unit, one per delivered run, one per worker that finds no unit left,
  // and a few at the cell boundary.  Once per record would be 1024.
  const std::size_t units = (1024 + 62) / 63;
  EXPECT_GE(sink.polls.load(), 2 * units);
  EXPECT_LE(sink.polls.load(), 2 * units + spec.threads + 8);
}

// ---- locale-independent float formatting ---------------------------------

TEST(ReportFormat, FixedStrShapesAreExact) {
  EXPECT_EQ(fixed_str(0.0, 6), "0.000000");
  EXPECT_EQ(fixed_str(0.123456, 6), "0.123456");
  EXPECT_EQ(fixed_str(1.0, 1), "1.0");
  EXPECT_EQ(fixed_str(99.96, 1), "100.0");  // rounds, carries
  EXPECT_EQ(fixed_str(-0.5, 1), "-0.5");
  EXPECT_EQ(fixed_str(829233.4, 0), "829233");
  EXPECT_EQ(fixed_str(0.0000004, 6), "0.000000");
  EXPECT_EQ(pct_str(100.0), "100.0%");
}

TEST(ReportFormat, FloatsKeepTheirDotUnderACommaDecimalLocale) {
  // snprintf("%.6f") writes "0,123456" under a comma-decimal LC_NUMERIC —
  // which breaks every machine consumer of the JSON-lines stream.  The
  // formatting layer must not consult the locale at all.  Containers
  // without any comma locale installed skip the locale flip but still ran
  // the exact-shape assertions above.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous ? previous : "C";
  const char* candidates[] = {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE.utf8",
                              "fr_FR.utf8", "de_DE", "fr_FR"};
  const char* applied = nullptr;
  for (const char* name : candidates)
    if (std::setlocale(LC_NUMERIC, name)) {
      applied = name;
      break;
    }
  if (!applied) GTEST_SKIP() << "no comma-decimal locale installed";

  std::ostringstream out;
  JsonLinesSink sink(out);
  run_campaign(sequential_spec(), &sink);
  const std::string half = fixed_str(0.5, 2);  // still under the comma locale
  std::setlocale(LC_NUMERIC, saved.c_str());

  EXPECT_EQ(half, "0.50");
  // The end record's "seconds" value, up to the field separator: digits
  // around a dot ("0,001234" would read as the value "0").
  const std::string text = out.str();
  const std::string key = "\"seconds\":";
  const std::size_t at = text.rfind(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t begin = at + key.size();
  const std::string value = text.substr(begin, text.find_first_of(",}", begin) - begin);
  EXPECT_NE(value.find('.'), std::string::npos) << "seconds value '" << value << "'";
  EXPECT_EQ(value.find_first_not_of("0123456789."), std::string::npos) << value;
  // Every line still parses.
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) ASSERT_NO_THROW(json_parse(line)) << line;
}

}  // namespace
}  // namespace twm::api
