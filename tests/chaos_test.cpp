// Chaos harness tests: the failpoint registry itself, and the failure
// semantics it exists to prove — cache disk faults degrade to memory-only
// and never cost a resumed campaign its verdicts, allocation and worker faults
// surface as typed retryable errors, campaigns stop at run.deadline_ms
// with an exact prefix of the fault-free record stream, and the service
// survives socket faults with typed error frames instead of crashes.
//
// Failpoints are process-global; every test holds a FailpointGuard so a
// failing assertion cannot leak an armed failpoint into later tests.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "api/error.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "api/spec.h"
#include "cli/cli.h"
#include "march/library.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace twm {
namespace {

struct FailpointGuard {
  FailpointGuard() { util::failpoints_clear(); }
  ~FailpointGuard() { util::failpoints_clear(); }
};

std::filesystem::path temp_dir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("twm_chaos_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Scalar + 1 thread: units stream in deterministic fault order, so
// cancellation (and a deadline) cuts an exact prefix.
api::CampaignSpec scalar_spec() {
  api::CampaignSpec s;
  s.name = "chaos-test";
  s.words = 2;
  s.width = 2;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedExact};
  s.classes = {{api::ClassKind::Saf, CfScope::Both}};  // 2*2*2 = 8 faults
  s.seeds = {0, 1};
  s.backend = CoverageBackend::Scalar;
  s.threads = 1;
  return s;
}

// Big enough that a millisecond deadline always expires mid-run (2048
// scalar units), small enough that the fault-free reference completes in
// test time.
api::CampaignSpec big_scalar_spec() {
  api::CampaignSpec s = scalar_spec();
  s.name = "chaos-test-big";
  s.words = 64;
  s.width = 8;
  s.classes = {{api::ClassKind::Saf, CfScope::Both}, {api::ClassKind::Tf, CfScope::Both}};
  return s;
}

// Packed, one thread, several content seeds: the symmetric scheme's TF
// verdicts settle over several repack rounds.  A fault needs two contents
// to settle early (missed under one, caught under another), so round 2
// reports the first batch of records, before round 3 runs (the one
// worker hits the campaign.worker failpoint once per round it runs).
api::CampaignSpec multi_round_spec() {
  api::CampaignSpec s = scalar_spec();
  s.name = "chaos-test-rounds";
  s.words = 64;
  s.width = 8;
  s.schemes = {SchemeKind::ProposedSymmetricXor};
  s.classes = {{api::ClassKind::Tf, CfScope::Both}};
  s.seeds = {0, 1, 2, 3};
  s.backend = CoverageBackend::Packed;
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// ---- failpoint registry --------------------------------------------------

TEST(Failpoint, SpecParsesActionsAndTriggerForms) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("a=err;b=oom@3;c=drop:0.5;d=eintr"));
  EXPECT_TRUE(util::failpoints_enabled());
  const std::vector<std::string> want = {"a", "b", "c", "d"};
  EXPECT_EQ(util::failpoint_names(), want);
}

TEST(Failpoint, MalformedSpecIsRejectedAndThePreviousConfigSurvives) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("keep=err"));
  for (const char* bad : {"x", "a=bogus", "a=err@0", "a=err@x", "a=drop:0", "a=drop:1.5",
                          "=err", "a="}) {
    std::string error;
    EXPECT_FALSE(util::failpoints_configure(bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  const std::vector<std::string> want = {"keep"};
  EXPECT_EQ(util::failpoint_names(), want);
}

TEST(Failpoint, EmptySpecDeactivatesEverything) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("a=err"));
  ASSERT_TRUE(util::failpoints_configure(""));
  EXPECT_FALSE(util::failpoints_enabled());
  EXPECT_FALSE(TWM_FAILPOINT("a").has_value());
}

TEST(Failpoint, CountTriggerFiresExactlyOnTheNthHitOnce) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("f=err@3"));
  for (int hit = 1; hit <= 6; ++hit) {
    const auto fired = TWM_FAILPOINT("f");
    if (hit == 3) {
      ASSERT_TRUE(fired.has_value());
      EXPECT_EQ(*fired, util::FailAction::Err);
    } else {
      EXPECT_FALSE(fired.has_value()) << "hit " << hit;
    }
  }
  EXPECT_EQ(util::failpoint_trips("f"), 1u);
}

TEST(Failpoint, BareActionFiresOnEveryHit) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("f=oom"));
  for (int hit = 0; hit < 5; ++hit) EXPECT_EQ(TWM_FAILPOINT("f"), util::FailAction::Oom);
  EXPECT_EQ(util::failpoint_trips("f"), 5u);
  EXPECT_FALSE(TWM_FAILPOINT("unconfigured").has_value());
  EXPECT_EQ(util::failpoint_trips("unconfigured"), 0u);
}

TEST(Failpoint, ProbabilityTriggerIsDeterministicPerSeed) {
  FailpointGuard guard;
  const auto sample = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(TWM_FAILPOINT("p").has_value());
    return fired;
  };
  util::failpoints_set_seed(42);
  ASSERT_TRUE(util::failpoints_configure("p=drop:0.5"));
  const std::vector<bool> first = sample();
  ASSERT_TRUE(util::failpoints_configure("p=drop:0.5"));  // re-arm, same seed
  EXPECT_EQ(sample(), first);  // a chaos failure reproduces

  const std::size_t fires = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 50u);  // p=0.5 over 200 draws: loose sanity band
  EXPECT_LT(fires, 150u);

  util::failpoints_set_seed(43);
  ASSERT_TRUE(util::failpoints_configure("p=drop:0.5"));
  EXPECT_NE(sample(), first);  // different seed, different trajectory
  util::failpoints_set_seed(1);
}

// ---- typed error taxonomy ------------------------------------------------

TEST(TypedErrors, ClassifyExceptionMapsTheTaxonomy) {
  const api::Error oom = api::classify_exception(std::bad_alloc());
  EXPECT_EQ(oom.category, api::ErrorCategory::Resource);
  EXPECT_TRUE(oom.retryable);

  const api::Error spec = api::classify_exception(
      api::SpecValidationError(std::vector<api::SpecError>{{"memory.words", "must be > 0"}}));
  EXPECT_EQ(spec.category, api::ErrorCategory::Spec);
  EXPECT_FALSE(spec.retryable);

  const api::Error logic = api::classify_exception(std::logic_error("bug"));
  EXPECT_EQ(logic.category, api::ErrorCategory::Engine);
  EXPECT_FALSE(logic.retryable);

  const api::Error runtime = api::classify_exception(std::runtime_error("transient"));
  EXPECT_EQ(runtime.category, api::ErrorCategory::Engine);
  EXPECT_TRUE(runtime.retryable);

  // A CampaignError's payload passes through unchanged.
  const api::Error wrapped = api::classify_exception(
      api::CampaignError({api::ErrorCategory::Timeout, true, "idle"}));
  EXPECT_EQ(wrapped.category, api::ErrorCategory::Timeout);
  EXPECT_TRUE(wrapped.retryable);
  EXPECT_EQ(wrapped.detail, "idle");
}

TEST(TypedErrors, ErrorFrameRoundTripsThroughTheParser) {
  const api::Error e{api::ErrorCategory::Timeout, true, "idle timeout: no frame in 100 ms"};
  const std::string frame = service::error_frame(e);
  const auto info = service::parse_error_frame(frame);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->scope, "timeout");
  EXPECT_TRUE(info->retryable);
  EXPECT_EQ(info->message, e.detail);

  EXPECT_FALSE(service::parse_error_frame("{\"type\":\"pong\"}").has_value());
  EXPECT_FALSE(service::parse_error_frame("not json").has_value());
  // Legacy builder defaults to non-retryable.
  const auto legacy = service::parse_error_frame(service::error_frame("frame", "bad json"));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_FALSE(legacy->retryable);
}

// ---- crash-atomic writes -------------------------------------------------

TEST(AtomicWrite, ReplacesTheFileAndLeavesNoTempDroppings) {
  const auto dir = temp_dir("atomic_write");
  const std::string path = (dir / "target.json").string();
  ASSERT_TRUE(util::atomic_write_file(path, "first"));
  ASSERT_TRUE(util::atomic_write_file(path, "second"));
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "second");
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // no abandoned tmp files
  std::filesystem::remove_all(dir);
}

// ---- result cache under disk faults -------------------------------------

TEST(CacheChaos, RepeatedDiskWriteFailuresDegradeToMemoryOnly) {
  FailpointGuard guard;
  const auto dir = temp_dir("cache_degrade");
  service::ResultCache cache({dir.string(), 8});
  const api::CellRecords records{{{0, true, true}}};

  ASSERT_TRUE(util::failpoints_configure("cache.disk_write=err"));
  for (int i = 0; i < 5; ++i)
    cache.store("k" + std::to_string(i), "id" + std::to_string(i), records);

  const service::ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.disk_errors, 3u);  // ladder trips at kMaxConsecutiveDiskFailures
  EXPECT_TRUE(c.disk_degraded);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  // The memory tier is untouched: every entry still serves.
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(cache.lookup("k" + std::to_string(i), "id" + std::to_string(i)).has_value());

  // Degradation is for the cache's lifetime — clearing the failpoint does
  // not re-enable a disk that proved unreliable.
  util::failpoints_clear();
  cache.store("k9", "id9", records);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(CacheChaos, OneDiskFailureIsCountedButDoesNotDegrade) {
  FailpointGuard guard;
  const auto dir = temp_dir("cache_one_fail");
  const api::CellRecords records{{{0, true, true}}};
  // Real identities are canonical JSON; the entry file embeds them
  // verbatim, so test identities must be valid JSON too.
  const std::string id1 = R"("id1")", id2 = R"("id2")";
  {
    service::ResultCache cache({dir.string(), 8});
    ASSERT_TRUE(util::failpoints_configure("cache.disk_write=err@1"));
    cache.store("k1", id1, records);  // disk write fails, memory keeps it
    cache.store("k2", id2, records);  // success resets the ladder
    const service::ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.disk_errors, 1u);
    EXPECT_FALSE(c.disk_degraded);
  }
  // A cold cache sees exactly what reached the disk.
  service::ResultCache cold({dir.string(), 8});
  EXPECT_FALSE(cold.lookup("k1", id1).has_value());
  EXPECT_TRUE(cold.lookup("k2", id2).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CacheChaos, DiskReadFailureIsAMissNotAnAbort) {
  FailpointGuard guard;
  const auto dir = temp_dir("cache_read_fail");
  const api::CellRecords records{{{0, true, true}}};
  const std::string id1 = R"("id1")";
  {
    service::ResultCache cache({dir.string(), 8});
    cache.store("k1", id1, records);
  }
  service::ResultCache cold({dir.string(), 8});
  ASSERT_TRUE(util::failpoints_configure("cache.disk_read=err@1"));
  EXPECT_FALSE(cold.lookup("k1", id1).has_value());  // injected failure
  EXPECT_TRUE(cold.lookup("k1", id1).has_value());   // disk recovered
  const service::ResultCache::Counters c = cold.counters();
  EXPECT_EQ(c.disk_errors, 1u);
  EXPECT_FALSE(c.disk_degraded);
  std::filesystem::remove_all(dir);
}

// ---- region resume under cache disk faults -------------------------------

// regions=4 over two cells: 4 region entries + 1 cell entry per cell.
api::CampaignSpec regioned_spec() {
  api::CampaignSpec s = scalar_spec();
  s.words = 16;  // 64 faults per class, 16 per region
  s.regions = 4;
  s.classes = {{api::ClassKind::Saf, CfScope::Both}, {api::ClassKind::Tf, CfScope::Both}};
  return s;
}

std::set<std::tuple<std::string, std::size_t, bool, bool>> verdicts(
    const api::CollectingSink& sink) {
  std::set<std::tuple<std::string, std::size_t, bool, bool>> out;
  for (const auto& u : sink.units)
    out.emplace(api::to_string(u.cls), u.fault_index, u.detected_all, u.detected_any);
  return out;
}

// Every file in `dir` with its bytes.
std::map<std::string, std::string> snapshot(const std::filesystem::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out[file.path().filename().string()] = bytes.str();
  }
  return out;
}

TEST(ResumeChaos, FailingDiskWritesDegradeAndLeaveStoredRegionsIntact) {
  FailpointGuard guard;
  const auto dir = temp_dir("resume_write");
  const api::CampaignSpec spec = regioned_spec();
  api::CollectingSink clean;
  api::run_campaign(spec, &clean);

  {  // An interrupted run leaves region 0 of the first cell on disk.
    service::ResultCache cache({dir.string()});
    api::CollectingSink cut(/*cancel_after_units=*/20);
    api::run_campaign(spec, &cut, &cache);
  }
  const auto before = snapshot(dir);
  ASSERT_EQ(before.size(), 1u);

  ASSERT_TRUE(util::failpoints_configure("cache.disk_write=err"));
  service::ResultCache cache({dir.string()});
  api::CollectingSink sink;
  testing::internal::CaptureStderr();
  const api::CampaignSummary got = api::run_campaign(spec, &sink, &cache);
  const std::string warnings = testing::internal::GetCapturedStderr();
  util::failpoints_clear();

  // Persistence failed; the campaign itself must be untouched, and the
  // atomic write path must leave the stored region byte-identical.
  EXPECT_FALSE(got.cancelled);
  EXPECT_EQ(verdicts(sink), verdicts(clean));
  EXPECT_EQ(cache.counters().disk_errors, 3u);
  EXPECT_TRUE(cache.counters().disk_degraded);
  EXPECT_NE(warnings.find("warning: result cache disk tier disabled"), std::string::npos);
  EXPECT_EQ(snapshot(dir), before);

  // With the failpoint gone the same directory resumes from region 0.
  service::ResultCache healthy({dir.string()});
  api::CollectingSink again;
  api::CacheStats stats;
  api::run_campaign(spec, &again, &healthy, &stats);
  EXPECT_EQ(stats.faults_replayed, 16u);
  EXPECT_EQ(verdicts(again), verdicts(clean));
  EXPECT_EQ(snapshot(dir).size(), 10u);  // 2 cells x (4 regions + 1 whole)
  std::filesystem::remove_all(dir);
}

TEST(ResumeChaos, FailedWholeCellReadFallsBackToRegionEntries) {
  FailpointGuard guard;
  const auto dir = temp_dir("resume_read");
  const api::CampaignSpec spec = regioned_spec();
  api::CollectingSink clean;
  {
    service::ResultCache cache({dir.string()});
    api::run_campaign(spec, &clean, &cache);
  }
  const auto before = snapshot(dir);
  ASSERT_EQ(before.size(), 10u);

  // The first read is the first cell's whole entry: it fails, the cell is
  // rebuilt from its four region entries, and nothing simulates.
  ASSERT_TRUE(util::failpoints_configure("cache.disk_read=err@1"));
  service::ResultCache cache({dir.string()});
  api::CollectingSink sink;
  api::CacheStats stats;
  EXPECT_FALSE(api::run_campaign(spec, &sink, &cache, &stats).cancelled);
  util::failpoints_clear();

  EXPECT_EQ(verdicts(sink), verdicts(clean));
  EXPECT_EQ(stats.cells_simulated, 0u);
  EXPECT_EQ(stats.faults_replayed, 128u);
  EXPECT_EQ(cache.counters().disk_errors, 1u);
  EXPECT_FALSE(cache.counters().disk_degraded);
  EXPECT_EQ(snapshot(dir), before);
  std::filesystem::remove_all(dir);
}

// ---- engine faults become typed errors ------------------------------------

TEST(EngineChaos, PageAllocOomBecomesATypedResourceError) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("page.alloc=oom@1"));
  api::CollectingSink sink;
  try {
    api::run_campaign(scalar_spec(), &sink);
    FAIL() << "expected CampaignError";
  } catch (const api::CampaignError& e) {
    EXPECT_EQ(e.error().category, api::ErrorCategory::Resource);
    EXPECT_TRUE(e.error().retryable);
  }
  // The stream ended in an error record, not a campaign_end.
  ASSERT_EQ(sink.errors.size(), 1u);
  EXPECT_EQ(sink.errors[0].category, api::ErrorCategory::Resource);
  EXPECT_EQ(sink.ends, 0u);

  // The failure was the one-shot injection: the same campaign now runs.
  util::failpoints_clear();
  api::CollectingSink clean;
  EXPECT_NO_THROW(api::run_campaign(scalar_spec(), &clean));
  EXPECT_EQ(clean.ends, 1u);
}

TEST(EngineChaos, WorkerDeathBecomesATypedEngineError) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("campaign.worker=err"));
  api::CampaignSpec spec = scalar_spec();
  spec.threads = 2;
  api::CollectingSink sink;
  try {
    api::run_campaign(spec, &sink);
    FAIL() << "expected CampaignError";
  } catch (const api::CampaignError& e) {
    EXPECT_EQ(e.error().category, api::ErrorCategory::Engine);
    EXPECT_TRUE(e.error().retryable);
    EXPECT_NE(e.error().detail.find("injected worker failure"), std::string::npos);
  }
  ASSERT_EQ(sink.errors.size(), 1u);
  EXPECT_EQ(sink.errors[0].category, api::ErrorCategory::Engine);
}

// A failure in the third repack round, after round 2's report batch: the
// stream is that batch — a prefix of the fault-free stream — followed by
// the error record.
TEST(EngineChaos, MidCampaignFailureStreamsAUnitPrefixThenTheError) {
  FailpointGuard guard;
  const api::CampaignSpec spec = multi_round_spec();
  std::ostringstream full_out;
  api::JsonLinesSink full_sink(full_out);
  api::run_campaign(spec, &full_sink);
  const std::vector<std::string> full = split_lines(full_out.str());

  ASSERT_TRUE(util::failpoints_configure("campaign.worker=err@3"));
  std::ostringstream out;
  api::JsonLinesSink sink(out);
  EXPECT_THROW(api::run_campaign(spec, &sink), api::CampaignError);
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_GE(lines.size(), 3u) << "no unit record preceded the failure";
  ASSERT_LT(lines.size(), full.size());
  EXPECT_EQ(lines.front(), full.front());  // campaign_begin
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("{\"type\":\"unit\"", 0), 0u) << lines[i];
    EXPECT_EQ(lines[i], full[i]);
  }
  EXPECT_EQ(lines.back().rfind("{\"type\":\"error\",\"scope\":\"engine\"", 0), 0u)
      << lines.back();
}

// Four threads over four region jobs of four rounds each (a verdict
// matrix keeps every fault live to the last round) and 66 units per
// job round: workers move between jobs as rounds open, yet each hits the
// campaign.worker failpoint at most once per job round, 4 x 16 hits in
// all, so a trigger one hit later never fires.
TEST(EngineChaos, WorkerFailpointHitsOncePerWorkerPerRound) {
  FailpointGuard guard;
  const std::vector<Fault> faults = all_tfs(1024, 8);
  CoverageOptions options;
  options.backend = CoverageBackend::Packed;
  options.threads = 4;
  options.regions = 4;
  const CampaignRunner runner(1024, 8, options);
  for (int run = 0; run < 5; ++run) {
    ASSERT_TRUE(util::failpoints_configure("campaign.worker=err@65"));
    EXPECT_NO_THROW(runner.matrix(SchemeKind::ProposedSymmetricXor, march_by_name("March C-"),
                                  faults, {0, 1, 2, 3}))
        << "run " << run;
    EXPECT_EQ(util::failpoint_trips("campaign.worker"), 0u);
  }
}

TEST(EngineChaos, SpecValidationStillThrowsItsOwnType) {
  // The typed-error wrapper must not swallow the pre-run validation
  // contract: callers branch on SpecValidationError's field paths.
  api::CampaignSpec bad = scalar_spec();
  bad.words = 0;
  EXPECT_THROW(api::run_campaign(bad), api::SpecValidationError);
}

// ---- run.deadline_ms ------------------------------------------------------

TEST(DeadlineChaos, DeadlineRoundTripsThroughSpecJsonOnlyWhenSet) {
  api::CampaignSpec s = scalar_spec();
  EXPECT_EQ(api::to_json(s).find("deadline_ms"), std::string::npos);
  s.deadline_ms = 1500;
  const std::string json = api::to_json(s);
  EXPECT_NE(json.find("\"deadline_ms\": 1500"), std::string::npos);
  const auto parsed = api::specs_from_json(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], s);
}

TEST(DeadlineChaos, UnexpiredDeadlineChangesNothing) {
  api::CampaignSpec spec = scalar_spec();
  spec.deadline_ms = 60'000;
  api::CollectingSink sink;
  const api::CampaignSummary summary = api::run_campaign(spec, &sink);
  EXPECT_FALSE(summary.cancelled);
  EXPECT_FALSE(summary.timed_out);
  EXPECT_EQ(sink.units.size(), 8u);
}

TEST(DeadlineChaos, TimedOutCampaignEmitsAnExactPrefixOfTheFaultFreeStream) {
  api::CollectingSink full;
  api::run_campaign(big_scalar_spec(), &full);
  ASSERT_EQ(full.units.size(), 2048u);

  api::CampaignSpec limited = big_scalar_spec();
  limited.deadline_ms = 1;
  api::CollectingSink cut;
  const api::CampaignSummary summary = api::run_campaign(limited, &cut);

  // THE acceptance criterion: the deadline is an outcome, not an error —
  // begin and end both fire, the summary carries timed_out (which implies
  // cancelled), and the streamed records are exactly the first K of the
  // fault-free run.
  EXPECT_TRUE(summary.timed_out);
  EXPECT_TRUE(summary.cancelled);
  EXPECT_EQ(cut.begins, 1u);
  EXPECT_EQ(cut.ends, 1u);
  EXPECT_TRUE(cut.errors.empty());
  ASSERT_LT(cut.units.size(), full.units.size());
  for (std::size_t i = 0; i < cut.units.size(); ++i) {
    EXPECT_EQ(cut.units[i].scheme, full.units[i].scheme);
    EXPECT_EQ(cut.units[i].cls, full.units[i].cls);
    EXPECT_EQ(cut.units[i].fault_index, full.units[i].fault_index);
    EXPECT_EQ(cut.units[i].detected_all, full.units[i].detected_all);
    EXPECT_EQ(cut.units[i].detected_any, full.units[i].detected_any);
  }
}

TEST(DeadlineChaos, JsonLinesEndRecordCarriesTimedOut) {
  std::ostringstream out;
  api::JsonLinesSink sink(out);
  api::run_campaign(scalar_spec(), &sink);
  EXPECT_NE(out.str().find("\"timed_out\":false"), std::string::npos);

  api::CampaignSpec limited = big_scalar_spec();
  limited.deadline_ms = 1;
  std::ostringstream tout;
  api::JsonLinesSink tsink(tout);
  api::run_campaign(limited, &tsink);
  EXPECT_NE(tout.str().find("\"timed_out\":true"), std::string::npos);
}

// ---- service under chaos ---------------------------------------------------

class ServiceChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::failpoints_clear();
    dir_ = temp_dir(std::string("svc_") +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }

  void TearDown() override {
    util::failpoints_clear();
    stop_server();
    std::filesystem::remove_all(dir_);
  }

  std::uint16_t start_server(service::ServerConfig config = {}) {
    if (config.cache_dir.empty()) config.cache_dir = dir_.string();
    server_ = std::make_unique<service::ServiceServer>(std::move(config));
    const std::uint16_t port = server_->start();
    serve_thread_ = std::thread([this] { server_->serve_forever(); });
    return port;
  }

  void stop_server() {
    if (server_) server_->stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  service::LineClient connect(std::uint16_t port) {
    service::LineClient c;
    std::string error;
    EXPECT_TRUE(c.connect("127.0.0.1", port, &error)) << error;
    return c;
  }

  std::filesystem::path dir_;
  std::unique_ptr<service::ServiceServer> server_;
  std::thread serve_thread_;
};

TEST_F(ServiceChaosTest, SyntheticEintrOnEverySocketCallIsInvisible) {
  // Every send/recv/accept gets one synthetic EINTR before the real call:
  // the retry loops must make the whole exchange byte-for-byte normal.
  ASSERT_TRUE(
      util::failpoints_configure("socket.send=eintr;socket.recv=eintr;socket.accept=eintr"));
  const auto port = start_server();
  service::LineClient c = connect(port);
  ASSERT_TRUE(c.send_line(service::submit_frame(scalar_spec())));
  std::vector<std::string> lines;
  while (true) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line) << "stream ended before the terminator";
    lines.push_back(*line);
    if (line->find("\"type\":\"campaign_stats\"") != std::string::npos) break;
    ASSERT_FALSE(service::parse_error_frame(*line).has_value()) << *line;
  }
  // begin + 8 units + end + stats.
  EXPECT_EQ(lines.size(), 11u);
}

TEST_F(ServiceChaosTest, AcceptFailureDropsOneConnectionNotTheDaemon) {
  const auto port = start_server();
  ASSERT_TRUE(util::failpoints_configure("socket.accept=err@1"));
  service::LineClient first;
  // The kernel completes the handshake, then the injected accept failure
  // hangs up; connect() may or may not observe it, recv always does.
  first.connect("127.0.0.1", port);
  EXPECT_FALSE(first.recv_line().has_value());

  service::LineClient second = connect(port);
  ASSERT_TRUE(second.send_line(service::ping_frame()));
  const auto pong = second.recv_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_NE(pong->find("\"type\":\"pong\""), std::string::npos);
}

// The failpoint is configured only once the accept loop is provably back in
// accept (a completed ping round trip on another connection): it must hit
// the next connection, not the one after.  The probe is a raw socket with a
// receive timeout, so a connection the daemon wrongly serves fails the case
// (EAGAIN) instead of hanging it.
TEST_F(ServiceChaosTest, AcceptFailpointSetWhileTheLoopWaitsHitsTheNextConnection) {
  const auto port = start_server();
  service::LineClient warm = connect(port);
  ASSERT_TRUE(warm.send_line(service::ping_frame()));
  ASSERT_TRUE(warm.recv_line().has_value());
  ASSERT_TRUE(util::failpoints_configure("socket.accept=err@1"));

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // The handshake completes in the kernel whatever accept does next.
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string ping = service::ping_frame() + "\n";
  (void)::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL);
  char byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  const int err = errno;
  ::close(fd);
  if (n < 0) {
    EXPECT_NE(err, EAGAIN) << "the connection was served: the failpoint missed it";
    EXPECT_NE(err, EWOULDBLOCK) << "the connection was served: the failpoint missed it";
  } else {
    EXPECT_EQ(n, 0) << "the daemon answered a connection it should have dropped";
  }

  // The daemon lives on, and so does the connection it served before.
  service::LineClient after = connect(port);
  ASSERT_TRUE(after.send_line(service::ping_frame()));
  EXPECT_TRUE(after.recv_line().has_value());
  ASSERT_TRUE(warm.send_line(service::ping_frame()));
  EXPECT_TRUE(warm.recv_line().has_value());
}

TEST_F(ServiceChaosTest, EngineFaultReachesTheClientAsARetryableErrorFrame) {
  const auto port = start_server();
  service::LineClient c = connect(port);

  ASSERT_TRUE(util::failpoints_configure("page.alloc=oom@1"));
  ASSERT_TRUE(c.send_line(service::submit_frame(scalar_spec())));
  std::optional<service::ErrorInfo> info;
  while (true) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line) << "connection died instead of delivering the typed error";
    info = service::parse_error_frame(*line);
    if (info) break;
    ASSERT_EQ(line->find("\"type\":\"campaign_stats\""), std::string::npos)
        << "campaign completed despite the injected OOM";
  }
  EXPECT_EQ(info->scope, "resource");
  EXPECT_TRUE(info->retryable);
  EXPECT_EQ(server_->counters().campaigns_failed, 1u);

  // `retryable` is honest: the connection survived and the resubmit (the
  // one-shot failpoint is spent) completes.
  util::failpoints_clear();
  ASSERT_TRUE(c.send_line(service::submit_frame(scalar_spec())));
  bool completed = false;
  while (true) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line);
    if (line->find("\"type\":\"campaign_stats\"") != std::string::npos) {
      completed = true;
      break;
    }
    ASSERT_FALSE(service::parse_error_frame(*line).has_value()) << *line;
  }
  EXPECT_TRUE(completed);
}

// The same mid-campaign failure over the socket, where the sink writes no
// in-stream error record: the records delivered before the failure still
// reach the client — a prefix of the fault-free stream — ahead of the
// protocol-level error frame.
TEST_F(ServiceChaosTest, MidCampaignFailureStreamsAUnitPrefixThenTheErrorFrame) {
  const auto port = start_server();
  service::LineClient c = connect(port);
  const api::CampaignSpec spec = multi_round_spec();

  const auto drain = [&c](std::vector<std::string>& lines) {
    while (true) {
      const auto line = c.recv_line();
      if (!line) return false;
      lines.push_back(*line);
      if (service::parse_error_frame(*line) ||
          line->find("\"type\":\"campaign_stats\"") != std::string::npos)
        return true;
    }
  };

  ASSERT_TRUE(util::failpoints_configure("campaign.worker=err@3"));
  ASSERT_TRUE(c.send_line(service::submit_frame(spec)));
  std::vector<std::string> cut;
  ASSERT_TRUE(drain(cut)) << "connection died instead of delivering the typed error";
  const auto info = service::parse_error_frame(cut.back());
  ASSERT_TRUE(info.has_value()) << cut.back();
  EXPECT_EQ(info->scope, "engine");

  util::failpoints_clear();
  ASSERT_TRUE(c.send_line(service::submit_frame(spec)));
  std::vector<std::string> full;
  ASSERT_TRUE(drain(full));
  ASSERT_NE(full.back().find("\"type\":\"campaign_stats\""), std::string::npos);

  ASSERT_GE(cut.size(), 3u) << "no unit record preceded the error frame";
  ASSERT_LT(cut.size(), full.size());
  for (std::size_t i = 0; i + 1 < cut.size(); ++i) EXPECT_EQ(cut[i], full[i]);
  EXPECT_EQ(cut[1].rfind("{\"type\":\"unit\"", 0), 0u) << cut[1];
}

TEST_F(ServiceChaosTest, IdleClientIsDroppedWithATypedTimeoutFrame) {
  service::ServerConfig config;
  config.idle_timeout_ms = 100;
  const auto port = start_server(std::move(config));
  service::LineClient c = connect(port);
  // Send nothing: the server must cut us loose, with the reason first.
  const auto line = c.recv_line();
  ASSERT_TRUE(line.has_value());
  const auto info = service::parse_error_frame(*line);
  ASSERT_TRUE(info.has_value()) << *line;
  EXPECT_EQ(info->scope, "timeout");
  EXPECT_TRUE(info->retryable);
  EXPECT_FALSE(c.recv_line().has_value());  // then hung up
  EXPECT_EQ(server_->counters().clients_timed_out, 1u);

  // A fresh connection that does talk is served normally.
  service::LineClient again = connect(port);
  ASSERT_TRUE(again.send_line(service::ping_frame()));
  EXPECT_TRUE(again.recv_line().has_value());
}

// ---- CLI plumbing ---------------------------------------------------------

TEST(ChaosCli, FailpointsFlagRejectsMalformedSpecs) {
  FailpointGuard guard;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"simd", "--failpoints", "cache.disk_write=bogus"}, out, err), 1);
  EXPECT_NE(err.str().find("--failpoints"), std::string::npos);
}

TEST(ChaosCli, FailpointsFlagArmsTheRegistryForAnyCommand) {
  FailpointGuard guard;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"simd", "--failpoints", "cache.disk_write=err@2"}, out, err), 0);
  const std::vector<std::string> want = {"cache.disk_write"};
  EXPECT_EQ(util::failpoint_names(), want);
}

TEST(ChaosCli, RunDeadlineOverrideReportsTimedOut) {
  api::CampaignSpec spec = big_scalar_spec();
  const std::string path = ::testing::TempDir() + "twm_chaos_deadline_spec.json";
  {
    std::ofstream f(path);
    f << api::to_json(spec);
  }
  std::ostringstream out, err;
  const int rc =
      run_cli({"run", path, "--sink", "jsonl", "--deadline-ms", "1"}, out, err);
  EXPECT_EQ(rc, 0);  // a deadline is an outcome, not an error
  EXPECT_NE(out.str().find("\"timed_out\":true"), std::string::npos);
  std::remove(path.c_str());
}

// --failpoints reaches the packed engine's page allocator whatever lane
// width the spec names: an "auto" run dies on the injected allocation
// failure with the typed resource error, like a "64" one.
TEST(ChaosCli, PackedAutoRunPageAllocOomIsAResourceError) {
  FailpointGuard guard;
  api::CampaignSpec spec = big_scalar_spec();
  spec.backend = CoverageBackend::Packed;
  spec.simd = simd::Request::Auto;
  const std::string path = ::testing::TempDir() + "twm_chaos_packed_auto_spec.json";
  {
    std::ofstream f(path);
    f << api::to_json(spec);
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"run", path, "--failpoints", "page.alloc=oom@1"}, out, err), 1);
  EXPECT_NE(err.str().find("error: resource:"), std::string::npos) << err.str();
  std::remove(path.c_str());
}

TEST(ChaosCli, SubmitRetriesWithBackoffBeforeGivingUp) {
  std::ostringstream out, err;
  // Nothing listens on port 1: every attempt is a fast connect refusal.
  const int rc = run_cli(
      {"submit", "--stats", "--port", "1", "--retries", "2", "--backoff-ms", "1"}, out, err);
  EXPECT_EQ(rc, 1);
  std::size_t warnings = 0;
  for (std::size_t pos = 0; (pos = err.str().find("retrying in", pos)) != std::string::npos;
       ++pos)
    ++warnings;
  EXPECT_EQ(warnings, 2u) << err.str();
  EXPECT_NE(err.str().find("error: connect failed"), std::string::npos) << err.str();
}

}  // namespace
}  // namespace twm
