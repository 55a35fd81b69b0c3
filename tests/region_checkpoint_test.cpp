// Region-sharded scheduling and checkpoint/resume (the huge-memory
// campaign surface): the fault list split by victim address slice must
// merge to verdicts byte-identical to the scheduler-free oracle for every
// backend, a checkpointed campaign interrupted mid-run must resume
// by replaying completed regions instead of re-simulating them, and the
// content-addressed cache identity must be unchanged by the shard count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "api/checkpoint.h"
#include "api/runner.h"
#include "api/sink.h"
#include "api/spec.h"
#include "march/library.h"
#include "memsim/packed_memory.h"
#include "oracle.h"

namespace twm::api {
namespace {

// ---- region ownership -------------------------------------------------

TEST(FaultRegionTest, PartitionsByVictimWordSlice) {
  // 100 words, 4 regions -> 25-word slices.
  EXPECT_EQ(fault_region(Fault::saf({0, 0}, true), 100, 4), 0u);
  EXPECT_EQ(fault_region(Fault::saf({24, 0}, true), 100, 4), 0u);
  EXPECT_EQ(fault_region(Fault::saf({25, 0}, true), 100, 4), 1u);
  EXPECT_EQ(fault_region(Fault::saf({99, 0}, true), 100, 4), 3u);
  // Inter-region couplings follow their VICTIM.
  EXPECT_EQ(fault_region(Fault::cfid({99, 0}, Transition::Up, {3, 1}, true), 100, 4), 0u);
  EXPECT_EQ(fault_region(Fault::cfst({0, 0}, true, {99, 1}, false), 100, 4), 3u);
  // regions = 1 is the identity partition.
  EXPECT_EQ(fault_region(Fault::saf({99, 0}, true), 100, 1), 0u);
}

// ---- verdict identity across region counts ------------------------------

TEST(RegionShardingTest, MergedVerdictsAreByteIdenticalToUnsharded) {
  const std::size_t words = 40;
  const unsigned width = 4;
  const MarchTest march = march_by_name("March C-");
  const std::vector<std::uint64_t> seeds = {0, 1, 2};

  // A fault mix that couples across region boundaries.
  std::vector<Fault> faults = all_safs(words, width);
  for (const Fault& f : all_tfs(words, width)) faults.push_back(f);
  faults.push_back(Fault::cfid({39, 0}, Transition::Up, {0, 1}, true));
  faults.push_back(Fault::cfst({0, 2}, true, {39, 3}, false));
  faults.push_back(Fault::af_alias(12, 31));

  // TOMT exercises the parity-ledger path as well.
  for (const SchemeKind scheme : {SchemeKind::ProposedExact, SchemeKind::TomtModel}) {
    const VerdictMatrix want = oracle_matrix(scheme, march, words, width, faults, seeds);
    for (const CoverageBackend backend : {CoverageBackend::Scalar, CoverageBackend::Packed}) {
      for (const bool collapse : {false, true}) {
        for (const unsigned regions : {1u, 4u}) {
          CoverageOptions opt;
          opt.backend = backend;
          opt.threads = 2;
          opt.collapse = collapse;
          opt.regions = regions;
          const VerdictMatrix got =
              CampaignRunner(words, width, opt).matrix(scheme, march, faults, seeds);
          ASSERT_EQ(got.num_faults, want.num_faults);
          ASSERT_EQ(got.num_seeds, want.num_seeds);
          EXPECT_EQ(got.bits, want.bits)
              << scheme_id(scheme) << " " << to_string(backend)
              << (collapse ? "/collapse" : "/no-collapse") << " regions=" << regions;
        }
      }
    }
  }
}

TEST(RegionShardingTest, StatsSumAcrossRegionsWithoutCollapsing) {
  // With collapsing off, the sharded run simulates exactly the same fault
  // set — the forward-progress counters must sum to the unsharded run's.
  const std::size_t words = 32;
  const unsigned width = 2;
  const MarchTest march = march_by_name("March C-");
  const std::vector<Fault> faults = all_safs(words, width);
  const std::vector<std::uint64_t> seeds = {0, 1};

  CoverageOptions base;
  base.backend = CoverageBackend::Packed;
  base.collapse = false;
  CoverageOptions sharded = base;
  sharded.regions = 4;

  CampaignStats s1, s4;
  const auto v1 = CampaignRunner(words, width, base)
                      .per_fault(SchemeKind::ProposedExact, march, faults, seeds, &s1);
  const auto v4 = CampaignRunner(words, width, sharded)
                      .per_fault(SchemeKind::ProposedExact, march, faults, seeds, &s4);
  EXPECT_EQ(v1, v4);
  EXPECT_EQ(s1.faults_simulated.load(), s4.faults_simulated.load());
  EXPECT_EQ(s1.lane_slots.load(), s4.lane_slots.load());
  // The scheduler reports the peak pages any worker materialized.
  EXPECT_GT(s4.pages_peak.load(), 0u);
  EXPECT_LE(s4.pages_peak.load(), (words + kMemPageWords - 1) / kMemPageWords);
}

TEST(RegionShardingTest, PackedPagesAreBoundedByTheFaultFootprint) {
  // Large geometry, faults confined to a handful of spread-out words: the
  // march walk touches every page (in the cheap lane-uniform scalar form)
  // but only the fault footprint is promoted to lane blocks — the
  // huge-memory memory-budget claim, measurable.
  const std::size_t words = 64 * 1024;  // 1024 pages
  const unsigned width = 2;
  const MarchTest march = march_by_name("March C-");
  std::vector<Fault> faults;
  for (std::size_t w = 0; w < words; w += words / 8)  // 8 words, 8 distinct pages
    for (unsigned b = 0; b < width; ++b)
      for (bool v : {false, true}) faults.push_back(Fault::saf(CellAddr{w, b}, v));

  CoverageOptions opt;
  opt.backend = CoverageBackend::Packed;
  opt.regions = 4;
  CampaignStats stats;
  const auto v = CampaignRunner(words, width, opt)
                     .per_fault(SchemeKind::ProposedExact, march, faults, {0}, &stats);
  EXPECT_EQ(v, std::vector<bool>(faults.size(), true));
  // Every page is touched by the walk; at most the 8 footprint pages (2 per
  // region, really) ever hold lane blocks.
  EXPECT_EQ(stats.pages_peak.load(), (words + kMemPageWords - 1) / kMemPageWords);
  EXPECT_GT(stats.packed_pages_peak.load(), 0u);
  EXPECT_LE(stats.packed_pages_peak.load(), 8u);
}

// ---- checkpoint file format ---------------------------------------------

TEST(CheckpointFileTest, RoundTripsAndRejectsForeignFiles) {
  const std::string path = "checkpoint_roundtrip_test.json";
  std::remove(path.c_str());

  EXPECT_FALSE(load_checkpoint(path).has_value()) << "missing file is not an error";

  CheckpointFile file;
  file.regions = 4;
  file.cells.push_back({"{\"cell\":\"a\"}", 0, {{0, true, true}, {1, false, true}}});
  file.cells.push_back({"{\"cell\":\"a\"}", 2, {{9, true, true}}});
  save_checkpoint(path, file);

  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->regions, 4u);
  ASSERT_EQ(loaded->cells.size(), 2u);
  EXPECT_EQ(loaded->cells[0].identity, "{\"cell\":\"a\"}");
  EXPECT_EQ(loaded->cells[0].region, 0u);
  EXPECT_EQ(loaded->cells[0].units,
            (std::vector<CachedUnit>{{0, true, true}, {1, false, true}}));
  EXPECT_EQ(loaded->cells[1].region, 2u);

  // A truncated/garbage file degrades to "no checkpoint", never to wrong
  // results or a crash.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"checkpoint\":1,\"engine\":\"";
  }
  EXPECT_FALSE(load_checkpoint(path).has_value());

  // A foreign engine revision is not resumable (its verdicts may differ).
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"checkpoint":1,"engine":"other-engine","regions":4,"cells":[]})";
  }
  EXPECT_FALSE(load_checkpoint(path).has_value());

  // An unknown format version is not resumable either.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"checkpoint\":2,\"engine\":\"" << engine_revision()
        << "\",\"regions\":4,\"cells\":[]}";
  }
  EXPECT_FALSE(load_checkpoint(path).has_value());

  // A region index out of range poisons the whole file.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"checkpoint\":1,\"engine\":\"" << engine_revision()
        << "\",\"regions\":2,\"cells\":[{\"identity\":\"x\",\"region\":2,\"units\":[]}]}";
  }
  EXPECT_FALSE(load_checkpoint(path).has_value());

  std::remove(path.c_str());
}

// ---- checkpoint/resume through run_campaign ------------------------------

// The symmetric scheme misses many TFs, so the verdict stream is
// non-trivial (a broken merge/replay cannot hide behind all-detected).
CampaignSpec regioned_spec() {
  CampaignSpec s;
  s.name = "checkpoint-test";
  s.words = 32;
  s.width = 4;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedSymmetricXor};
  s.classes = {{ClassKind::Tf, CfScope::Both}};  // 32*4*2 = 256 faults
  s.seeds = {0, 1};
  s.backend = CoverageBackend::Scalar;
  s.threads = 1;
  s.regions = 4;  // 64 faults per region
  return s;
}

std::map<std::uint64_t, std::pair<bool, bool>> verdicts_by_fault(
    const std::vector<CollectingSink::StoredUnit>& units) {
  std::map<std::uint64_t, std::pair<bool, bool>> out;
  for (const auto& u : units) out[u.fault_index] = {u.detected_all, u.detected_any};
  return out;
}

TEST(CheckpointResumeTest, InterruptedCampaignResumesWithoutChangingVerdicts) {
  const std::string path = "checkpoint_resume_test.json";
  std::remove(path.c_str());
  const CampaignSpec spec = regioned_spec();

  // Reference: the uncheckpointed, uncancelled run.  Not all-detected —
  // otherwise the verdict-equality assertions below prove nothing.
  CollectingSink reference;
  const CampaignSummary want = run_campaign(spec, &reference);
  ASSERT_EQ(reference.units.size(), 256u);
  ASSERT_EQ(want.cells.size(), 1u);
  ASSERT_LT(want.cells[0].outcome.detected_all, want.cells[0].outcome.total);
  ASSERT_GT(want.cells[0].outcome.detected_all, 0u);

  // Interrupt during region 1: region 0's 64 units settled, so the
  // checkpoint must hold exactly region 0 (a cancelled region is never
  // reported done).
  CollectingSink interrupted(/*cancel_after_units=*/100);
  const CampaignSummary cancelled =
      run_campaign(spec, &interrupted, nullptr, nullptr, path);
  EXPECT_TRUE(cancelled.cancelled);
  {
    const auto ck = load_checkpoint(path);
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->regions, 4u);
    ASSERT_EQ(ck->cells.size(), 1u) << "only region 0 completed before the cancel";
    EXPECT_EQ(ck->cells[0].region, 0u);
    EXPECT_EQ(ck->cells[0].units.size(), 64u);
  }

  // Resume: completed regions replay, the rest simulate; the merged stream
  // and aggregates equal the reference.
  CollectingSink resumed;
  const CampaignSummary done = run_campaign(spec, &resumed, nullptr, nullptr, path);
  EXPECT_FALSE(done.cancelled);
  ASSERT_EQ(resumed.units.size(), 256u);
  EXPECT_EQ(verdicts_by_fault(resumed.units), verdicts_by_fault(reference.units));
  ASSERT_EQ(done.cells.size(), 1u);
  EXPECT_EQ(done.cells[0].outcome.detected_all, want.cells[0].outcome.detected_all);
  EXPECT_EQ(done.cells[0].outcome.detected_any, want.cells[0].outcome.detected_any);

  // The finished file holds every region.
  {
    const auto ck = load_checkpoint(path);
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->cells.size(), 4u);
  }

  // A fully-checkpointed campaign replays without simulating anything: a
  // sink that cancels after ONE unit still receives the complete stream,
  // which is only possible if no unit ran live.
  CollectingSink replay_only(/*cancel_after_units=*/1);
  const CampaignSummary replayed = run_campaign(spec, &replay_only, nullptr, nullptr, path);
  EXPECT_EQ(replay_only.units.size(), 256u);
  ASSERT_EQ(replayed.cells.size(), 1u);
  EXPECT_EQ(replayed.cells[0].outcome.detected_all, want.cells[0].outcome.detected_all);

  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, ForeignOrMismatchedCheckpointIsIgnored) {
  const std::string path = "checkpoint_mismatch_test.json";
  std::remove(path.c_str());
  const CampaignSpec spec = regioned_spec();

  // Complete a checkpoint, then run a DIFFERENT spec against it: no entry
  // matches the new identities, so everything simulates and the verdicts
  // are untouched.
  run_campaign(spec, nullptr, nullptr, nullptr, path);
  CampaignSpec other = regioned_spec();
  other.seeds = {5, 6};
  CollectingSink fresh;
  const CampaignSummary summary = run_campaign(other, &fresh, nullptr, nullptr, path);
  EXPECT_EQ(fresh.units.size(), 256u);
  EXPECT_FALSE(summary.cancelled);

  CollectingSink direct;
  run_campaign(other, &direct);
  EXPECT_EQ(verdicts_by_fault(fresh.units), verdicts_by_fault(direct.units));

  // A checkpoint denominated in a different region count is ignored too:
  // the run simulates from scratch and matches its own unsharded verdicts.
  CampaignSpec recut = regioned_spec();
  recut.regions = 2;
  CollectingSink recut_sink;
  run_campaign(recut, &recut_sink, nullptr, nullptr, path);
  CollectingSink recut_direct;
  run_campaign(recut, &recut_direct);
  EXPECT_EQ(verdicts_by_fault(recut_sink.units), verdicts_by_fault(recut_direct.units));

  std::remove(path.c_str());
}

// ---- cache identity across region counts ----------------------------------

class MapCache : public CellCache {
 public:
  std::optional<CellRecords> lookup(const std::string& key,
                                    const std::string& identity) override {
    const auto it = store_.find(key);
    if (it == store_.end() || it->second.first != identity) return std::nullopt;
    return it->second.second;
  }
  void store(const std::string& key, const std::string& identity,
             const CellRecords& records) override {
    store_[key] = {identity, records};
  }

 private:
  std::map<std::string, std::pair<std::string, CellRecords>> store_;
};

TEST(RegionShardingTest, CacheCellsAreSharedAcrossRegionCounts) {
  // Region sharding is execution-transparent, so a cell simulated at
  // regions=1 must replay for the same spec at regions=4 — zero
  // re-simulation, identical aggregates.
  CampaignSpec spec = regioned_spec();
  spec.regions = 1;
  spec.classes = {{ClassKind::Saf, CfScope::Both}, {ClassKind::Tf, CfScope::Both}};

  MapCache cache;
  CacheStats first_stats;
  const CampaignSummary first = run_campaign(spec, nullptr, &cache, &first_stats);
  EXPECT_EQ(first_stats.cells_simulated, 2u);
  EXPECT_EQ(first_stats.cells_cached, 0u);

  spec.regions = 4;
  CacheStats second_stats;
  const CampaignSummary second = run_campaign(spec, nullptr, &cache, &second_stats);
  EXPECT_EQ(second_stats.cells_simulated, 0u);
  EXPECT_EQ(second_stats.cells_cached, 2u);
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(second.cells[i].outcome.total, first.cells[i].outcome.total);
    EXPECT_EQ(second.cells[i].outcome.detected_all, first.cells[i].outcome.detected_all);
    EXPECT_EQ(second.cells[i].outcome.detected_any, first.cells[i].outcome.detected_any);
  }
}

}  // namespace
}  // namespace twm::api
