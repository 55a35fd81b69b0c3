// Region-sharded scheduling and region-grain resume (the huge-memory
// campaign surface): the fault list split by victim address slice must
// merge to verdicts byte-identical to the scheduler-free oracle for every
// backend, a cached campaign interrupted mid-run must resume by replaying
// its stored regions instead of re-simulating them, and the whole-cell
// cache identity must be unchanged by the shard count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "api/spec.h"
#include "march/library.h"
#include "memsim/packed_memory.h"
#include "oracle.h"
#include "service/cache.h"

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
      for (const unsigned regions : {1u, 4u}) {
        CoverageOptions opt;
        opt.backend = backend;
        opt.threads = 2;
        opt.regions = regions;
        const VerdictMatrix got =
            CampaignRunner(words, width, opt).matrix(scheme, march, faults, seeds);
        ASSERT_EQ(got.num_faults, want.num_faults);
        ASSERT_EQ(got.num_seeds, want.num_seeds);
        EXPECT_EQ(got.bits, want.bits)
            << scheme_id(scheme) << " " << to_string(backend) << " regions=" << regions;
      }
    }
  }
}

TEST(RegionShardingTest, StatsSumAcrossRegions) {
  // The sharded run simulates exactly the same fault set — the
  // forward-progress counters must sum to the unsharded run's.
  const std::size_t words = 32;
  const unsigned width = 2;
  const MarchTest march = march_by_name("March C-");
  const std::vector<Fault> faults = all_safs(words, width);
  const std::vector<std::uint64_t> seeds = {0, 1};

  CoverageOptions base;
  base.backend = CoverageBackend::Packed;
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
  // The scheduler reports the peak slots (words) any worker held: at most
  // one unit's footprint, two words per fault lane.
  EXPECT_GT(s4.pages_peak.load(), 0u);
  EXPECT_LE(s4.pages_peak.load(), std::min<std::size_t>(words, 2 * 63));
}

TEST(RegionShardingTest, PackedSlotsAreBoundedByTheFaultFootprint) {
  // Large geometry, faults confined to a handful of spread-out words: each
  // unit walks only its fault footprint, so only the footprint's words ever
  // hold slots, and they hold lane masks — the huge-memory memory-budget
  // claim, measurable.
  const std::size_t words = 64 * 1024;
  const unsigned width = 2;
  const MarchTest march = march_by_name("March C-");
  std::vector<Fault> faults;
  for (std::size_t w = 0; w < words; w += words / 8)  // 8 spread-out words
    for (unsigned b = 0; b < width; ++b)
      for (bool v : {false, true})
        faults.push_back(Fault::saf(CellAddr{static_cast<std::uint32_t>(w), b}, v));

  CoverageOptions opt;
  opt.backend = CoverageBackend::Packed;
  opt.regions = 4;
  CampaignStats stats;
  const auto v = CampaignRunner(words, width, opt)
                     .per_fault(SchemeKind::ProposedExact, march, faults, {0}, &stats);
  EXPECT_EQ(v, std::vector<bool>(faults.size(), true));
  // At most the 8 footprint words (2 per region, really) hold slots at
  // all, and every slot a packed memory holds is lane masks.
  EXPECT_LE(stats.pages_peak.load(), 8u);
  EXPECT_LE(stats.addresses_walked.load(), 2 * stats.lane_slots.load());
  EXPECT_GT(stats.packed_pages_peak.load(), 0u);
  EXPECT_EQ(stats.packed_pages_peak.load(), stats.pages_peak.load());
}

// ---- region-grain resume through the cell cache ---------------------------

// The symmetric scheme misses many TFs, so the verdict stream is
// non-trivial (a broken merge/replay cannot hide behind all-detected).
CampaignSpec regioned_spec() {
  CampaignSpec s;
  s.name = "resume-test";
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

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("twm_resume_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

// Unit count of every entry file in a cache directory, keyed by the
// entry's region (-1 = a whole-cell entry).
std::multimap<int, std::size_t> disk_entries(const std::filesystem::path& dir) {
  std::multimap<int, std::size_t> out;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path());
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue doc = json_parse(text.str());
    const JsonValue* region = doc.find("identity")->find("region");
    out.emplace(region ? static_cast<int>(*region->as_u64()) : -1,
                doc.find("units")->items().size());
  }
  return out;
}

TEST(CacheResumeTest, InterruptedCampaignResumesAtRegionGrain) {
  const auto dir = fresh_dir("interrupted");
  const CampaignSpec spec = regioned_spec();

  // Reference: the uncached, uncancelled run.  Not all-detected —
  // otherwise the verdict-equality assertions below prove nothing.
  CollectingSink reference;
  const CampaignSummary want = run_campaign(spec, &reference);
  ASSERT_EQ(reference.units.size(), 256u);
  ASSERT_EQ(want.cells.size(), 1u);
  ASSERT_LT(want.cells[0].outcome.detected_all, want.cells[0].outcome.total);
  ASSERT_GT(want.cells[0].outcome.detected_all, 0u);

  {
    service::ResultCache cache({dir.string()});
    // Interrupt during region 1: region 0's 64 units settled, so the cache
    // must hold exactly the region-0 entry (a cancelled region is never
    // stored, nor is the incomplete cell).
    CollectingSink interrupted(/*cancel_after_units=*/100);
    EXPECT_TRUE(run_campaign(spec, &interrupted, &cache).cancelled);
    EXPECT_EQ(disk_entries(dir), (std::multimap<int, std::size_t>{{0, 64}}));

    // Resume: region 0 replays, the rest simulate; the merged stream and
    // aggregates equal the reference.
    CollectingSink resumed;
    CacheStats stats;
    const CampaignSummary done = run_campaign(spec, &resumed, &cache, &stats);
    EXPECT_FALSE(done.cancelled);
    EXPECT_EQ(stats.cells_simulated, 1u);
    EXPECT_EQ(stats.faults_replayed, 64u);
    ASSERT_EQ(resumed.units.size(), 256u);
    EXPECT_EQ(verdicts_by_fault(resumed.units), verdicts_by_fault(reference.units));
    ASSERT_EQ(done.cells.size(), 1u);
    EXPECT_EQ(done.cells[0].outcome.detected_all, want.cells[0].outcome.detected_all);
    EXPECT_EQ(done.cells[0].outcome.detected_any, want.cells[0].outcome.detected_any);
    // Every region is stored, and the completed cell whole.
    EXPECT_EQ(disk_entries(dir), (std::multimap<int, std::size_t>{
                                     {-1, 256}, {0, 64}, {1, 64}, {2, 64}, {3, 64}}));
  }

  // A daemon restart (a fresh cache on the same directory) replays without
  // simulating anything: a sink that cancels after ONE unit still receives
  // the complete stream, which is only possible if no unit ran live.
  service::ResultCache restarted({dir.string()});
  CollectingSink replay_only(/*cancel_after_units=*/1);
  CacheStats stats;
  const CampaignSummary replayed = run_campaign(spec, &replay_only, &restarted, &stats);
  EXPECT_EQ(stats.cells_simulated, 0u);
  EXPECT_EQ(replay_only.units.size(), 256u);
  EXPECT_EQ(verdicts_by_fault(replay_only.units), verdicts_by_fault(reference.units));
  ASSERT_EQ(replayed.cells.size(), 1u);
  EXPECT_EQ(replayed.cells[0].outcome.detected_all, want.cells[0].outcome.detected_all);
  std::filesystem::remove_all(dir);
}

TEST(CacheResumeTest, RegionEntriesOfAnotherSpecOrRegionCountAreIgnored) {
  const auto dir = fresh_dir("mismatch");
  service::ResultCache cache({dir.string()});
  // Leave the region-0 entry of regioned_spec() and nothing else.
  CollectingSink interrupted(/*cancel_after_units=*/100);
  run_campaign(regioned_spec(), &interrupted, &cache);
  ASSERT_EQ(disk_entries(dir).size(), 1u);

  // Other seeds, or the same spec cut into another region count: no entry
  // matches, so everything simulates and the verdicts are untouched.
  CampaignSpec other = regioned_spec();
  other.seeds = {5, 6};
  CampaignSpec recut = regioned_spec();
  recut.regions = 2;
  for (const CampaignSpec& spec : {other, recut}) {
    CollectingSink sink, direct;
    CacheStats stats;
    const CampaignSummary summary = run_campaign(spec, &sink, &cache, &stats);
    EXPECT_FALSE(summary.cancelled);
    EXPECT_EQ(stats.faults_replayed, 0u) << "regions=" << spec.regions;
    EXPECT_EQ(stats.cells_simulated, 1u);
    run_campaign(spec, &direct);
    EXPECT_EQ(verdicts_by_fault(sink.units), verdicts_by_fault(direct.units));
  }
  std::filesystem::remove_all(dir);
}

// ---- cache identity and region-entry validation ----------------------------

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

TEST(CacheResumeTest, InvalidRegionEntriesSimulateInsteadOfReplaying) {
  const CampaignSpec spec = regioned_spec();
  CollectingSink reference;
  const CampaignSummary want = run_campaign(spec, &reference);

  // Region 1's true records, stored under the right identity.
  const std::vector<Fault> faults =
      build_fault_list(spec.classes[0], spec.words, spec.width);
  std::vector<CachedUnit> good;
  std::uint64_t foreign = 0;  // a fault region 0 owns
  for (const auto& u : reference.units) {
    const unsigned r = fault_region(faults[u.fault_index], spec.words, spec.regions);
    if (r == 1)
      good.push_back({static_cast<std::uint32_t>(u.fault_index), u.detected_all, u.detected_any});
    if (r == 0) foreign = u.fault_index;
  }
  ASSERT_EQ(good.size(), 64u);
  const std::string rid = region_identity_json(
      cell_identity_json(spec, spec.schemes[0], spec.classes[0]), 1, spec.regions);

  std::vector<CachedUnit> short_count(good.begin(), good.end() - 1);
  std::vector<CachedUnit> out_of_range = good, other_region = good, duplicate = good;
  out_of_range[5].fault_index = faults.size();
  other_region[5].fault_index = foreign;
  duplicate[5].fault_index = duplicate[6].fault_index;
  const std::vector<std::pair<const char*, std::vector<CachedUnit>>> cases = {
      {"intact", good},
      {"wrong count", short_count},
      {"index out of range", out_of_range},
      {"fault of another region", other_region},
      {"duplicate index", duplicate}};
  for (const auto& [label, units] : cases) {
    MapCache cache;
    cache.store(content_key(rid), rid, {units});
    CollectingSink sink;
    CacheStats stats;
    const CampaignSummary got = run_campaign(spec, &sink, &cache, &stats);
    // Only the intact entry replays; every broken one re-simulates its
    // region, with the verdicts of the reference either way.
    EXPECT_EQ(stats.faults_replayed, std::string(label) == "intact" ? 64u : 0u) << label;
    EXPECT_EQ(stats.cells_simulated, 1u) << label;
    ASSERT_EQ(sink.units.size(), 256u) << label;
    EXPECT_EQ(verdicts_by_fault(sink.units), verdicts_by_fault(reference.units)) << label;
    ASSERT_EQ(got.cells.size(), 1u);
    EXPECT_EQ(got.cells[0].outcome.detected_all, want.cells[0].outcome.detected_all) << label;
    EXPECT_EQ(got.cells[0].outcome.detected_any, want.cells[0].outcome.detected_any) << label;
  }
}

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
