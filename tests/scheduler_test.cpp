// Tests for the campaign scheduler (analysis/campaign_exec.h
// run_campaign_engine + analysis/campaign.cpp dispatch):
//
//   * the hard invariant — every scheme x backend cell, at regions 1 and 4,
//     gives a VerdictMatrix byte-identical to the scheduler-free oracle
//     (tests/oracle.h),
//   * structural fault collapsing (analysis/fault_list.h collapse_faults,
//     an analysis off the run path): bucket structure of each rule, and
//     members of one bucket share the oracle's verdict row,
//   * the scheduler's forward-progress counters (settle-exit actually
//     skips march elements; every fault of the list is simulated).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "core/scheme_session.h"
#include "march/library.h"
#include "march/word_expand.h"
#include "memsim/packed_memory.h"
#include "oracle.h"

namespace twm {
namespace {

constexpr std::size_t kWords = 4;
constexpr unsigned kWidth = 4;

constexpr CoverageBackend kBackends[] = {CoverageBackend::Scalar, CoverageBackend::Packed};

// Every fault class, including RETs (undetected by a Del-free March C-, so
// they exercise the dropping path) and decoder faults.
std::vector<Fault> mixed_faults() {
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  for (auto& f : all_rets(kWords, kWidth, 1)) faults.push_back(f);
  for (auto& f : all_afs(kWords)) faults.push_back(f);
  for (auto& f : all_cfs(kWords, kWidth, FaultClass::CFst, CfScope::Both)) faults.push_back(f);
  for (auto& f : all_cfs(kWords, kWidth, FaultClass::CFin, CfScope::IntraWord))
    faults.push_back(f);
  // Duplicates exercise the always-on dedup rule.
  faults.push_back(faults.front());
  faults.push_back(faults[1]);
  return faults;
}

// The rows of mixed_faults() the scalar backend runs: every fault except
// five of each six CFsts.  All 960 CFsts through every scalar cell would
// dominate the suite's run time under the sanitizers.
std::vector<std::size_t> scalar_rows(const std::vector<Fault>& faults) {
  std::vector<std::size_t> rows;
  std::size_t cfst = 0;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (faults[i].cls != FaultClass::CFst || cfst++ % 6 == 0) rows.push_back(i);
  return rows;
}

template <typename T>
std::vector<T> pick(const std::vector<T>& v, const std::vector<std::size_t>& rows) {
  std::vector<T> out;
  for (std::size_t r : rows) out.push_back(v[r]);
  return out;
}

// The oracle's rows and seeds are independent runs, so one oracle over
// mixed_faults() x {0, 1, 2} per scheme yields the reference for every
// fault subset and seed prefix the tests use.
const std::vector<std::uint64_t> kSeeds{0, 1, 2};

const VerdictMatrix& full_oracle(SchemeKind k) {
  static std::map<SchemeKind, VerdictMatrix> cache;
  auto it = cache.find(k);
  if (it == cache.end())
    it = cache.emplace(k, oracle_matrix(k, march_by_name("March C-"), kWords, kWidth,
                                        mixed_faults(), kSeeds))
             .first;
  return it->second;
}

VerdictMatrix oracle_for(SchemeKind k, const std::vector<std::size_t>& rows,
                         std::size_t num_seeds) {
  const VerdictMatrix& full = full_oracle(k);
  VerdictMatrix m;
  m.num_faults = rows.size();
  m.num_seeds = num_seeds;
  for (std::size_t r : rows)
    for (std::size_t s = 0; s < num_seeds; ++s) m.bits.push_back(full.bits[r * kSeeds.size() + s]);
  return m;
}

std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

CoverageOptions options(CoverageBackend backend, unsigned regions = 1, unsigned threads = 2) {
  return {.backend = backend, .threads = threads, .regions = regions};
}

// --- the hard invariant: every cell == the oracle, byte for byte ---------

TEST(SchedulerDifferential, EveryCellMatchesTheOracleAtRegionsOneAndFour) {
  const MarchTest march = march_by_name("March C-");
  const auto faults = mixed_faults();
  const auto full = all_rows(faults.size());
  const auto sampled = scalar_rows(faults);
  // Seed 0 alone is all-zero contents; the mixed set activates dropping
  // between rounds.
  for (std::size_t num_seeds : {std::size_t{1}, kSeeds.size()}) {
    const std::vector<std::uint64_t> seeds(kSeeds.begin(), kSeeds.begin() + num_seeds);
    for (SchemeKind k : kAllSchemes) {
      for (const CoverageBackend backend : kBackends) {
        const auto& rows = backend == CoverageBackend::Scalar ? sampled : full;
        const VerdictMatrix want = oracle_for(k, rows, num_seeds);
        const auto cell_faults = pick(faults, rows);
        for (unsigned regions : {1u, 4u}) {
          const CampaignRunner runner(kWords, kWidth, options(backend, regions));
          EXPECT_EQ(want.bits, runner.matrix(k, march, cell_faults, seeds).bits)
              << to_string(k) << " " << to_string(backend) << " regions=" << regions
              << " seeds=" << num_seeds;
        }
      }
    }
  }
}

// per_fault exercises the dropping path (no matrix -> undecided faults
// leave the live set between rounds), evaluate the all+any bookkeeping.
TEST(SchedulerDifferential, PerFaultAndAggregatesMatchTheOracle) {
  const MarchTest march = march_by_name("March C-");
  const auto faults = mixed_faults();
  const auto full = all_rows(faults.size());
  const auto sampled = scalar_rows(faults);
  for (SchemeKind k : kAllSchemes) {
    for (const CoverageBackend backend : kBackends) {
      const auto& rows = backend == CoverageBackend::Scalar ? sampled : full;
      const VerdictMatrix want = oracle_for(k, rows, kSeeds.size());
      std::vector<bool> want_all(rows.size());
      std::size_t all = 0, any = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        want_all[i] = want.detected_all(i);
        all += want.detected_all(i);
        any += want.detected_any(i);
      }
      const auto cell_faults = pick(faults, rows);
      const CampaignRunner runner(kWords, kWidth, options(backend));
      EXPECT_EQ(want_all, runner.per_fault(k, march, cell_faults, kSeeds))
          << to_string(k) << " " << to_string(backend);
      const CoverageOutcome got = runner.evaluate(k, march, cell_faults, kSeeds);
      EXPECT_EQ(got.detected_all, all) << to_string(k) << " " << to_string(backend);
      EXPECT_EQ(got.detected_any, any) << to_string(k) << " " << to_string(backend);
      EXPECT_EQ(got.total, rows.size()) << to_string(k);
    }
  }
}

// --- structural fault collapsing ----------------------------------------

// Members of a bucket, counted from the expansion map.
std::size_t bucket_size(const FaultCollapse& fc, std::uint32_t bucket) {
  return static_cast<std::size_t>(std::count(fc.bucket_of.begin(), fc.bucket_of.end(), bucket));
}

TEST(FaultCollapse, DuplicatesAlwaysCollapse) {
  const SchemePlan plan =
      make_scheme_plan(SchemeKind::ProposedMisr, march_by_name("March C-"), kWidth);
  std::vector<Fault> faults{Fault::saf({1, 2}, true), Fault::saf({1, 2}, true),
                            Fault::tf({0, 0}, Transition::Down)};
  // Random contents: only the dedup rule may apply.
  const FaultCollapse fc = collapse_faults(faults, plan, {7});
  ASSERT_EQ(fc.representatives.size(), 2u);
  EXPECT_EQ(fc.bucket_of[0], fc.bucket_of[1]);
  EXPECT_NE(fc.bucket_of[0], fc.bucket_of[2]);
  EXPECT_EQ(bucket_size(fc, fc.bucket_of[0]), 2u);
}

TEST(FaultCollapse, SafTfEquivalenceRequiresZeroContents) {
  const SchemePlan plan =
      make_scheme_plan(SchemeKind::ProposedMisr, march_by_name("March C-"), kWidth);
  std::vector<Fault> faults{Fault::saf({1, 2}, false), Fault::tf({1, 2}, Transition::Up),
                            Fault::saf({1, 2}, true), Fault::tf({1, 2}, Transition::Down)};
  // All-zero contents: a cell that starts at 0 and cannot rise IS stuck-0.
  const FaultCollapse zero = collapse_faults(faults, plan, {0});
  EXPECT_EQ(zero.representatives.size(), 3u);
  EXPECT_EQ(zero.bucket_of[0], zero.bucket_of[1]);
  EXPECT_NE(zero.bucket_of[2], zero.bucket_of[0]);  // SAF1 stays alone
  EXPECT_NE(zero.bucket_of[3], zero.bucket_of[0]);  // TF down stays alone
  // Any random seed disarms the rule.
  const FaultCollapse rnd = collapse_faults(faults, plan, {0, 5});
  EXPECT_EQ(rnd.representatives.size(), 4u);
}

// A hand-built plan with solid data everywhere: bit addresses collapse for
// cell and coupling faults (word-level structure only), decoder faults
// only deduplicate.
TEST(FaultCollapse, BitSymmetricPlanCollapsesBitAddresses) {
  SchemePlan plan;
  plan.scheme = SchemeKind::WordOrientedMarch;
  plan.width = kWidth;
  plan.direct_a = solid_march(march_by_name("March C-"));
  ASSERT_TRUE(plan_bit_symmetric(plan));

  std::vector<Fault> faults;
  for (unsigned b = 0; b < kWidth; ++b) faults.push_back(Fault::saf({2, b}, true));
  for (unsigned b = 0; b < kWidth; ++b) faults.push_back(Fault::tf({1, b}, Transition::Down));
  // Inter-word CFins with every bit placement of the same word pair.
  for (unsigned ab = 0; ab < kWidth; ++ab)
    for (unsigned vb = 0; vb < kWidth; ++vb)
      faults.push_back(Fault::cfin({0, ab}, Transition::Up, {3, vb}));
  faults.push_back(Fault::af_no_access(0));
  faults.push_back(Fault::af_no_access(1));

  const FaultCollapse fc = collapse_faults(faults, plan, {0});
  // One SAF1 bucket, one TF-down bucket, one CFin bucket, two AFs.
  EXPECT_EQ(fc.representatives.size(), 5u);
  EXPECT_EQ(bucket_size(fc, fc.bucket_of[0]), kWidth);
  EXPECT_EQ(bucket_size(fc, fc.bucket_of[2 * kWidth]), static_cast<std::size_t>(kWidth) * kWidth);

  // The predicate rejects the background-bearing plans.
  const SchemePlan twm_plan =
      make_scheme_plan(SchemeKind::ProposedExact, march_by_name("March C-"), kWidth);
  EXPECT_FALSE(plan_bit_symmetric(twm_plan));
  const SchemePlan misr_plan =
      make_scheme_plan(SchemeKind::ProposedMisr, march_by_name("March C-"), kWidth);
  EXPECT_FALSE(plan_bit_symmetric(misr_plan));
}

// TSMarch-only writes solid data, so its generated plan is bit-symmetric:
// a mixed SAF+TF list under all-zero contents is where every collapsing
// rule bites.  The runner simulates the whole list and must equal the
// oracle, and every bucket member must share its representative's row.
TEST(FaultCollapse, SolidPlanRunnerMatchesTheOracleAndBucketsShareRows) {
  const MarchTest march = march_by_name("March C-");
  const SchemePlan plan = make_scheme_plan(SchemeKind::TsmarchOnly, march, kWidth);
  ASSERT_TRUE(plan_bit_symmetric(plan));
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  const std::vector<std::uint64_t> seeds{0};

  const VerdictMatrix want =
      oracle_matrix(SchemeKind::TsmarchOnly, march, kWords, kWidth, faults, seeds);
  for (const CoverageBackend backend : kBackends) {
    const CampaignRunner runner(kWords, kWidth, options(backend));
    EXPECT_EQ(want.bits, runner.matrix(SchemeKind::TsmarchOnly, march, faults, seeds).bits)
        << to_string(backend);
  }

  const FaultCollapse fc = collapse_faults(faults, plan, seeds);
  ASSERT_LT(fc.representatives.size(), faults.size()) << "collapse must bite on this list";
  std::vector<std::size_t> first_of(fc.representatives.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    std::size_t& rep = first_of[fc.bucket_of[i]];
    if (rep == faults.size()) rep = i;
    EXPECT_EQ(want.detected(i, 0), want.detected(rep, 0))
        << faults[i].describe() << " vs " << faults[rep].describe();
  }
}

// --- forward-progress counters ------------------------------------------

TEST(SchedulerStats, SettleExitSkipsElementsAndEveryFaultIsSimulated) {
  const MarchTest march = march_by_name("March C-");
  // All-SAF workload: every fault is detected early in the session, so the
  // settle-exit must cut march elements.
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  const std::vector<std::uint64_t> seeds{0};

  CampaignStats stats;
  const CampaignRunner runner(kWords, kWidth, options(CoverageBackend::Packed, 1, 1));
  std::vector<char> all, any;
  runner.run(SchemeKind::ProposedExact, march, faults, seeds, false, all, any, nullptr, nullptr,
             &stats);
  EXPECT_EQ(stats.faults_simulated.load(), faults.size());
  EXPECT_LT(stats.elements_executed.load(), stats.elements_total.load())
      << "settle-exit must cut march elements";
  EXPECT_GT(stats.units.load(), 0u);
  EXPECT_GT(stats.mean_live_lanes(), 0.0);
}

}  // namespace
}  // namespace twm
