// Tiled (array-of-lane-blocks) backend equivalence and the allocation-free
// round-rebuild contract.
//
// The TiledEngine is PackedEngineT over LaneTile<Inner, T>
// (memsim/lane_tile.h): 4096 fault universes per machine pass, with the
// inner block width cpuid-selected at dispatch.  Everything the
// single-block widths promise must survive the tiling unchanged:
//
//   * VerdictMatrix byte-equality with the scheduler-free oracle, for all
//     eight schemes (the differential proof obligation of every new
//     backend — docs/ARCHITECTURE.md, "Authoring a backend"),
//   * partial-tile last batches (a fault list far smaller than one tile
//     must keep lane 0 golden and report no phantom universes),
//   * settle-exit + per-lane retirement inside a tile across many seeds,
//   * the allocation-free round rebuild: adding seed rounds must not add
//     page allocations (CampaignStats::page_allocs stays flat).
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "core/simd.h"
#include "march/library.h"
#include "oracle.h"

namespace twm {
namespace {

constexpr std::size_t kWords = 4;
constexpr unsigned kWidth = 4;

std::vector<Fault> every_fault() {
  std::vector<Fault> faults;
  for (auto& f : all_safs(kWords, kWidth)) faults.push_back(f);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  for (FaultClass cls : {FaultClass::CFst, FaultClass::CFid, FaultClass::CFin})
    for (auto& f : all_cfs(kWords, kWidth, cls, CfScope::Both)) faults.push_back(f);
  for (auto& f : all_rets(kWords, kWidth, 1)) faults.push_back(f);
  for (auto& f : all_afs(kWords)) faults.push_back(f);
  return faults;
}

CoverageOptions opts(CoverageBackend backend, simd::Request simd) {
  CoverageOptions o;
  o.backend = backend;
  o.threads = 1;
  o.simd = simd;
  return o;
}

VerdictMatrix run_matrix(SchemeKind k, const MarchTest& march, const std::vector<Fault>& faults,
                         const std::vector<std::uint64_t>& seeds, const CoverageOptions& o) {
  return CampaignRunner(kWords, kWidth, o).matrix(k, march, faults, seeds);
}

class TiledEngineFixture : public ::testing::Test {
 protected:
  MarchTest march = march_by_name("March C-");
  std::vector<Fault> faults = every_fault();
  std::vector<std::uint64_t> seeds{0, 7};
};

// The headline contract: scalar, 64-lane, widest-supported single-block and
// tiled backends produce verdict matrices byte-identical to the oracle for
// all eight schemes.  The whole fault list fits inside one partial
// 4096-lane tile, so the tile's used-mask path is exercised throughout.
TEST_F(TiledEngineFixture, MatrixByteIdenticalAcrossBackendsForEveryScheme) {
  std::vector<simd::Request> packed{simd::Request::W64};
  if (simd::supported(simd::best_width()) && simd::best_width() != simd::Width::W64)
    packed.push_back(simd::Request::Auto);  // widest single-block width
  packed.push_back(simd::Request::Tiled4096);
  for (SchemeKind k : kAllSchemes) {
    const VerdictMatrix want = oracle_matrix(k, march, kWords, kWidth, faults, seeds);
    EXPECT_EQ(want.bits,
              run_matrix(k, march, faults, seeds,
                         opts(CoverageBackend::Scalar, simd::Request::Auto)).bits)
        << to_string(k) << " on the scalar backend";
    for (simd::Request r : packed) {
      const VerdictMatrix m =
          run_matrix(k, march, faults, seeds, opts(CoverageBackend::Packed, r));
      EXPECT_EQ(want.bits, m.bits) << to_string(k) << " at --simd " << simd::to_string(r);
    }
  }
}

// A fault list of three faults in a 4095-slot tile: lane 0 stays golden,
// verdicts match, and the aggregate counts report no phantom universes.
TEST_F(TiledEngineFixture, PartialTileFarSmallerThanOneUnit) {
  const std::vector<Fault> few{faults[0], faults[40], faults[100]};
  const CampaignRunner tiled(kWords, kWidth,
                             opts(CoverageBackend::Packed, simd::Request::Tiled4096));
  EXPECT_EQ(oracle_per_fault(SchemeKind::ProposedExact, march, kWords, kWidth, few, seeds),
            tiled.per_fault(SchemeKind::ProposedExact, march, few, seeds));
  const auto counts = tiled.evaluate(SchemeKind::ProposedExact, march, few, seeds);
  EXPECT_EQ(counts.total, few.size());
  EXPECT_LE(counts.detected_any, few.size()) << "phantom universes in the partial tile";
}

// Settle-exit and per-lane fault retirement act inside a tile; the oracle
// runs every session full length.  Equality proves retirement never
// changes a verdict at tile width (SessionBrake monotonicity).
TEST_F(TiledEngineFixture, SettleExitInsideTileMatchesTheOracle) {
  const std::vector<std::uint64_t> many_seeds{0, 3, 7, 11};
  EXPECT_EQ(oracle_matrix(SchemeKind::ProposedExact, march, kWords, kWidth, faults, many_seeds)
                .bits,
            run_matrix(SchemeKind::ProposedExact, march, faults, many_seeds,
                       opts(CoverageBackend::Packed, simd::Request::Tiled4096))
                .bits);
}

// The allocation-free round rebuild: worker memories persist across seed
// rounds, so a campaign with three times the rounds performs exactly the
// same number of fresh page allocations (the free-list absorbs every
// refill).  This pins the CampaignStats::page_allocs contract the
// scheduler documents.
TEST_F(TiledEngineFixture, RoundRebuildAllocatesNoNewPages) {
  for (simd::Request r : {simd::Request::W64, simd::Request::Tiled4096}) {
    CampaignStats short_run, long_run;
    const std::vector<std::uint64_t> two{0, 7};
    const std::vector<std::uint64_t> six{0, 7, 11, 13, 17, 19};
    CampaignRunner(kWords, kWidth, opts(CoverageBackend::Packed, r))
        .per_fault(SchemeKind::ProposedExact, march, faults, two, &short_run);
    CampaignRunner(kWords, kWidth, opts(CoverageBackend::Packed, r))
        .per_fault(SchemeKind::ProposedExact, march, faults, six, &long_run);
    EXPECT_GT(short_run.page_allocs.load(), 0u) << simd::to_string(r);
    EXPECT_EQ(short_run.page_allocs.load(), long_run.page_allocs.load())
        << "extra rounds allocated pages at --simd " << simd::to_string(r);
  }
}

}  // namespace
}  // namespace twm
