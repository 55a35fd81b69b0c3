// Backend equivalence for the campaign runner: the bit-parallel packed
// backend must reproduce the scalar per-fault verdict vector exactly — for
// every scheme, under zero and random contents, single- and multi-threaded.  This is
// what keeps the batched fast path differentially checkable.
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "march/library.h"
#include "memsim/memory.h"

namespace twm {
namespace {

constexpr std::size_t kWords = 4;
constexpr unsigned kWidth = 4;

// kAllSchemes comes from core/scheme_session.h: the sweep covers all eight
// Sec. 5 schemes.

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

class CoverageBackendFixture : public ::testing::Test {
 protected:
  static CampaignRunner run(const CoverageOptions& options = {}) {
    return CampaignRunner(kWords, kWidth, options);
  }
  MarchTest march = march_by_name("March C-");
  std::vector<Fault> faults = every_fault();
};

// The headline contract: verdict-for-verdict equality between backends for
// all eight schemes.  The fault list spans every Fault kind (including
// decoder faults) and more than one 63-fault batch, so partial batches are
// exercised too.
TEST_F(CoverageBackendFixture, PerFaultVerdictsMatchScalarForEveryScheme) {
  ASSERT_GT(faults.size(), 63u) << "fault list must span multiple packed batches";
  const std::vector<std::uint64_t> seeds{0, 7};
  for (SchemeKind k : kAllSchemes) {
    const auto scalar = run().per_fault(k, march, faults, seeds);
    const auto packed = run({CoverageBackend::Packed, 1}).per_fault(k, march, faults, seeds);
    EXPECT_EQ(scalar, packed) << to_string(k);
  }
}

// A fault list smaller than one batch: lane 0 must stay golden and no
// phantom universes may be reported (the partial-batch used_mask
// contract).
TEST_F(CoverageBackendFixture, PartialBatchSmallerThanOneUnitMatchesScalar) {
  const std::vector<Fault> few{faults[0], faults[40], faults[100]};
  const std::vector<std::uint64_t> seeds{0, 3};
  const auto scalar = run().per_fault(SchemeKind::ProposedExact, march, few, seeds);
  ASSERT_EQ(scalar.size(), few.size());
  const CampaignRunner packed = run({CoverageBackend::Packed, 1});
  EXPECT_EQ(scalar, packed.per_fault(SchemeKind::ProposedExact, march, few, seeds));
  const auto counts = packed.evaluate(SchemeKind::ProposedExact, march, few, seeds);
  EXPECT_EQ(counts.total, few.size());
  EXPECT_LE(counts.detected_any, few.size()) << "phantom universes";
}

// Decoder faults (AFna/AFaw) flow through the batched port distortion; the
// differential covers both nontransparent and transparent schemes.
TEST_F(CoverageBackendFixture, DecoderFaultsAgree) {
  const auto afs = all_afs(kWords);
  const std::vector<std::uint64_t> seeds{0, 5};
  for (SchemeKind k : {SchemeKind::NontransparentReference, SchemeKind::WordOrientedMarch,
                       SchemeKind::ProposedExact, SchemeKind::ProposedMisr,
                       SchemeKind::TomtModel}) {
    const auto scalar = run().per_fault(k, march, afs, seeds);
    const auto packed = run({CoverageBackend::Packed, 2}).per_fault(k, march, afs, seeds);
    EXPECT_EQ(scalar, packed) << to_string(k);
  }
}

TEST_F(CoverageBackendFixture, EvaluateCountsMatchScalarForEveryScheme) {
  const std::vector<std::uint64_t> seeds{0, 3, 9};
  for (SchemeKind k : kAllSchemes) {
    const auto scalar = run().evaluate(k, march, faults, seeds);
    const auto packed = run({CoverageBackend::Packed, 1}).evaluate(k, march, faults, seeds);
    EXPECT_EQ(scalar.total, packed.total) << to_string(k);
    EXPECT_EQ(scalar.detected_all, packed.detected_all) << to_string(k);
    EXPECT_EQ(scalar.detected_any, packed.detected_any) << to_string(k);
  }
}

// Thread count must never change results (batches are independent).
TEST_F(CoverageBackendFixture, ThreadCountDoesNotChangeVerdicts) {
  const std::vector<std::uint64_t> seeds{0, 5};
  for (unsigned threads : {2u, 4u}) {
    const auto one = run({CoverageBackend::Packed, 1})
                         .per_fault(SchemeKind::ProposedExact, march, faults, seeds);
    const auto many = run({CoverageBackend::Packed, threads})
                          .per_fault(SchemeKind::ProposedExact, march, faults, seeds);
    EXPECT_EQ(one, many) << threads << " threads";
  }
  // The scalar backend shards across threads too.
  const auto scalar1 =
      run({CoverageBackend::Scalar, 1}).per_fault(SchemeKind::TomtModel, march, faults, {0});
  const auto scalar4 =
      run({CoverageBackend::Scalar, 4}).per_fault(SchemeKind::TomtModel, march, faults, {0});
  EXPECT_EQ(scalar1, scalar4);
}

// A different march exercises different transforms through the same packed
// plan machinery.
TEST_F(CoverageBackendFixture, BackendsAgreeOnMarchU) {
  const MarchTest u = march_by_name("March U");
  const std::vector<std::uint64_t> seeds{0, 2};
  for (SchemeKind k : {SchemeKind::NontransparentReference, SchemeKind::ProposedExact,
                       SchemeKind::ProposedMisr, SchemeKind::Scheme1Exact}) {
    const auto scalar = run().per_fault(k, u, faults, seeds);
    const auto packed = run({CoverageBackend::Packed, 2}).per_fault(k, u, faults, seeds);
    EXPECT_EQ(scalar, packed) << to_string(k);
  }
}

// Data-retention faults need march "Del" pauses to activate; March G has
// them.  The packed RET aging path must agree with the scalar one.
TEST_F(CoverageBackendFixture, RetentionFaultsAgreeUnderMarchG) {
  const MarchTest g = march_by_name("March G");
  const auto rets = all_rets(kWords, kWidth, 1);
  const std::vector<std::uint64_t> seeds{0, 4};
  for (SchemeKind k : {SchemeKind::NontransparentReference, SchemeKind::ProposedExact}) {
    const auto scalar = run().per_fault(k, g, rets, seeds);
    const auto packed = run({CoverageBackend::Packed, 1}).per_fault(k, g, rets, seeds);
    EXPECT_EQ(scalar, packed) << to_string(k);
  }
}

// A fault "rests visible" when merely injecting it distorts the stored
// contents; the coverage-equality theorem speaks about the other
// (activated) faults — see coverage_test.cpp.  Re-proved here through the
// packed backend: the seed-0 zero-contents theorem check.
TEST_F(CoverageBackendFixture, TheoremPerFaultEqualityAtZeroContentViaPackedBackend) {
  auto rests_visible = [](const Fault& f) {
    Memory m(kWords, kWidth);
    m.inject(f);
    for (std::size_t a = 0; a < kWords; ++a)
      if (!m.peek(a).all_zero()) return true;
    return false;
  };

  const CoverageOptions packed{CoverageBackend::Packed, 2};
  const std::vector<std::uint64_t> zero_seed{0};
  const auto ref =
      run(packed).per_fault(SchemeKind::NontransparentReference, march, faults, zero_seed);
  const auto prop = run(packed).per_fault(SchemeKind::ProposedExact, march, faults, zero_seed);
  ASSERT_EQ(ref.size(), prop.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].cls == FaultClass::RET) continue;  // March C- has no Del
    if (rests_visible(faults[i]))
      EXPECT_TRUE(ref[i]) << faults[i].describe();
    else
      EXPECT_EQ(ref[i], prop[i]) << faults[i].describe();
  }
}

TEST_F(CoverageBackendFixture, PackedRejectsEmptySeeds) {
  EXPECT_THROW(
      run({CoverageBackend::Packed, 2}).evaluate(SchemeKind::ProposedExact, march, faults, {}),
      std::invalid_argument);
}

TEST_F(CoverageBackendFixture, BackendNamesRoundTrip) {
  EXPECT_EQ(to_string(CoverageBackend::Scalar), "scalar");
  EXPECT_EQ(to_string(CoverageBackend::Packed), "packed");
}

}  // namespace
}  // namespace twm
