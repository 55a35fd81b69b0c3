// Empirical reproduction of the Sec. 5 fault-coverage analysis.
//
// The strongest checkable form of the paper's theorem: with all-zero
// contents (seed 0) the transparent TWMarch session issues exactly the port
// traffic of the nontransparent SMarch+AMarch reference, so per-fault
// verdicts must agree bit-for-bit.  On top of that we check the absolute
// coverage levels per fault class and the ablation that motivates ATMarch.
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "march/library.h"
#include "memsim/memory.h"

namespace twm {
namespace {

constexpr std::size_t kWords = 4;
constexpr unsigned kWidth = 4;

class CoverageFixture : public ::testing::Test {
 protected:
  const CampaignRunner eval{kWords, kWidth};
  MarchTest march = march_by_name("March C-");
  std::vector<std::uint64_t> zero_seed{0};
  std::vector<std::uint64_t> random_seeds{1, 2, 3};
};

TEST_F(CoverageFixture, SafFullCoverageEverywhere) {
  const auto faults = all_safs(kWords, kWidth);
  for (SchemeKind k :
       {SchemeKind::NontransparentReference, SchemeKind::WordOrientedMarch,
        SchemeKind::ProposedExact, SchemeKind::ProposedMisr, SchemeKind::Scheme1Exact,
        SchemeKind::TomtModel}) {
    const auto out = eval.evaluate(k, march, faults, random_seeds);
    EXPECT_EQ(out.detected_all, out.total) << to_string(k);
  }
}

TEST_F(CoverageFixture, TfFullCoverageEverywhere) {
  const auto faults = all_tfs(kWords, kWidth);
  for (SchemeKind k :
       {SchemeKind::NontransparentReference, SchemeKind::WordOrientedMarch,
        SchemeKind::ProposedExact, SchemeKind::ProposedMisr, SchemeKind::Scheme1Exact,
        SchemeKind::TomtModel}) {
    const auto out = eval.evaluate(k, march, faults, random_seeds);
    EXPECT_EQ(out.detected_all, out.total) << to_string(k);
  }
}

TEST_F(CoverageFixture, InterWordCfsFullCoverageForProposed) {
  for (FaultClass cls : {FaultClass::CFst, FaultClass::CFid, FaultClass::CFin}) {
    const auto faults = all_cfs(kWords, kWidth, cls, CfScope::InterWord);
    const auto ref =
        eval.evaluate(SchemeKind::NontransparentReference, march, faults, random_seeds);
    const auto prop = eval.evaluate(SchemeKind::ProposedExact, march, faults, random_seeds);
    EXPECT_EQ(ref.detected_all, ref.total) << to_string(cls);
    EXPECT_EQ(prop.detected_all, prop.total) << to_string(cls);
  }
}

TEST_F(CoverageFixture, IntraWordCfinFullCoverage) {
  const auto faults = all_cfs(kWords, kWidth, FaultClass::CFin, CfScope::IntraWord);
  const auto ref = eval.evaluate(SchemeKind::NontransparentReference, march, faults, random_seeds);
  const auto prop = eval.evaluate(SchemeKind::ProposedExact, march, faults, random_seeds);
  EXPECT_EQ(ref.detected_all, ref.total);
  EXPECT_EQ(prop.detected_all, prop.total);
}

// A fault "rests visible" when merely injecting it distorts the stored
// contents (e.g. CFst<0;1> with the aggressor resting in state 0).  A
// nontransparent march sees such distortion against its golden data; a
// transparent test by construction treats whatever it first reads as the
// reference, so the distortion is invisible unless the test *activates*
// the fault.  The paper's equality theorem is about activated faults.
bool rests_visible(const Fault& f, std::size_t words, unsigned width) {
  Memory m(words, width);
  m.inject(f);
  for (std::size_t a = 0; a < words; ++a)
    if (!m.peek(a).all_zero()) return true;
  return false;
}

// The theorem itself: per-fault verdict equality between TWMarch and the
// SMarch+AMarch reference on the reference's own content, for every fault
// that does not pre-distort the resting contents.
TEST_F(CoverageFixture, TheoremPerFaultEqualityAtZeroContent) {
  std::vector<Fault> faults;
  for (auto& f : all_safs(kWords, kWidth)) faults.push_back(f);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  for (FaultClass cls : {FaultClass::CFst, FaultClass::CFid, FaultClass::CFin})
    for (auto& f : all_cfs(kWords, kWidth, cls, CfScope::Both)) faults.push_back(f);

  const auto ref =
      eval.per_fault(SchemeKind::NontransparentReference, march, faults, zero_seed);
  const auto prop = eval.per_fault(SchemeKind::ProposedExact, march, faults, zero_seed);
  ASSERT_EQ(ref.size(), prop.size());

  std::size_t activated = 0, resting = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (rests_visible(faults[i], kWords, kWidth)) {
      ++resting;
      // Golden-data comparison must catch a resting distortion outright.
      EXPECT_TRUE(ref[i]) << faults[i].describe();
    } else {
      ++activated;
      EXPECT_EQ(ref[i], prop[i]) << faults[i].describe();
    }
  }
  EXPECT_GT(activated, 0u);
  EXPECT_GT(resting, 0u);  // the nuance is actually exercised
}

TEST_F(CoverageFixture, TheoremHoldsForMarchUToo) {
  const MarchTest u = march_by_name("March U");
  std::vector<Fault> faults = all_cfs(kWords, kWidth, FaultClass::CFid, CfScope::Both);
  const auto ref = eval.per_fault(SchemeKind::NontransparentReference, u, faults, zero_seed);
  const auto prop = eval.per_fault(SchemeKind::ProposedExact, u, faults, zero_seed);
  EXPECT_EQ(ref, prop);
}

// Ablation (Fig. 1(b) motivation): without ATMarch the intra-word CF
// coverage collapses; ATMarch restores it to the reference level.
TEST_F(CoverageFixture, AtmarchAblation) {
  for (FaultClass cls : {FaultClass::CFst, FaultClass::CFid}) {
    const auto faults = all_cfs(kWords, kWidth, cls, CfScope::IntraWord);
    const auto solo = eval.evaluate(SchemeKind::TsmarchOnly, march, faults, zero_seed);
    const auto full = eval.evaluate(SchemeKind::ProposedExact, march, faults, zero_seed);
    EXPECT_LT(solo.detected_all, full.detected_all) << to_string(cls);
  }
}

// The MISR checker matches exact stream comparison on this campaign (no
// aliasing event at these sizes; signatures are 4 bits wide only in the
// word MISR sense — the evaluator uses width-of-word MISRs).
TEST_F(CoverageFixture, MisrMatchesExactOnSafTf) {
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  const auto exact = eval.per_fault(SchemeKind::ProposedExact, march, faults, random_seeds);
  const auto misr = eval.per_fault(SchemeKind::ProposedMisr, march, faults, random_seeds);
  EXPECT_EQ(exact, misr);
}

// Detection of every fault class must not depend on which content the
// memory happens to hold, for the classes the analysis shows are
// content-independent (SAF, TF, CFin, inter-word CFs).
TEST_F(CoverageFixture, ContentIndependenceWhereClaimed) {
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  for (auto& f : all_cfs(kWords, kWidth, FaultClass::CFin, CfScope::Both)) faults.push_back(f);
  const auto out = eval.evaluate(SchemeKind::ProposedExact, march, faults,
                                 {0, 11, 22, 33, 44});
  EXPECT_EQ(out.detected_all, out.detected_any);
  EXPECT_EQ(out.detected_all, out.total);
}

// The full word-oriented march (log2(B)+1 backgrounds, each inverted) is
// strictly stronger on intra-word CFst than the cheaper SMarch+AMarch
// reference — a nuance the paper's complexity win trades away.
TEST_F(CoverageFixture, WordOrientedMarchStrongestOnIntraCfst) {
  const auto faults = all_cfs(kWords, kWidth, FaultClass::CFst, CfScope::IntraWord);
  const auto wo = eval.evaluate(SchemeKind::WordOrientedMarch, march, faults, zero_seed);
  const auto ref = eval.evaluate(SchemeKind::NontransparentReference, march, faults, zero_seed);
  EXPECT_EQ(wo.detected_all, wo.total);
  EXPECT_GE(wo.detected_all, ref.detected_all);
}

TEST_F(CoverageFixture, EvaluatorRejectsEmptySeeds) {
  EXPECT_THROW(eval.evaluate(SchemeKind::ProposedExact, march, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace twm
