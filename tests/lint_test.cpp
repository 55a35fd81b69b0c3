// Tests for the static march linter, cross-validated against the empirical
// coverage evaluator: the lint must never claim a capability the simulator
// refutes, and must grant it where the simulator proves it.
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "analysis/lint.h"
#include "core/twm_ta.h"
#include "march/generator.h"
#include "march/library.h"
#include "march/parser.h"

namespace twm {
namespace {

TEST(Lint, RejectsTransparentInput) {
  const TwmResult r = twm_transform(march_by_name("March C-"), 4);
  EXPECT_THROW(lint_march(r.twmarch), std::invalid_argument);
}

TEST(Lint, MarchCMinusHasEverything) {
  const MarchLint l = lint_march(march_by_name("March C-"));
  EXPECT_TRUE(l.initializes);
  EXPECT_TRUE(l.consistent);
  EXPECT_TRUE(l.detects_saf);
  EXPECT_TRUE(l.detects_tf);
  EXPECT_TRUE(l.detects_af);
  EXPECT_TRUE(l.full_inter_cf);
  EXPECT_NE(l.summary().find("CF:full"), std::string::npos);
}

TEST(Lint, MatsIsMinimal) {
  const MarchLint l = lint_march(march_by_name("MATS"));
  EXPECT_TRUE(l.detects_saf);
  EXPECT_FALSE(l.detects_tf);   // 1->0 never read-confirmed
  EXPECT_FALSE(l.detects_af);   // no down element
  EXPECT_FALSE(l.full_inter_cf);
}

TEST(Lint, MatsPlusGainsAf) {
  const MarchLint l = lint_march(march_by_name("MATS+"));
  EXPECT_TRUE(l.detects_saf);
  EXPECT_TRUE(l.detects_af);  // up(r0,w1); down(r1,w0)
  EXPECT_FALSE(l.full_inter_cf);
}

TEST(Lint, MarchXGainsTf) {
  const MarchLint l = lint_march(march_by_name("March X"));
  EXPECT_TRUE(l.detects_tf);  // trailing any(r0) confirms the 1->0 write
  EXPECT_TRUE(l.detects_af);
}

TEST(Lint, InconsistentMarchShortCircuits) {
  const MarchLint l = lint_march(parse_march("{ any(w0); up(r1) }"));
  EXPECT_FALSE(l.consistent);
  EXPECT_FALSE(l.detects_saf);
  EXPECT_NE(l.summary().find("INCONSISTENT"), std::string::npos);
}

// Catalog metadata cross-check: the linter agrees with the literature flags
// recorded in the catalog.
TEST(Lint, CatalogCfFlagsMatch) {
  for (const auto& info : march_catalog()) {
    const MarchLint l = lint_march(march_by_name(info.name));
    EXPECT_TRUE(l.consistent) << info.name;
    EXPECT_TRUE(l.detects_saf) << info.name;
    EXPECT_EQ(l.full_inter_cf, info.full_cf_coverage) << info.name;
  }
}

// Empirical cross-validation on the simulator: for every catalog march,
// lint.detects_saf/tf and full_inter_cf must match exhaustive bit-level
// campaigns (width-1 words make inter-word CFs the bit-oriented CFs).
TEST(Lint, EmpiricalCrossValidation) {
  const std::size_t kWords = 4;
  const CampaignRunner eval(kWords, 1);
  const std::vector<std::uint64_t> seed{0};

  for (const auto& info : march_catalog()) {
    const MarchTest m = march_by_name(info.name);
    const MarchLint l = lint_march(m);

    const auto safs = all_safs(kWords, 1);
    const auto saf_cov = eval.evaluate(SchemeKind::WordOrientedMarch, m, safs, seed);
    EXPECT_EQ(l.detects_saf, saf_cov.detected_all == saf_cov.total) << info.name;

    const auto tfs = all_tfs(kWords, 1);
    const auto tf_cov = eval.evaluate(SchemeKind::WordOrientedMarch, m, tfs, seed);
    EXPECT_EQ(l.detects_tf, tf_cov.detected_all == tf_cov.total) << info.name;

    std::size_t cf_total = 0, cf_detected = 0;
    for (FaultClass cls : {FaultClass::CFst, FaultClass::CFid, FaultClass::CFin}) {
      const auto cfs = all_cfs(kWords, 1, cls, CfScope::InterWord);
      const auto cov = eval.evaluate(SchemeKind::WordOrientedMarch, m, cfs, seed);
      cf_total += cov.total;
      cf_detected += cov.detected_all;
    }
    EXPECT_EQ(l.full_inter_cf, cf_detected == cf_total) << info.name << " " << cf_detected
                                                        << "/" << cf_total;
  }
}

// Fuzz: the linter never crashes on generated marches and the consistency
// predicate agrees with the generator's guarantee.
TEST(Lint, FuzzGeneratedMarches) {
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const MarchTest m = random_march(rng);
    const MarchLint l = lint_march(m);
    EXPECT_TRUE(l.consistent) << i;
    EXPECT_TRUE(l.initializes) << i;
  }
}

}  // namespace
}  // namespace twm
