// Tests for TWM_TA (Algorithm 1): structure against the paper's Sec. 4
// worked example (March U, B = 8), the ATMarch construction, and the
// transparency invariant across the catalog and word widths.
#include <gtest/gtest.h>

#include "bist/engine.h"
#include "core/twm_ta.h"
#include "march/library.h"
#include "march/parser.h"
#include "march/printer.h"
#include "memsim/memory.h"
#include "util/backgrounds.h"
#include "util/rng.h"

namespace twm {
namespace {

TEST(TwmTa, RejectsBadInputs) {
  EXPECT_THROW(twm_transform(MarchTest{}, 8), std::invalid_argument);  // Abort branch
  EXPECT_THROW(twm_transform(march_by_name("March U"), 12), std::invalid_argument);
  EXPECT_THROW(twm_transform(march_by_name("March U"), 0), std::invalid_argument);
}

TEST(TwmTa, MarchUExampleFromPaper) {
  // Sec. 4: SMarch U ends with a Write, so a Read is appended; TSMarch U
  // then has 13 operations, the content equals the initial data, and
  // TWMarch U totals 29 operations per word for B = 8.
  const TwmResult r = twm_transform(march_by_name("March U"), 8);

  EXPECT_EQ(r.smarch.op_count(), 14u);  // 13 + appended read
  EXPECT_TRUE(r.smarch.last_op()->is_read());

  EXPECT_EQ(r.tsmarch.op_count(), 13u);  // init element removed
  EXPECT_TRUE(r.tsmarch.is_transparent());
  EXPECT_FALSE(r.final_content_inverted);

  EXPECT_EQ(r.atmarch.op_count(), 5u * 3u + 1u);  // 3 sweeps + closing read
  EXPECT_EQ(r.twmarch.op_count(), 29u);           // the paper's 29N
}

TEST(TwmTa, TsmarchUStructureMatchesPaper) {
  const TwmResult r = twm_transform(march_by_name("March U"), 8);
  EXPECT_EQ(to_string(r.tsmarch),
            "TSMarch U: { up(r(a),w(~a),r(~a),w(a)); up(r(a),w(~a)); "
            "down(r(~a),w(a),r(a),w(~a)); down(r(~a),w(a),r(a)) }");
}

TEST(TwmTa, AtmarchPatternsMatchPaper) {
  const TwmResult r = twm_transform(march_by_name("March U"), 8);
  ASSERT_EQ(r.atmarch.elements.size(), 4u);
  const auto pattern_of = [&](int k) { return r.atmarch.elements[k].ops[1].data.pattern.to_string(); };
  EXPECT_EQ(pattern_of(0), "01010101");
  EXPECT_EQ(pattern_of(1), "00110011");
  EXPECT_EQ(pattern_of(2), "00001111");
  // Element shape: r a, w a^Dk, r a^Dk, w a, r a.
  const MarchElement& e = r.atmarch.elements[0];
  ASSERT_EQ(e.ops.size(), 5u);
  EXPECT_TRUE(e.ops[0].is_read());
  EXPECT_TRUE(e.ops[0].data.pattern.empty());
  EXPECT_TRUE(e.ops[1].is_write());
  EXPECT_TRUE(e.ops[2].is_read());
  EXPECT_EQ(e.ops[2].data.pattern.to_string(), "01010101");
  EXPECT_TRUE(e.ops[3].is_write());
  EXPECT_TRUE(e.ops[3].data.pattern.empty());
  EXPECT_TRUE(e.ops[4].is_read());
  // Closing element: single read (content == initial branch).
  EXPECT_EQ(r.atmarch.elements[3].ops.size(), 1u);
  EXPECT_TRUE(r.atmarch.elements[3].ops[0].is_read());
}

TEST(TwmTa, MarchCMinusComplexity) {
  // Sec. 5: TWMarch(March C-) for B = 32 costs 35N; prediction has
  // Q_T + 3*log2(B) + 1 = 5 + 16 = 21 reads (measured; the paper's closed
  // form quotes Q + 2*log2(B) = 15 — see DESIGN.md Sec. 4).
  const TwmResult r = twm_transform(march_by_name("March C-"), 32);
  EXPECT_EQ(r.tsmarch.op_count(), 9u);
  EXPECT_EQ(r.twmarch.op_count(), 35u);
  EXPECT_EQ(r.prediction.op_count(), 21u);
  EXPECT_EQ(r.prediction.write_count(), 0u);
}

TEST(TwmTa, InvertedBranchTakenForMats) {
  // MATS leaves ~a after TSMarch (its last write is w1 and no trailing
  // write-back), so ATMarch must run on ~a and restore a at the end.
  const TwmResult r = twm_transform(march_by_name("MATS"), 8);
  EXPECT_TRUE(r.final_content_inverted);
  const MarchElement& sweep = r.atmarch.elements.front();
  EXPECT_TRUE(sweep.ops[0].data.complement);  // r ~a
  EXPECT_TRUE(sweep.ops[1].data.complement);  // w ~a^D1
  const MarchElement& closing = r.atmarch.elements.back();
  ASSERT_EQ(closing.ops.size(), 2u);  // r ~a, w a
  EXPECT_TRUE(closing.ops[0].is_read());
  EXPECT_TRUE(closing.ops[0].data.complement);
  EXPECT_TRUE(closing.ops[1].is_write());
  EXPECT_FALSE(closing.ops[1].data.complement);
}

TEST(TwmTa, AtmarchElementCountScalesWithLog2B) {
  for (unsigned w : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const MarchTest a = atmarch(w, false);
    EXPECT_EQ(a.elements.size(), log2_exact(w) + 1) << "width " << w;
    EXPECT_EQ(a.op_count(), 5 * log2_exact(w) + 1) << "width " << w;
  }
  EXPECT_EQ(atmarch(8, true).op_count(), 5u * 3u + 2u);  // restoring close
}

TEST(TwmTa, TwmarchIsWellFormedTransparentTest) {
  for (const auto& name : march_names()) {
    const TwmResult r = twm_transform(march_by_name(name), 16);
    EXPECT_TRUE(r.twmarch.is_transparent()) << name;
    EXPECT_TRUE(r.twmarch.every_element_begins_with_read()) << name;
    EXPECT_EQ(r.prediction.write_count(), 0u) << name;
    EXPECT_EQ(r.prediction.read_count(), r.twmarch.read_count()) << name;
  }
}

// --- transparency + no-false-alarm sweep --------------------------------

struct TwmCase {
  std::string march;
  unsigned width;
  std::uint64_t seed;
};

class TwmProperty : public ::testing::TestWithParam<TwmCase> {};

TEST_P(TwmProperty, TransparentAndFalseAlarmFree) {
  const auto& pc = GetParam();
  Rng rng(pc.seed);
  Memory mem(10, pc.width);
  mem.fill_random(rng);
  const auto snapshot = mem.snapshot();

  const TwmResult r = twm_transform(march_by_name(pc.march), pc.width);
  MarchRunner runner(mem);
  const auto out = runner.run_transparent_session(r.twmarch, r.prediction, pc.width);

  EXPECT_FALSE(out.detected_exact);
  EXPECT_FALSE(out.detected_misr);
  EXPECT_TRUE(mem.equals(snapshot)) << "content not restored";
}

std::vector<TwmCase> twm_cases() {
  std::vector<TwmCase> cases;
  std::uint64_t seed = 7;
  for (const auto& info : march_catalog())
    for (unsigned w : {2u, 4u, 8u, 16u, 32u, 64u, 128u})
      cases.push_back({info.name, w, seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CatalogByWidth, TwmProperty, ::testing::ValuesIn(twm_cases()),
                         [](const ::testing::TestParamInfo<TwmCase>& info) {
                           std::string n =
                               info.param.march + "_w" + std::to_string(info.param.width);
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// The TWMarch content trajectory never depends on what the initial content
// is: two memories with different contents end up back at their own
// contents with the same signature *difference* structure (both zero).
TEST(TwmTa, TransparencyHoldsForAdversarialContents) {
  const TwmResult r = twm_transform(march_by_name("March C-"), 8);
  for (const std::string pat : {"00000000", "11111111", "01010101", "00110011"}) {
    Memory mem(6, 8);
    mem.load(std::vector<BitVec>(6, BitVec::from_string(pat)));
    const auto snapshot = mem.snapshot();
    MarchRunner runner(mem);
    const auto out = runner.run_transparent_session(r.twmarch, r.prediction, 8);
    EXPECT_FALSE(out.detected_exact) << pat;
    EXPECT_TRUE(mem.equals(snapshot)) << pat;
  }
}

}  // namespace
}  // namespace twm
