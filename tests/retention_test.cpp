// Tests for data-retention faults, march Del (pause) elements, and
// March G — the retention-capable march — through the whole pipeline:
// simulator semantics, parser/printer, transforms, engine, datapath, and
// coverage.
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "bist/datapath.h"
#include "bist/engine.h"
#include "core/twm_ta.h"
#include "march/library.h"
#include "march/parser.h"
#include "march/word_expand.h"
#include "march/printer.h"
#include "util/rng.h"

namespace twm {
namespace {

BitVec bv(const std::string& s) { return BitVec::from_string(s); }

// --- simulator semantics -------------------------------------------------

TEST(Retention, CellDecaysAfterHoldTime) {
  Memory m(1, 4);
  m.inject(Fault::ret({0, 1}, false, 2));
  m.write(0, bv("1111"));
  m.elapse(1);
  EXPECT_EQ(m.read(0).to_string(), "1111");  // still within hold time
  m.elapse(1);
  EXPECT_EQ(m.read(0).to_string(), "1101");  // bit 1 leaked to 0
}

TEST(Retention, WriteRefreshesTheCell) {
  Memory m(1, 4);
  m.inject(Fault::ret({0, 0}, false, 2));
  m.write(0, bv("0001"));
  m.elapse(1);
  m.write(0, bv("0001"));  // refresh resets the retention clock
  m.elapse(1);
  EXPECT_EQ(m.read(0).to_string(), "0001");
  m.elapse(1);
  EXPECT_EQ(m.read(0).to_string(), "0000");
}

TEST(Retention, DecayToOne) {
  Memory m(1, 2);
  m.inject(Fault::ret({0, 0}, true, 1));
  m.write(0, bv("00"));
  m.elapse(1);
  EXPECT_EQ(m.read(0).to_string(), "01");
}

TEST(Retention, HealthyMemoryIgnoresElapse) {
  Memory m(2, 4);
  m.write(0, bv("1010"));
  m.elapse(100);
  EXPECT_EQ(m.read(0).to_string(), "1010");
}

TEST(Retention, DescribeString) {
  EXPECT_EQ(Fault::ret({2, 3}, true, 5).describe(), "RET(1,5u) @w2.b3");
}

// --- parser / printer ------------------------------------------------------

TEST(Retention, ParserAcceptsDelElements) {
  const MarchTest g = parse_march("{ any(w0); del any(r0,w1); del any(r1) }");
  EXPECT_FALSE(g.elements[0].pause_before);
  EXPECT_TRUE(g.elements[1].pause_before);
  EXPECT_TRUE(g.elements[2].pause_before);
  EXPECT_NE(to_string(g).find("del any(r(0),w(1))"), std::string::npos);
}

TEST(Retention, MarchGInCatalog) {
  const auto& info = march_info("March G");
  EXPECT_EQ(info.ops, 23u);
  EXPECT_EQ(info.reads, 10u);
  const MarchTest g = march_by_name("March G");
  EXPECT_TRUE(g.elements[5].pause_before);
  EXPECT_TRUE(g.elements[6].pause_before);
}

// --- transforms keep the pauses -------------------------------------------

TEST(Retention, TwmTransformPreservesPauses) {
  const TwmResult r = twm_transform(march_by_name("March G"), 8);
  std::size_t pauses = 0;
  for (const auto& e : r.twmarch.elements) pauses += e.pause_before;
  EXPECT_EQ(pauses, 2u);
  // The prediction pass must age retention cells identically.
  pauses = 0;
  for (const auto& e : r.prediction.elements) pauses += e.pause_before;
  EXPECT_EQ(pauses, 2u);
}

// --- detection ----------------------------------------------------------

TEST(Retention, MarchGDetectsRetentionNontransparently) {
  Memory mem(4, 4);
  mem.inject(Fault::ret({2, 1}, true, 1));
  MarchRunner runner(mem);
  const auto res = runner.run_direct(solid_march(march_by_name("March G")));
  EXPECT_TRUE(res.mismatch);
}

TEST(Retention, MarchCMinusCannotSeeRetention) {
  Memory mem(4, 4);
  mem.inject(Fault::ret({2, 1}, true, 1));
  MarchRunner runner(mem);
  EXPECT_FALSE(runner.run_direct(solid_march(march_by_name("March C-"))).mismatch);
}

TEST(Retention, TransparentMarchGDetects) {
  const TwmResult r = twm_transform(march_by_name("March G"), 8);
  Rng rng(3);
  Memory mem(6, 8);
  mem.fill_random(rng);
  mem.inject(Fault::ret({4, 5}, !mem.peek(4).get(5), 1));
  MarchRunner runner(mem);
  const auto out = runner.run_transparent_session(r.twmarch, r.prediction, 8);
  EXPECT_TRUE(out.detected_exact);
  EXPECT_TRUE(out.detected_misr);
}

TEST(Retention, TransparentMarchGIsStillTransparent) {
  const TwmResult r = twm_transform(march_by_name("March G"), 8);
  Rng rng(4);
  Memory mem(6, 8);
  mem.fill_random(rng);
  const auto snapshot = mem.snapshot();
  MarchRunner runner(mem);
  const auto out = runner.run_transparent_session(r.twmarch, r.prediction, 8);
  EXPECT_FALSE(out.detected_exact);
  EXPECT_TRUE(mem.equals(snapshot));
}

TEST(Retention, DatapathHandlesPauses) {
  const TwmResult r = twm_transform(march_by_name("March G"), 8);
  const BistProgram prog = compile_program(r.twmarch, 8);
  Rng rng(5);
  Memory mem(6, 8);
  mem.fill_random(rng);
  mem.inject(Fault::ret({1, 0}, !mem.peek(1).get(0), 1));
  BistDatapath dp(mem, prog);
  EXPECT_TRUE(dp.run_session());
}

TEST(Retention, CoverageCampaignMarchGvsMarchCMinus) {
  const CampaignRunner eval(4, 4);
  const auto faults = all_rets(4, 4, 1);
  const auto g = eval.evaluate(SchemeKind::ProposedExact, march_by_name("March G"), faults,
                               {1, 2});
  const auto c = eval.evaluate(SchemeKind::ProposedExact, march_by_name("March C-"), faults,
                               {1, 2});
  EXPECT_EQ(g.detected_all, g.total);
  EXPECT_EQ(c.detected_any, 0u);
}

// Retention faults whose hold time exceeds the march's total pause budget
// escape — the classic argument for sizing Del.
TEST(Retention, LongHoldTimeEscapes) {
  Memory mem(4, 4);
  mem.inject(Fault::ret({0, 0}, true, 3));  // March G pauses only twice
  MarchRunner runner(mem);
  EXPECT_FALSE(runner.run_direct(solid_march(march_by_name("March G"))).mismatch);
}

}  // namespace
}  // namespace twm
