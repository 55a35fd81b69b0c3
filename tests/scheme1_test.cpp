// Tests for the Scheme 1 baseline [12]: structure against the paper's
// Sec. 3 worked example (March C-, 4-bit words, T1'..T4') and the
// transparency invariant.
#include <gtest/gtest.h>

#include "bist/engine.h"
#include "core/scheme1.h"
#include "march/generator.h"
#include "march/library.h"
#include "march/parser.h"
#include "memsim/memory.h"
#include "util/rng.h"

namespace twm {
namespace {

TEST(Scheme1, RejectsEmptyInput) {
  EXPECT_THROW(scheme1_transform(MarchTest{}, 4), std::invalid_argument);
}

TEST(Scheme1, MarchCMinusWidth4MatchesSec3Example) {
  const Scheme1Result r = scheme1_transform(march_by_name("March C-"), 4);

  // T1' (solid pass, init dropped): 9 ops; T2' and T3' (pattern passes,
  // init element becomes read+write): 11 ops each; T4' (restore): 2 ops.
  EXPECT_EQ(r.transparent.op_count(), 9u + 11u + 11u + 2u);
  EXPECT_TRUE(r.transparent.is_transparent());
  EXPECT_TRUE(r.transparent.every_element_begins_with_read());

  // Element layout: 5 (T1') + 6 (T2') + 6 (T3') + 1 (T4').
  ASSERT_EQ(r.transparent.elements.size(), 18u);

  // T2' begins with any(r a, w a^D1): the read expects the content left by
  // T1' (mask 0 — March C-'s last write is w0 -> w(a)).
  const MarchElement& t2_init = r.transparent.elements[5];
  ASSERT_EQ(t2_init.ops.size(), 2u);
  EXPECT_TRUE(t2_init.ops[0].is_read());
  EXPECT_FALSE(t2_init.ops[0].data.complement);
  EXPECT_TRUE(t2_init.ops[0].data.pattern.empty());
  EXPECT_TRUE(t2_init.ops[1].is_write());
  EXPECT_EQ(t2_init.ops[1].data.pattern.to_string(), "0101");

  // T4' reads the last pass's content (a^D2) and restores a.
  const MarchElement& t4 = r.transparent.elements.back();
  ASSERT_EQ(t4.ops.size(), 2u);
  EXPECT_EQ(t4.ops[0].data.pattern.to_string(), "0011");
  EXPECT_TRUE(t4.ops[1].is_write());
  EXPECT_TRUE(t4.ops[1].data.pattern.empty());
  EXPECT_FALSE(t4.ops[1].data.complement);
}

TEST(Scheme1, PredictionIsReadOnlyProjection) {
  const Scheme1Result r = scheme1_transform(march_by_name("March C-"), 4);
  EXPECT_EQ(r.prediction.write_count(), 0u);
  EXPECT_EQ(r.prediction.read_count(), r.transparent.read_count());
}

TEST(Scheme1, GrowsWithLog2B) {
  const MarchTest bit = march_by_name("March C-");
  std::size_t prev = 0;
  for (unsigned w : {4u, 8u, 16u, 32u}) {
    const auto r = scheme1_transform(bit, w);
    EXPECT_GT(r.transparent.op_count(), prev);
    prev = r.transparent.op_count();
  }
  // One more pattern pass (11 ops) per doubling for March C-.
  EXPECT_EQ(scheme1_transform(bit, 8).transparent.op_count(),
            scheme1_transform(bit, 4).transparent.op_count() + 11);
}

struct S1Case {
  std::string march;
  unsigned width;
};

class Scheme1Property : public ::testing::TestWithParam<S1Case> {};

TEST_P(Scheme1Property, TransparentAndFalseAlarmFree) {
  const auto& pc = GetParam();
  Rng rng(41);
  Memory mem(8, pc.width);
  mem.fill_random(rng);
  const auto snapshot = mem.snapshot();

  const Scheme1Result r = scheme1_transform(march_by_name(pc.march), pc.width);
  MarchRunner runner(mem);
  const auto out = runner.run_transparent_session(r.transparent, r.prediction, pc.width);
  EXPECT_FALSE(out.detected_exact);
  EXPECT_FALSE(out.detected_misr);
  EXPECT_TRUE(mem.equals(snapshot));
}

std::vector<S1Case> s1_cases() {
  std::vector<S1Case> cases;
  for (const auto& name : {"MATS", "MATS+", "March X", "March C-", "March U", "March B"})
    for (unsigned w : {2u, 4u, 8u, 16u}) cases.push_back({name, w});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Scheme1Property, ::testing::ValuesIn(s1_cases()),
                         [](const ::testing::TestParamInfo<S1Case>& info) {
                           std::string n =
                               info.param.march + "_w" + std::to_string(info.param.width);
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// A march whose init element writes 1 identifies the initial content with
// 1, so every datum is relative to 1: the fault-free session stays clean
// and transparent.
TEST(Scheme1, InitWritingOneKeepsTheFaultFreeSessionClean) {
  const MarchTest march = parse_march("{ any(w1); up(r1,w0); down(r0,w1); up(r1) }");
  ASSERT_TRUE(is_consistent_bit_march(march));
  for (const unsigned width : {1u, 4u, 8u}) {
    Rng rng(47);
    Memory mem(8, width);
    mem.fill_random(rng);
    const auto snapshot = mem.snapshot();
    const Scheme1Result r = scheme1_transform(march, width);
    MarchRunner runner(mem);
    const auto out = runner.run_transparent_session(r.transparent, r.prediction, width);
    EXPECT_FALSE(out.detected_exact) << width;
    EXPECT_FALSE(out.detected_misr) << width;
    EXPECT_TRUE(mem.equals(snapshot)) << width;
  }
}

TEST(Scheme1, DetectsSaf) {
  Rng rng(43);
  Memory mem(8, 8);
  mem.fill_random(rng);
  mem.inject(Fault::saf({2, 5}, true));
  const Scheme1Result r = scheme1_transform(march_by_name("March C-"), 8);
  MarchRunner runner(mem);
  EXPECT_TRUE(runner.run_transparent_session(r.transparent, r.prediction, 8).detected_exact);
}

}  // namespace
}  // namespace twm
