// Tests for the BIST substrate: MISR, LFSR, address generation, and the
// march execution engine (direct, test-pass, prediction-pass semantics).
#include <gtest/gtest.h>

#include <set>

#include "bist/address_gen.h"
#include "bist/engine.h"
#include "bist/lfsr.h"
#include "bist/misr.h"
#include "bist/packed_engine.h"
#include "core/nicolaidis.h"
#include "core/scheme_session.h"
#include "march/generator.h"
#include "march/library.h"
#include "march/parser.h"
#include "march/word_expand.h"
#include "util/rng.h"

namespace twm {
namespace {

BitVec bv(const std::string& s) { return BitVec::from_string(s); }

// --- MISR ----------------------------------------------------------------

TEST(Misr, ZeroWidthRejected) { EXPECT_THROW(Misr(0), std::invalid_argument); }

TEST(Misr, BadTapRejected) { EXPECT_THROW(Misr(8, {8}), std::invalid_argument); }

TEST(Misr, DeterministicAndResettable) {
  Misr a(16), b(16);
  Rng rng(5);
  std::vector<BitVec> inputs;
  for (int i = 0; i < 20; ++i) inputs.push_back(rng.next_word(16));
  for (const auto& v : inputs) {
    a.feed(v);
    b.feed(v);
  }
  EXPECT_EQ(a.signature(), b.signature());
  a.reset();
  EXPECT_TRUE(a.signature().all_zero());
}

TEST(Misr, OrderSensitive) {
  Misr a(16), b(16);
  a.feed(bv("0000000000000001"));
  a.feed(bv("0000000000000010"));
  b.feed(bv("0000000000000010"));
  b.feed(bv("0000000000000001"));
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, SingleBitStreamDifferenceChangesSignature) {
  for (unsigned w : {8u, 16u, 32u}) {
    Misr a(w), b(w);
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
      BitVec v = rng.next_word(w);
      a.feed(v);
      if (i == 25) v.flip(0);
      b.feed(v);
    }
    EXPECT_NE(a.signature(), b.signature()) << "width " << w;
  }
}

TEST(Misr, FoldsWiderInputs) {
  Misr m(8);
  m.feed(BitVec::ones(16));  // two all-one chunks cancel
  EXPECT_TRUE(m.signature().all_zero());
  m.feed(BitVec::ones(8));
  EXPECT_FALSE(m.signature().all_zero());
}

TEST(Misr, DefaultTapsCoverDocumentedWidths) {
  for (unsigned w : {2u, 3u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto taps = Misr::default_taps(w);
    EXPECT_FALSE(taps.empty());
    for (unsigned t : taps) EXPECT_LT(t, w);
  }
}

// A register feeds and skips with the taps of its polynomial object,
// default or not: a width-8 register with taps {1, 0} (not
// Misr::default_taps(8)) equals the scalar Misr(8, {1, 0}) of every lane
// after mixed feeds, folded wider inputs and skips, and the scalar
// transparent session compacts with the taps it is given.
TEST(Misr, CustomTapsFeedAndSkipWithOnePolynomial) {
  const std::vector<unsigned> taps = {1, 0};
  ASSERT_NE(taps, Misr::default_taps(8));
  const MisrJumps poly = MisrJumps::build(8, taps);
  PackedMisr packed(poly);
  std::vector<Misr> lanes(kPackedLanes, Misr(8, taps));
  Rng rng(8);
  for (int round = 0; round < 16; ++round) {
    const unsigned input_width = round % 3 == 0 ? 12 : 8;
    std::vector<LaneMask> input(input_width);
    for (LaneMask& bits : input) bits = rng.next_u64();
    packed.feed(input.data(), input_width);
    const std::uint64_t zeros = rng.next_below(200);
    packed.skip(zeros);
    for (unsigned lane = 0; lane < kPackedLanes; ++lane) {
      BitVec word = BitVec::zeros(input_width);
      for (unsigned j = 0; j < input_width; ++j) word.set(j, (input[j] >> lane) & 1u);
      lanes[lane].feed(word);
      for (std::uint64_t z = 0; z < zeros; ++z) lanes[lane].feed(BitVec::zeros(8));
      for (unsigned j = 0; j < 8; ++j)
        ASSERT_EQ((packed.state()[j] >> lane) & 1u, lanes[lane].signature().get(j) ? 1u : 0u)
            << "round " << round << " lane " << lane << " bit " << j;
    }
  }

  Memory mem(8, 4);
  mem.fill_seeded(3);
  const MarchTest t = nicolaidis_transparent(solid_march(march_by_name("March C-")));
  const MarchTest p = prediction_test(t);
  StreamRecorder stream;
  MarchRunner(mem).run_prediction(p, stream);
  Misr want(8, taps);
  for (const BitVec& v : stream.stream()) want.feed(v);
  const TransparentOutcome out = MarchRunner(mem).run_transparent_session(t, p, 8, taps);
  EXPECT_EQ(out.signature_predicted, want.signature());
  EXPECT_NE(MarchRunner(mem).run_transparent_session(t, p, 8).signature_predicted,
            want.signature());  // the default taps compact differently
}

// A width-W LFSR-based MISR driven by constant zero input cycles through
// many distinct states (sanity of the feedback polynomial).
TEST(Misr, FeedbackProducesLongZeroInputOrbit) {
  Misr m(8);
  m.feed(bv("00000001"));
  std::set<std::string> seen;
  for (int i = 0; i < 254; ++i) {
    m.feed(BitVec::zeros(8));
    EXPECT_TRUE(seen.insert(m.signature().to_string()).second) << "state repeated at " << i;
  }
}

// --- LFSR ----------------------------------------------------------------

TEST(Lfsr, RejectsZeroSeed) { EXPECT_THROW(Lfsr(8, 0), std::invalid_argument); }

TEST(Lfsr, NeverReachesZeroAndEventuallyRepeats) {
  Lfsr l(8, 1);
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    const BitVec& s = l.next();
    EXPECT_FALSE(s.all_zero());
    seen.insert(s.to_string());
  }
  EXPECT_GT(seen.size(), 100u);  // long orbit
}

// --- AddressGen ------------------------------------------------------------

TEST(AddressGen, UpSequence) {
  EXPECT_EQ(AddressGen::sequence(AddrOrder::Up, 4), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(AddressGen, DownSequence) {
  EXPECT_EQ(AddressGen::sequence(AddrOrder::Down, 4), (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST(AddressGen, AnyIsAscendingConvention) {
  EXPECT_EQ(AddressGen::sequence(AddrOrder::Any, 3), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(AddressGen, SingleWord) {
  EXPECT_EQ(AddressGen::sequence(AddrOrder::Down, 1), (std::vector<std::size_t>{0}));
}

TEST(AddressGen, EmptyRejected) { EXPECT_THROW(AddressGen(AddrOrder::Up, 0), std::invalid_argument); }

TEST(AddressGen, AdvancePastEndThrows) {
  AddressGen g(AddrOrder::Up, 1);
  g.advance();
  EXPECT_TRUE(g.done());
  EXPECT_THROW(g.advance(), std::logic_error);
}

// --- engine: direct runs ---------------------------------------------------

TEST(Engine, DirectFaultFreeHasNoMismatch) {
  Memory mem(8, 4);
  MarchRunner runner(mem);
  for (const auto& name : march_names()) {
    const auto res = runner.run_direct(solid_march(march_by_name(name)));
    EXPECT_FALSE(res.mismatch) << name;
    EXPECT_EQ(res.mismatch_count, 0u) << name;
  }
}

TEST(Engine, DirectDetectsSafWithDiagnosis) {
  Memory mem(8, 4);
  mem.inject(Fault::saf({3, 1}, true));
  MarchRunner runner(mem);
  const auto res = runner.run_direct(solid_march(march_by_name("March C-")));
  ASSERT_TRUE(res.mismatch);
  EXPECT_EQ(res.fail_addr, 3u);  // first observation is at the faulty word
  EXPECT_TRUE(res.actual.get(1));
  EXPECT_FALSE(res.expected.get(1));
}

TEST(Engine, DirectRejectsTransparentTests) {
  Memory mem(4, 4);
  MarchRunner runner(mem);
  const MarchTest t = nicolaidis_transparent(march_by_name("March C-"));
  EXPECT_THROW(runner.run_direct(t), std::invalid_argument);
}

TEST(Engine, DirectRunsWordOrientedMarch) {
  Memory mem(6, 8);
  MarchRunner runner(mem);
  const auto res = runner.run_direct(word_oriented_march(march_by_name("March C-"), 8));
  EXPECT_FALSE(res.mismatch);
}

// --- engine: transparent passes -------------------------------------------

TEST(Engine, PredictionRejectsWrites) {
  Memory mem(4, 4);
  MarchRunner runner(mem);
  StreamRecorder sink;
  EXPECT_THROW(runner.run_prediction(solid_march(march_by_name("MATS")), sink),
               std::invalid_argument);
}

TEST(Engine, TestPassRequiresReadBeforeTransparentWrite) {
  Memory mem(4, 4);
  MarchRunner runner(mem);
  MarchTest bad = parse_march("{ up(w1) }");
  for (auto& e : bad.elements)
    for (auto& op : e.ops) op.data.relative = true;
  StreamRecorder sink;
  EXPECT_THROW(runner.run_test(bad, sink), std::logic_error);
}

// The packed runner derives a relative write from the read just before it
// in the same element; a relative write with no such read is rejected, not
// served from an older read of the word.
TEST(Engine, PackedTestPassRequiresReadBeforeTransparentWrite) {
  struct NullSink {
    void on_read(std::size_t, const LaneMask*) {}
  };
  PackedMemory mem(4, 4);
  PackedSessionScratch scratch;
  PackedMarchRunner runner(mem, AddressList::all(4), scratch);
  MarchTest bad = parse_march("{ up(w0); up(r0); down(w1); any(r1) }");
  bad.elements[2].ops[0].data.relative = true;  // no read earlier in its element
  NullSink sink;
  EXPECT_THROW(runner.run_test(bad, sink), std::logic_error);
}

// The packed session pairs the test and prediction read streams by
// position, so passes with different read counts are rejected up front, on
// the full walk as on a listed one.
TEST(Engine, PackedSessionRejectsMismatchedReadCounts) {
  const MarchTest t = nicolaidis_transparent(solid_march(march_by_name("March C-")));
  MarchTest p = prediction_test(t);
  p.elements.back().ops.push_back(p.elements.back().ops.back());  // one extra read
  const MisrJumps jumps = MisrJumps::build(4);
  for (const bool want_misr : {false, true}) {
    PackedMemory mem(4, 4);
    PackedSessionScratch scratch;
    PackedMarchRunner runner(mem, AddressList::all(4), scratch);
    EXPECT_THROW(runner.run_transparent_session(t, p, jumps, nullptr, want_misr),
                 std::logic_error)
        << want_misr;
  }
}

// Every relative write a built plan hands the packed runner has a read
// earlier in its element — the precondition its one-register base estimate
// relies on.
bool reads_before_relative_writes(const MarchTest& t) {
  for (const MarchElement& e : t.elements) {
    bool read_seen = false;
    for (const Op& op : e.ops) {
      if (op.is_read()) read_seen = true;
      if (op.data.relative && op.is_write() && !read_seen) return false;
    }
  }
  return true;
}

TEST(Engine, EveryPlanReadsBeforeEachRelativeWrite) {
  std::vector<MarchTest> marches;
  for (const std::string& name : march_names()) marches.push_back(march_by_name(name));
  Rng rng(19);
  for (int i = 0; i < 32; ++i) {
    MarchTest t = random_march(rng);
    repair_bit_march(t);
    marches.push_back(t);
  }
  for (const SchemeKind k : kAllSchemes)
    for (const MarchTest& m : marches) {
      const SchemePlan plan = make_scheme_plan(k, m, 4);
      EXPECT_TRUE(reads_before_relative_writes(plan.trans)) << to_string(k) << ": " << m.name;
      EXPECT_TRUE(reads_before_relative_writes(plan.sym.test)) << to_string(k) << ": " << m.name;
    }
}

TEST(Engine, FaultFreeSessionSignaturesAgree) {
  Rng rng(17);
  Memory mem(16, 8);
  mem.fill_random(rng);
  const auto snapshot = mem.snapshot();

  const MarchTest t = nicolaidis_transparent(solid_march(march_by_name("March C-")));
  const MarchTest p = prediction_test(t);
  MarchRunner runner(mem);
  const auto out = runner.run_transparent_session(t, p, 8);
  EXPECT_FALSE(out.detected_exact);
  EXPECT_FALSE(out.detected_misr);
  EXPECT_EQ(out.signature_predicted, out.signature_observed);
  EXPECT_TRUE(mem.equals(snapshot));  // transparency
}

TEST(Engine, SessionDetectsInjectedTf) {
  Rng rng(23);
  Memory mem(16, 8);
  mem.fill_random(rng);
  mem.inject(Fault::tf({5, 3}, Transition::Up));

  const MarchTest t = nicolaidis_transparent(solid_march(march_by_name("March C-")));
  const MarchTest p = prediction_test(t);
  MarchRunner runner(mem);
  const auto out = runner.run_transparent_session(t, p, 8);
  EXPECT_TRUE(out.detected_exact);
  EXPECT_TRUE(out.detected_misr);
}

TEST(Engine, ObserverSeesEveryOperation) {
  struct Counter final : EngineObserver {
    std::size_t n = 0;
    void on_op(std::size_t, std::size_t, std::size_t, const Op&, const BitVec&) override { ++n; }
  } counter;
  Memory mem(4, 4);
  MarchRunner runner(mem);
  runner.set_observer(&counter);
  const MarchTest s = solid_march(march_by_name("March C-"));
  runner.run_direct(s);
  EXPECT_EQ(counter.n, s.op_count() * mem.num_words());
}

TEST(Engine, StreamRecorderEquality) {
  StreamRecorder a, b;
  a.on_read(0, bv("01"));
  b.on_read(0, bv("01"));
  EXPECT_TRUE(a == b);
  b.on_read(1, bv("10"));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace twm
