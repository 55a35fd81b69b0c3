// Unit tests for the fault-injecting memory simulator: each fault model's
// activation/observation behaviour, plus fault-free integrity properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "memsim/limb_bits.h"
#include "memsim/memory.h"
#include "util/rng.h"

namespace twm {
namespace {

BitVec bv(const std::string& s) { return BitVec::from_string(s); }

TEST(Memory, GeometryValidation) {
  EXPECT_THROW(Memory(0, 8), std::invalid_argument);
  EXPECT_THROW(Memory(8, 0), std::invalid_argument);
}

// seeded_word_values lists the distinct words of the contents
// fill_limbs(limbs) loads from a seed's table, in order of first
// appearance (the values a golden certificate checks): at a width whose
// every value appears, at wider ones and past 64 bits.  A null table
// holds only zero.
TEST(Memory, SeededWordValuesAreTheSeededWordsInOrder) {
  const std::size_t words = 300;
  for (const unsigned width : {3u, 8u, 16u, 24u, 64u, 70u}) {
    const std::vector<std::uint64_t> limbs = seeded_limbs(words, width, 42);
    Memory mem(words, width);
    mem.fill_limbs(limbs.data());
    std::vector<BitVec> want;
    for (std::size_t a = 0; a < words; ++a) {
      const BitVec v = mem.peek(a);
      if (std::find(want.begin(), want.end(), v) == want.end()) want.push_back(v);
    }
    EXPECT_EQ(seeded_word_values(words, width, limbs.data()), want) << "width " << width;
  }
  EXPECT_EQ(seeded_word_values(16, 8, nullptr), std::vector<BitVec>{BitVec::zeros(8)});
}

TEST(Memory, FaultFreeReadsBackWrites) {
  Memory m(16, 8);
  Rng rng(3);
  std::vector<BitVec> golden(16, BitVec::zeros(8));
  for (int i = 0; i < 200; ++i) {
    const std::size_t a = rng.next_below(16);
    const BitVec d = rng.next_word(8);
    m.write(a, d);
    golden[a] = d;
  }
  for (std::size_t a = 0; a < 16; ++a) EXPECT_EQ(m.read(a), golden[a]);
}

TEST(Memory, OpCountMetersPortTraffic) {
  Memory m(4, 4);
  EXPECT_EQ(m.op_count(), 0u);
  m.write(0, bv("1010"));
  m.read(0);
  m.read(1);
  EXPECT_EQ(m.op_count(), 3u);
  m.reset_op_count();
  EXPECT_EQ(m.op_count(), 0u);
}

TEST(Memory, WriteWidthMismatchThrows) {
  Memory m(4, 4);
  EXPECT_THROW(m.write(0, BitVec::zeros(8)), std::invalid_argument);
}

TEST(Memory, LoadValidates) {
  Memory m(2, 4);
  EXPECT_THROW(m.load({bv("0000")}), std::invalid_argument);           // word count
  EXPECT_THROW(m.load({bv("0000"), bv("00000")}), std::invalid_argument);  // width
}

TEST(Memory, InjectValidatesAddresses) {
  Memory m(2, 4);
  EXPECT_THROW(m.inject(Fault::saf({2, 0}, true)), std::out_of_range);
  EXPECT_THROW(m.inject(Fault::saf({0, 4}, true)), std::out_of_range);
  EXPECT_THROW(m.inject(Fault::cfin({0, 1}, Transition::Up, {0, 1})), std::invalid_argument);
}

// --- SAF -----------------------------------------------------------------

TEST(Memory, Saf1ForcesOneOnInjectAndWrite) {
  Memory m(2, 4);
  m.inject(Fault::saf({0, 2}, true));
  EXPECT_TRUE(m.read(0).get(2));  // forced at injection
  m.write(0, bv("0000"));
  EXPECT_EQ(m.read(0).to_string(), "0100");  // bit 2 stuck at 1
  m.write(1, bv("0000"));
  EXPECT_EQ(m.read(1).to_string(), "0000");  // other word unaffected
}

TEST(Memory, Saf0SurvivesLoad) {
  Memory m(1, 4);
  m.inject(Fault::saf({0, 0}, false));
  m.load({bv("1111")});
  EXPECT_EQ(m.read(0).to_string(), "1110");
}

// --- TF ------------------------------------------------------------------

TEST(Memory, TfUpBlocksRisingOnly) {
  Memory m(1, 4);
  m.inject(Fault::tf({0, 1}, Transition::Up));
  m.write(0, bv("0000"));
  m.write(0, bv("1111"));
  EXPECT_EQ(m.read(0).to_string(), "1101");  // bit 1 failed 0->1
  // A cell already at 1 can fall and stay fallen.
  m.load({bv("1111")});
  m.write(0, bv("0000"));
  EXPECT_EQ(m.read(0).to_string(), "0000");
}

TEST(Memory, TfDownBlocksFallingOnly) {
  Memory m(1, 4);
  m.inject(Fault::tf({0, 1}, Transition::Down));
  m.load({bv("1111")});
  m.write(0, bv("0000"));
  EXPECT_EQ(m.read(0).to_string(), "0010");  // bit 1 failed 1->0
  m.load({bv("0000")});
  m.write(0, bv("1111"));
  EXPECT_EQ(m.read(0).to_string(), "1111");  // rising works
}

TEST(Memory, TfNoEffectWithoutTransition) {
  Memory m(1, 4);
  m.inject(Fault::tf({0, 0}, Transition::Up));
  m.write(0, bv("0000"));
  m.write(0, bv("0000"));
  EXPECT_EQ(m.read(0).to_string(), "0000");
}

// --- CFid ------------------------------------------------------------------

TEST(Memory, CfidInterWordTriggersOnMatchingTransition) {
  Memory m(2, 4);
  // Aggressor w0.b0 rising forces victim w1.b3 to 1.
  m.inject(Fault::cfid({0, 0}, Transition::Up, {1, 3}, true));
  m.write(1, bv("0000"));
  m.write(0, bv("0000"));
  m.write(0, bv("0001"));  // 0->1 on aggressor
  EXPECT_EQ(m.read(1).to_string(), "1000");
  // Falling transition does not trigger.
  m.write(1, bv("0000"));
  m.write(0, bv("0000"));
  EXPECT_EQ(m.read(1).to_string(), "0000");
}

TEST(Memory, CfidIntraWordSameWrite) {
  Memory m(1, 4);
  // Bit 0 rising forces bit 2 to 0 within the same word.
  m.inject(Fault::cfid({0, 0}, Transition::Up, {0, 2}, false));
  m.write(0, bv("0000"));
  m.write(0, bv("1111"));  // bit 0 rises; bit 2's written 1 is overridden
  EXPECT_EQ(m.read(0).to_string(), "1011");
}

TEST(Memory, CfidNoTriggerWhenAggressorStable) {
  Memory m(2, 4);
  m.inject(Fault::cfid({0, 0}, Transition::Up, {1, 0}, true));
  m.write(0, bv("0001"));  // initial 0 -> 1: triggers once
  m.write(1, bv("0000"));
  m.write(0, bv("0001"));  // 1 -> 1: no transition
  EXPECT_EQ(m.read(1).to_string(), "0000");
}

// --- CFin ------------------------------------------------------------------

TEST(Memory, CfinInvertsVictim) {
  Memory m(2, 2);
  m.inject(Fault::cfin({0, 0}, Transition::Down, {1, 1}));
  m.load({bv("01"), bv("00")});
  m.write(0, bv("00"));  // aggressor falls
  EXPECT_EQ(m.read(1).to_string(), "10");
  m.write(0, bv("01"));  // rising: no effect for a Down trigger
  EXPECT_EQ(m.read(1).to_string(), "10");
  m.write(0, bv("00"));  // falls again: inverts back
  EXPECT_EQ(m.read(1).to_string(), "00");
}

// --- CFst ------------------------------------------------------------------

TEST(Memory, CfstForcesWhileAggressorInState) {
  Memory m(2, 2);
  // While w0.b0 == 1, victim w1.b0 is forced to 0.
  m.inject(Fault::cfst({0, 0}, true, {1, 0}, false));
  m.write(0, bv("01"));
  m.write(1, bv("11"));  // write of 1 into the victim is overridden
  EXPECT_EQ(m.read(1).to_string(), "10");
  m.write(0, bv("00"));  // condition released
  m.write(1, bv("11"));
  EXPECT_EQ(m.read(1).to_string(), "11");
}

TEST(Memory, CfstEnforcedAtLoad) {
  Memory m(2, 2);
  m.inject(Fault::cfst({0, 0}, true, {1, 1}, true));
  m.load({bv("01"), bv("00")});
  EXPECT_EQ(m.peek(1).to_string(), "10");
}

TEST(Memory, CfstIntraWord) {
  Memory m(1, 4);
  // While bit 3 == 0, bit 0 forced to 1.
  m.inject(Fault::cfst({0, 3}, false, {0, 0}, true));
  m.write(0, bv("0000"));
  EXPECT_EQ(m.read(0).to_string(), "0001");
  m.write(0, bv("1000"));  // aggressor leaves state 0
  EXPECT_EQ(m.read(0).to_string(), "1000");
}

// --- multiple faults ---------------------------------------------------

TEST(Memory, SafDominatesCoupling) {
  Memory m(2, 2);
  m.inject(Fault::cfid({0, 0}, Transition::Up, {1, 0}, true));
  m.inject(Fault::saf({1, 0}, false));
  m.write(0, bv("00"));
  m.write(0, bv("01"));
  EXPECT_EQ(m.read(1).to_string(), "00");  // stuck-at wins over CFid
}

TEST(Memory, FaultDescribeStrings) {
  EXPECT_EQ(Fault::saf({1, 2}, true).describe(), "SAF(1) @w1.b2");
  EXPECT_EQ(Fault::tf({0, 0}, Transition::Down).describe(), "TF(v) @w0.b0");
  const auto cf = Fault::cfid({0, 1}, Transition::Up, {0, 3}, false);
  EXPECT_EQ(cf.describe(), "CFid<^;0> w0.b1->w0.b3 [intra]");
  EXPECT_TRUE(cf.intra_word());
  const auto inter = Fault::cfst({0, 0}, true, {1, 0}, true);
  EXPECT_FALSE(inter.intra_word());
  EXPECT_EQ(inter.describe(), "CFst<1;1> w0.b0->w1.b0 [inter]");
}

// Golden describe() text for every fault class: the JSON-lines, CSV and
// diagnostic outputs all carry it verbatim, so any formatter rewrite must
// reproduce it byte for byte (multi-digit words and bits included).
TEST(FaultDescribe, GoldenStringForEveryClass) {
  const std::pair<Fault, const char*> golden[] = {
      {Fault::saf({3, 1}, false), "SAF(0) @w3.b1"},
      {Fault::saf({65535, 12}, true), "SAF(1) @w65535.b12"},
      {Fault::tf({0, 5}, Transition::Up), "TF(^) @w0.b5"},
      {Fault::tf({1048575, 0}, Transition::Down), "TF(v) @w1048575.b0"},
      {Fault::cfst({2, 0}, false, {2, 7}, true), "CFst<0;1> w2.b0->w2.b7 [intra]"},
      {Fault::cfst({10, 3}, true, {4096, 3}, false), "CFst<1;0> w10.b3->w4096.b3 [inter]"},
      {Fault::cfid({7, 1}, Transition::Down, {7, 0}, true), "CFid<v;1> w7.b1->w7.b0 [intra]"},
      {Fault::cfid({0, 2}, Transition::Up, {99, 31}, false),
       "CFid<^;0> w0.b2->w99.b31 [inter]"},
      {Fault::cfin({5, 4}, Transition::Up, {5, 6}), "CFin<^> w5.b4->w5.b6 [intra]"},
      {Fault::cfin({123456, 0}, Transition::Down, {1, 1}),
       "CFin<v> w123456.b0->w1.b1 [inter]"},
      {Fault::ret({2, 3}, false, 12), "RET(0,12u) @w2.b3"},
      {Fault::af_no_access(42), "AFna @w42"},
      {Fault::af_alias(4, 262143), "AFaw w4~w262143"},
  };
  for (const auto& [fault, text] : golden) EXPECT_EQ(fault.describe(), text);
}

TEST(FaultDescribe, AppendDescribeAppendsToTheBuffer) {
  std::string out = "x:";
  Fault::af_alias(1, 2).append_describe(out);
  Fault::cfin({3, 0}, Transition::Up, {3, 1}).append_describe(out);
  EXPECT_EQ(out, "x:AFaw w1~w2CFin<^> w3.b0->w3.b1 [intra]");
}

// write_describe is the one formatter describe() and append_describe wrap:
// the same text for every class, within the documented kDescribeMax bound,
// which a coupling fault with word and bit at their type maxima reaches.
TEST(FaultDescribe, WriteDescribeMatchesDescribeWithinTheBound) {
  constexpr std::uint32_t kWordMax = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint32_t kBitMax = std::numeric_limits<std::uint32_t>::max();
  const CellAddr hi{kWordMax, kBitMax};
  const CellAddr lo{0, 0};
  const Fault faults[] = {
      Fault::saf(hi, true),
      Fault::tf(hi, Transition::Down),
      Fault::cfst(hi, true, hi, false),
      Fault::cfst(lo, false, hi, true),
      Fault::cfid(hi, Transition::Up, hi, true),
      Fault::cfid(hi, Transition::Down, lo, false),
      Fault::cfin(hi, Transition::Down, hi),
      Fault::ret(hi, true, kBitMax),
      Fault::af_no_access(kWordMax),
      Fault::af_alias(kWordMax, kWordMax),
      Fault::saf(lo, false),
      Fault::af_alias(0, 1),
  };
  std::set<FaultClass> classes;
  std::size_t longest = 0;
  for (const Fault& f : faults) {
    classes.insert(f.cls);
    char buf[Fault::kDescribeMax + 8];
    std::fill(std::begin(buf), std::end(buf), '#');
    const char* end = f.write_describe(buf);
    const std::size_t len = static_cast<std::size_t>(end - buf);
    EXPECT_LE(len, Fault::kDescribeMax) << f.describe();
    EXPECT_EQ(std::string(buf, len), f.describe());
    EXPECT_EQ(buf[len], '#') << "wrote past its end: " << f.describe();
    longest = std::max(longest, len);
  }
  EXPECT_EQ(classes.size(), 8u) << "every FaultClass";
  EXPECT_EQ(longest, Fault::kDescribeMax);
  EXPECT_EQ(Fault::cfst(hi, true, hi, false).describe(),
            "CFst<1;0> w4294967295.b4294967295->w4294967295.b4294967295 [intra]");
}

// The scalar memory's one cell-position formula: the product is taken in
// std::size_t, so a 32-bit word index past 2^32 cells does not wrap.
TEST(Memory, CellBitPosDoesNotWrapAt32Bits) {
  const std::uint32_t word = 0xFFFFFFFFu;
  EXPECT_EQ(cell_bit_pos(word, 8, 0), std::size_t{34359738360u});
  EXPECT_EQ(cell_bit_pos(word, 8, 7), std::size_t{34359738367u});
  EXPECT_EQ(cell_bit_pos(std::uint32_t{1} << 29, 8, 0), std::size_t{1} << 32);
}

TEST(Memory, ClearFaultsStopsInjection) {
  Memory m(1, 2);
  m.inject(Fault::saf({0, 0}, true));
  m.clear_faults();
  m.write(0, bv("00"));
  EXPECT_EQ(m.read(0).to_string(), "00");
}

// --- address-decoder faults (AFna / AFaw) ------------------------------

TEST(Memory, AfNoAccessLosesWritesAndReadsFloatingBus) {
  Memory m(2, 2);
  m.write(0, bv("11"));
  m.write(1, bv("10"));
  m.inject(Fault::af_no_access(0));
  EXPECT_EQ(m.read(0).to_string(), "00") << "reads float to zero";
  EXPECT_EQ(m.peek(0).to_string(), "11") << "the cells themselves keep their data";
  m.write(0, bv("01"));
  EXPECT_EQ(m.peek(0).to_string(), "11") << "the write is lost";
  EXPECT_EQ(m.read(1).to_string(), "10") << "other addresses are unaffected";
}

TEST(Memory, AfAliasWritesThroughAndMergesReadsWiredAnd) {
  Memory m(3, 2);
  m.write(1, bv("10"));
  m.inject(Fault::af_alias(0, 1));
  m.write(0, bv("11"));
  EXPECT_EQ(m.peek(0).to_string(), "11");
  EXPECT_EQ(m.peek(1).to_string(), "11") << "the write also hits the alias target";
  m.write(1, bv("01"));
  EXPECT_EQ(m.read(0).to_string(), "01") << "read merges 11 AND 01";
  EXPECT_EQ(m.read(1).to_string(), "01") << "the target itself reads normally";
  EXPECT_EQ(m.read(2).to_string(), "00");
}

TEST(Memory, AfInjectValidation) {
  Memory m(2, 2);
  EXPECT_THROW(m.inject(Fault::af_no_access(2)), std::out_of_range);
  EXPECT_THROW(m.inject(Fault::af_alias(0, 2)), std::out_of_range);
  EXPECT_THROW(m.inject(Fault::af_alias(1, 1)), std::invalid_argument);
  m.inject(Fault::af_alias(0, 1));
  m.clear_faults();
  m.write(0, bv("10"));
  EXPECT_EQ(m.read(0).to_string(), "10") << "clear_faults removes the decoder fault";
  EXPECT_EQ(m.peek(1).to_string(), "00");
}

// Property: with no faults, load + snapshot round-trips any contents.
TEST(Memory, SnapshotRoundTrip) {
  Memory m(8, 16);
  Rng rng(9);
  std::vector<BitVec> contents;
  for (int i = 0; i < 8; ++i) contents.push_back(rng.next_word(16));
  m.load(contents);
  EXPECT_TRUE(m.equals(contents));
  EXPECT_EQ(m.snapshot(), contents);
}

// The campaign's per-unit reset: after writes and injected faults,
// clear_faults() + fill_seeded(s) reads back exactly what a fresh memory
// does after fill_seeded(s), and that is the word sequence Rng(s) draws
// (zeros for seed 0); so does fill_limbs of the seed's table, the
// scheduler's refill.  Words straddle limb boundaries: words * width is
// not a multiple of 64 in the first two geometries.
TEST(Memory, RefillRestoresTheSeededBaseline) {
  const std::vector<std::pair<std::uint32_t, unsigned>> geometries = {{67, 3}, {1000, 5}, {64, 8}};
  for (const auto& [words, width] : geometries) {
    const std::string geo = std::to_string(words) + "x" + std::to_string(width);
    Memory m(words, width);
    Rng traffic(17);
    const auto dirty = [&] {
      m.inject(Fault::saf({words - 1, width - 1}, true));
      m.inject(Fault::cfid({0, 0}, Transition::Up, {words / 2, 1 % width}, true));
      m.inject(Fault::cfst({words / 3, 0}, false, {words - 2, width / 2}, true));
      m.inject(Fault::af_alias(1, words - 3));
      for (int i = 0; i < 200; ++i) m.write(traffic.next_below(words), traffic.next_word(width));
      m.clear_faults();
    };
    const auto expected = [&](std::uint64_t seed) {
      std::vector<BitVec> out(words, BitVec::zeros(width));
      if (seed == 0) return out;
      Rng rng(seed);
      for (BitVec& w : out) w = rng.next_word(width);
      return out;
    };
    for (const std::uint64_t seed : {5u, 9u, 5u, 0u, 9u, 0u}) {
      dirty();
      m.fill_seeded(seed);
      Memory fresh(words, width);
      fresh.fill_seeded(seed);
      const std::string ctx = geo + " seed " + std::to_string(seed);
      EXPECT_EQ(m.snapshot(), fresh.snapshot()) << ctx;
      EXPECT_EQ(m.snapshot(), expected(seed)) << ctx;
      const std::vector<std::uint64_t> table = seeded_limbs(words, width, seed);
      dirty();
      m.fill_limbs(seed != 0 ? table.data() : nullptr);
      EXPECT_EQ(m.snapshot(), expected(seed)) << ctx << " from its table";
    }
    // Loaded contents land in every word, and a seeded refill after them
    // still restores the seed's contents.
    dirty();
    BitVec pattern = BitVec::zeros(width);
    for (unsigned j = 0; j < width; j += 2) pattern.set(j, true);
    m.load(std::vector<BitVec>(words, pattern));
    EXPECT_EQ(m.snapshot(), std::vector<BitVec>(words, pattern)) << geo;
    m.fill_seeded(9);
    EXPECT_EQ(m.snapshot(), expected(9)) << geo;
  }
}

}  // namespace
}  // namespace twm
