// Tests for fault localization and the detect -> diagnose -> repair ->
// retest (BIST + BISR) flow.
#include <gtest/gtest.h>

#include "analysis/diagnosis.h"
#include "core/twm_ta.h"
#include "march/library.h"
#include "memsim/repair.h"
#include "util/rng.h"

namespace twm {
namespace {

TwmResult twm8() { return twm_transform(march_by_name("March C-"), 8); }

TEST(Diagnosis, CleanMemoryYieldsNoFinding) {
  Rng rng(1);
  Memory mem(8, 8);
  mem.fill_random(rng);
  const auto r = twm8();
  const Diagnosis d = diagnose_transparent(mem, r.twmarch, r.prediction);
  EXPECT_FALSE(d.fault_found);
  EXPECT_EQ(d.mismatch_count, 0u);
}

TEST(Diagnosis, LocalizesSafToWordAndBit) {
  const auto r = twm8();
  for (std::uint32_t word : {0u, 3u, 7u}) {
    for (unsigned bit : {0u, 5u}) {
      Rng rng(2);
      Memory mem(8, 8);
      mem.fill_random(rng);
      mem.inject(Fault::saf({word, bit}, !mem.peek(word).get(bit)));
      const Diagnosis d = diagnose_transparent(mem, r.twmarch, r.prediction);
      ASSERT_TRUE(d.fault_found);
      EXPECT_EQ(d.suspect_word, word);
      EXPECT_EQ(d.bit_syndrome.popcount(), 1u);
      EXPECT_TRUE(d.bit_syndrome.get(bit));
    }
  }
}

TEST(Diagnosis, LocalizesTf) {
  const auto r = twm8();
  Rng rng(3);
  Memory mem(16, 8);
  mem.fill_random(rng);
  mem.inject(Fault::tf({11, 6}, Transition::Up));
  const Diagnosis d = diagnose_transparent(mem, r.twmarch, r.prediction);
  ASSERT_TRUE(d.fault_found);
  EXPECT_EQ(d.suspect_word, 11u);
  EXPECT_TRUE(d.bit_syndrome.get(6));
}

TEST(Diagnosis, LocationPointsAtARealReadOp) {
  const auto r = twm8();
  Rng rng(4);
  Memory mem(8, 8);
  mem.fill_random(rng);
  mem.inject(Fault::saf({5, 0}, !mem.peek(5).get(0)));
  const Diagnosis d = diagnose_transparent(mem, r.twmarch, r.prediction);
  ASSERT_TRUE(d.fault_found);
  const auto& elem = r.twmarch.elements.at(d.location.element);
  ASSERT_LT(d.location.op_index, elem.ops.size());
  EXPECT_TRUE(elem.ops[d.location.op_index].is_read());
  EXPECT_EQ(d.location.addr, d.suspect_word);
}

TEST(Diagnosis, LocateReadMapsWholeStream) {
  const auto r = twm8();
  const std::size_t words = 4;
  const std::size_t stream_len = r.twmarch.read_count() * words;
  std::size_t count = 0;
  for (std::size_t i = 0; i < stream_len; ++i) {
    const OpLocation loc = locate_read(r.twmarch, i, words);
    EXPECT_LT(loc.element, r.twmarch.elements.size());
    EXPECT_LT(loc.addr, words);
    ++count;
  }
  EXPECT_EQ(count, stream_len);
  EXPECT_THROW(locate_read(r.twmarch, stream_len, words), std::out_of_range);
}

TEST(Diagnosis, LocateReadRespectsDescendingOrder) {
  // Element 2 of TSMarch C- runs down(); its first visited address must be
  // the highest one.
  const auto r = twm8();
  // Find the first read of the first Down element.
  std::size_t stream_index = 0;
  for (std::size_t e = 0; e < r.twmarch.elements.size(); ++e) {
    if (r.twmarch.elements[e].order == AddrOrder::Down) {
      const OpLocation loc = locate_read(r.twmarch, stream_index, 4);
      EXPECT_EQ(loc.element, e);
      EXPECT_EQ(loc.addr, 3u);
      return;
    }
    stream_index += r.twmarch.elements[e].read_count() * 4;
  }
  FAIL() << "March C- has a Down element";
}

// --- repairable memory ---------------------------------------------------

TEST(Repair, GeometryAndTranslation) {
  RepairableMemory mem(8, 2, 8);
  EXPECT_EQ(mem.num_words(), 8u);
  EXPECT_EQ(mem.physical().num_words(), 10u);
  EXPECT_EQ(mem.spares_left(), 2u);
  EXPECT_FALSE(mem.is_remapped(3));
  EXPECT_THROW(mem.repair(8), std::out_of_range);
}

TEST(Repair, RemapPreservesContent) {
  RepairableMemory mem(4, 1, 8);
  const BitVec d = BitVec::from_string("10101010");
  mem.write(2, d);
  ASSERT_TRUE(mem.repair(2));
  EXPECT_TRUE(mem.is_remapped(2));
  EXPECT_EQ(mem.read(2), d);
  EXPECT_EQ(mem.spares_left(), 0u);
  EXPECT_FALSE(mem.repair(3));  // out of spares
}

// The full BIST + BISR loop: detect, diagnose, remap, retest clean.
TEST(Repair, DetectDiagnoseRepairRetest) {
  const auto r = twm8();
  RepairableMemory mem(8, 2, 8);
  Rng rng(5);
  for (std::size_t a = 0; a < 8; ++a) mem.write(a, rng.next_word(8));

  // A hard defect develops in physical word 6.
  mem.physical().inject(Fault::saf({6, 3}, true));

  Diagnosis d = diagnose_transparent(mem, r.twmarch, r.prediction);
  ASSERT_TRUE(d.fault_found);
  EXPECT_EQ(d.suspect_word, 6u);

  ASSERT_TRUE(mem.repair(d.suspect_word));
  d = diagnose_transparent(mem, r.twmarch, r.prediction);
  EXPECT_FALSE(d.fault_found) << "defect must be out of service after remap";
}

// A defective spare is caught by the retest and repaired again.
TEST(Repair, DefectiveSpareCaughtOnRetest) {
  const auto r = twm8();
  RepairableMemory mem(8, 2, 8);
  Rng rng(6);
  for (std::size_t a = 0; a < 8; ++a) mem.write(a, rng.next_word(8));

  mem.physical().inject(Fault::saf({2, 1}, true));   // logical word 2
  mem.physical().inject(Fault::saf({8, 4}, false));  // first spare is bad too

  Diagnosis d = diagnose_transparent(mem, r.twmarch, r.prediction);
  ASSERT_TRUE(d.fault_found);
  ASSERT_TRUE(mem.repair(d.suspect_word));  // lands on the bad spare

  d = diagnose_transparent(mem, r.twmarch, r.prediction);
  ASSERT_TRUE(d.fault_found);
  EXPECT_EQ(d.suspect_word, 2u);
  ASSERT_TRUE(mem.repair(d.suspect_word));  // second spare is healthy

  d = diagnose_transparent(mem, r.twmarch, r.prediction);
  EXPECT_FALSE(d.fault_found);
}

}  // namespace
}  // namespace twm
