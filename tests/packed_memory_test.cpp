// Differential property test for the bit-parallel PackedMemory: every lane
// of the packed simulator must evolve exactly like a scalar Memory holding
// that lane's fault, operation for operation, for every fault class and
// for randomized operation traces (writes, reads, pauses).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "memsim/limb_bits.h"
#include "memsim/memory.h"
#include "memsim/packed_memory.h"
#include "util/rng.h"

namespace twm {
namespace {

CellAddr random_cell(Rng& rng, std::size_t words, unsigned width) {
  return {static_cast<std::uint32_t>(rng.next_below(words)),
          static_cast<unsigned>(rng.next_below(width))};
}

// A random fault of any class (decoder faults included).  Coupling faults
// get a distinct aggressor, alias faults a distinct target word.
Fault random_fault(Rng& rng, std::size_t words, unsigned width) {
  const CellAddr victim = random_cell(rng, words, width);
  CellAddr aggressor = victim;
  while (aggressor == victim) aggressor = random_cell(rng, words, width);
  const Transition tr = rng.next_bool() ? Transition::Up : Transition::Down;
  switch (rng.next_below(8)) {
    case 0: return Fault::saf(victim, rng.next_bool());
    case 1: return Fault::tf(victim, tr);
    case 2: return Fault::cfst(aggressor, rng.next_bool(), victim, rng.next_bool());
    case 3: return Fault::cfid(aggressor, tr, victim, rng.next_bool());
    case 4: return Fault::cfin(aggressor, tr, victim);
    case 5: return Fault::af_no_access(victim.word);
    case 6:
      return Fault::af_alias(victim.word,
                             victim.word == 0 ? words - 1 : victim.word - 1);
    default: return Fault::ret(victim, rng.next_bool(), 1 + rng.next_below(3));
  }
}

// Compares every cell of `lane` against the scalar reference.
void expect_lane_equals(const PackedMemory& packed, unsigned lane, const Memory& ref,
                        const std::string& context) {
  for (std::size_t a = 0; a < ref.num_words(); ++a)
    ASSERT_EQ(packed.lane_word(lane, a), ref.peek(a))
        << context << ": lane " << lane << ", word " << a;
}

// The used mask of a partial batch covers fault lanes 1..count and never
// golden lane 0; counts past the last lane saturate at lanes 1..63.
TEST(UsedLaneMask, CoversLanesOneToCountNeverGolden) {
  for (unsigned count : {0u, 1u, 3u, 62u, 63u, 64u}) {
    const LaneMask m = used_lane_mask(count);
    for (unsigned lane = 0; lane < kPackedLanes; ++lane)
      EXPECT_EQ((m >> lane) & 1u, lane >= 1 && lane <= count)
          << "count " << count << ", lane " << lane;
  }
}

TEST(PackedMemorySim, DifferentialRandomTraces) {
  Rng rng(20260728);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t words = 2 + rng.next_below(4);
    const unsigned width = 1 + static_cast<unsigned>(rng.next_below(8));

    PackedMemory packed(words, width);
    // lane -> scalar replica holding exactly that lane's faults.
    std::map<unsigned, Memory> refs;
    refs.emplace(0u, Memory(words, width));  // golden lane

    // Random fault list, one fault per lane (lanes drawn without
    // replacement); faults of different lanes share the few words.
    std::vector<unsigned> lanes(kPackedLanes - 1);
    std::iota(lanes.begin(), lanes.end(), 1u);
    const unsigned num_faults = 1 + static_cast<unsigned>(rng.next_below(12));
    for (unsigned i = 0; i < num_faults; ++i) {
      const Fault f = random_fault(rng, words, width);
      std::swap(lanes[i], lanes[i + rng.next_below(lanes.size() - i)]);
      const unsigned lane = lanes[i];
      refs.emplace(lane, Memory(words, width));
      packed.inject(f, 1ull << lane);
      refs.at(lane).inject(f);
    }

    // Identical initial contents everywhere (load() re-enforces static
    // fault conditions on both simulators).
    std::vector<BitVec> contents;
    for (std::size_t a = 0; a < words; ++a) contents.push_back(rng.next_word(width));
    packed.load(contents);
    for (auto& [lane, ref] : refs) ref.load(contents);

    for (auto& [lane, ref] : refs)
      expect_lane_equals(packed, lane, ref, "trial " + std::to_string(trial) + " after load");

    // Random march-like trace: the packed port and every scalar replica see
    // the same operations; states and read values must stay identical.
    std::vector<std::uint64_t> packed_data(width);
    for (int op = 0; op < 120; ++op) {
      const std::size_t addr = rng.next_below(words);
      const unsigned kind = static_cast<unsigned>(rng.next_below(8));
      const std::string ctx =
          "trial " + std::to_string(trial) + ", op " + std::to_string(op);
      if (kind == 0) {
        packed.elapse(1);
        for (auto& [lane, ref] : refs) ref.elapse(1);
      } else if (kind <= 3) {
        const std::uint64_t* v = packed.read(addr);
        for (auto& [lane, ref] : refs) {
          const BitVec expected = ref.read(addr);
          for (unsigned j = 0; j < width; ++j)
            ASSERT_EQ((v[j] >> lane) & 1u, static_cast<std::uint64_t>(expected.get(j)))
                << ctx << ": read of word " << addr << ", lane " << lane << ", bit " << j;
        }
      } else {
        // Broadcast write data: every universe receives the same word, as a
        // march operation would present it.
        const BitVec data = rng.next_word(width);
        for (unsigned j = 0; j < width; ++j) packed_data[j] = data.get(j) ? ~0ull : 0ull;
        packed.write(addr, packed_data.data());
        for (auto& [lane, ref] : refs) ref.write(addr, data);
      }
      for (auto& [lane, ref] : refs) expect_lane_equals(packed, lane, ref, ctx);
    }
  }
}

// Per-lane write data (the transparent-BIST case: write data derived from
// per-lane reads) must also track the scalar simulators.
TEST(PackedMemorySim, DifferentialPerLaneWriteData) {
  const std::size_t words = 3;
  const unsigned width = 4;
  Rng rng(42);
  PackedMemory packed(words, width);
  std::map<unsigned, Memory> refs;
  refs.emplace(0u, Memory(words, width));
  for (unsigned lane = 1; lane <= 8; ++lane) {
    refs.emplace(lane, Memory(words, width));
    const Fault f = random_fault(rng, words, width);
    packed.inject(f, 1ull << lane);
    refs.at(lane).inject(f);
  }

  std::vector<std::uint64_t> packed_data(width);
  std::map<unsigned, BitVec> lane_data;
  for (int op = 0; op < 150; ++op) {
    const std::size_t addr = rng.next_below(words);
    // Different data per lane.
    lane_data.clear();
    for (unsigned j = 0; j < width; ++j) packed_data[j] = 0;
    for (auto& [lane, ref] : refs) {
      const BitVec d = rng.next_word(width);
      lane_data.emplace(lane, d);
      for (unsigned j = 0; j < width; ++j)
        if (d.get(j)) packed_data[j] |= 1ull << lane;
    }
    packed.write(addr, packed_data.data());
    for (auto& [lane, ref] : refs) ref.write(addr, lane_data.at(lane));
    for (auto& [lane, ref] : refs)
      expect_lane_equals(packed, lane, ref, "op " + std::to_string(op));
  }
}

// Static fault conditions are enforced at injection time, like the scalar
// simulator does.
TEST(PackedMemorySim, InjectEnforcesStaticFaults) {
  PackedMemory packed(2, 2);
  packed.inject(Fault::saf({0, 0}, true), 1ull << 5);
  EXPECT_TRUE(packed.lane_bit(5, 0, 0));
  EXPECT_FALSE(packed.lane_bit(0, 0, 0));  // golden lane untouched
  EXPECT_FALSE(packed.lane_bit(6, 0, 0));  // other lanes untouched

  // CFst <0; 1>: aggressor rests at 0, so the victim is forced immediately,
  // in the fault's lane only.
  packed.inject(Fault::cfst({1, 0}, false, {1, 1}, true), 1ull << 7);
  EXPECT_TRUE(packed.lane_bit(7, 1, 1));
  EXPECT_FALSE(packed.lane_bit(0, 1, 1));
}

TEST(PackedMemorySim, RetentionDecayIsLaneMasked) {
  PackedMemory packed(2, 1);
  Memory ref(2, 1);
  const Fault leak = Fault::ret({0, 0}, true, 2);
  packed.inject(leak, 1ull << 3);
  ref.inject(leak);

  std::vector<BitVec> zeros(2, BitVec::zeros(1));
  packed.load(zeros);
  ref.load(zeros);

  packed.elapse(1);
  ref.elapse(1);
  EXPECT_FALSE(packed.lane_bit(3, 0, 0));

  // A write to the leaky cell refreshes both clocks.
  const std::uint64_t zero_bit = 0;
  packed.write(0, &zero_bit);
  ref.write(0, BitVec::zeros(1));

  packed.elapse(1);
  ref.elapse(1);
  EXPECT_FALSE(packed.lane_bit(3, 0, 0)) << "clock must have been refreshed by the write";

  packed.elapse(1);
  ref.elapse(1);
  EXPECT_TRUE(packed.lane_bit(3, 0, 0));
  EXPECT_TRUE(ref.peek(0).get(0));
  EXPECT_FALSE(packed.lane_bit(0, 0, 0)) << "golden lane must not decay";
  EXPECT_FALSE(packed.lane_bit(4, 0, 0)) << "unfaulted lane must not decay";
}

// ---- the footprint-grain slot store (huge-memory campaigns) ---------------

// On a large geometry the slot store must evolve exactly like the dense
// scalar reference while giving slots only to the words the trace (and the
// fault footprints) actually touch.  The fault list couples neighbouring
// and distant words.
TEST(PackedMemorySim, SparseSlotStoreDifferential) {
  const std::size_t words = 4096;
  const unsigned width = 4;
  Rng rng(20260807);

  PackedMemory packed(words, width);
  std::map<unsigned, Memory> refs;
  refs.emplace(0u, Memory(words, width));

  const std::vector<Fault> list = {
      Fault::saf({63, 1}, true),
      Fault::tf({64, 0}, Transition::Up),
      Fault::cfid({63, 2}, Transition::Up, {64, 3}, true),   // neighbouring words
      Fault::cfst({4095, 0}, true, {0, 0}, true),            // last word -> first word
      Fault::ret({128, 3}, true, 2),
      Fault::af_alias(130, 62),                              // distant alias copy
  };
  for (std::size_t i = 0; i < list.size(); ++i) {
    const unsigned lane = 1 + static_cast<unsigned>(i);
    refs.emplace(lane, Memory(words, width));
    packed.inject(list[i], 1ull << lane);
    refs.at(lane).inject(list[i]);
  }

  packed.fill_seeded(7);
  for (auto& [lane, ref] : refs) ref.fill_seeded(7);

  const std::vector<std::size_t> touched = {0,  62,  63,  64,  65,  127,
                                            128, 129, 130, 2048, 4094, 4095};
  std::vector<std::uint64_t> packed_data(width);
  for (int op = 0; op < 250; ++op) {
    const std::size_t addr = touched[rng.next_below(touched.size())];
    const unsigned kind = static_cast<unsigned>(rng.next_below(8));
    const std::string ctx = "op " + std::to_string(op);
    if (kind == 0) {
      packed.elapse(1);
      for (auto& [lane, ref] : refs) ref.elapse(1);
    } else if (kind <= 3) {
      const std::uint64_t* v = packed.read(addr);
      for (auto& [lane, ref] : refs) {
        const BitVec expected = ref.read(addr);
        for (unsigned j = 0; j < width; ++j)
          ASSERT_EQ((v[j] >> lane) & 1u, static_cast<std::uint64_t>(expected.get(j)))
              << ctx << ": read of word " << addr << ", lane " << lane << ", bit " << j;
      }
    } else {
      const BitVec data = rng.next_word(width);
      for (unsigned j = 0; j < width; ++j) packed_data[j] = data.get(j) ? ~0ull : 0ull;
      packed.write(addr, packed_data.data());
      for (auto& [lane, ref] : refs) ref.write(addr, data);
    }
    for (const std::size_t a : touched)
      for (auto& [lane, ref] : refs)
        ASSERT_EQ(packed.lane_word(lane, a), ref.peek(a))
            << ctx << ": lane " << lane << ", word " << a;
  }

  // Sparse bound: only the touched/fault-footprint words hold slots —
  // nowhere near the 4096 a dense store would hold.
  EXPECT_LE(packed.slots_live(), touched.size() + 2 * list.size());
  EXPECT_GT(packed.slots_live(), 0u);

  // Untouched words still read as the seeded background, in every lane.
  for (const std::size_t a : {std::size_t{300}, std::size_t{1000}, std::size_t{3000}})
    for (auto& [lane, ref] : refs)
      ASSERT_EQ(packed.lane_word(lane, a), ref.peek(a)) << "background word " << a;
}

// Compares every lane of word `a` against its scalar replica.
void expect_word_equals(const PackedMemory& packed, const std::map<unsigned, Memory>& refs,
                        std::size_t a, const std::string& context) {
  const std::uint64_t* cells = packed.peek(a);
  for (const auto& [lane, ref] : refs) {
    const BitVec expected = ref.peek(a);
    for (unsigned j = 0; j < packed.word_width(); ++j)
      ASSERT_EQ((cells[j] >> lane) & 1u, static_cast<std::uint64_t>(expected.get(j)))
          << context << ": lane " << lane << ", word " << a << ", bit " << j;
  }
}

// The slot store grows while faults are live and refills interleave with
// the growth: each round writes more distinct words than the last (340 in
// all, past several doublings of the store and rebuilds of its word ->
// slot table), under decoder, coupling, stuck-at and retention faults,
// with refills alternating seeds 0/7/0/9.  Every lane must track its
// scalar replica after every op.  A table rebuild that leaves a stale
// entry behind mis-addresses a word once the next refill clears the live
// ones, which this catches.
TEST(PackedMemorySim, SlotStoreGrowthMatchesTheScalarMemory) {
  const std::size_t words = 2048;
  const unsigned width = 4;
  Rng rng(20261018);

  // 340 distinct words in random order; round r walks the first 85 * (r + 1).
  std::vector<std::size_t> pool;
  std::vector<char> taken(words, 0);
  while (pool.size() < 340) {
    const std::size_t w = rng.next_below(words);
    if (!taken[w]) {
      taken[w] = 1;
      pool.push_back(w);
    }
  }
  const auto pick = [&](std::size_t limit) { return pool[rng.next_below(limit)]; };
  const auto cell = [&](std::size_t limit) {
    return CellAddr{static_cast<std::uint32_t>(pick(limit)),
                    static_cast<unsigned>(rng.next_below(width))};
  };

  // One fault per lane (pairwise-disjoint lanes, the campaign contract),
  // footprints spread over the whole pool so later rounds reach them too.
  std::vector<Fault> list;
  while (list.size() < 32) {
    const CellAddr v = cell(pool.size());
    CellAddr a = cell(pool.size());
    if (a.word == v.word) continue;
    const Transition tr = rng.next_bool() ? Transition::Up : Transition::Down;
    switch (list.size() % 8) {
      case 0: list.push_back(Fault::af_no_access(v.word)); break;
      case 1: list.push_back(Fault::af_alias(v.word, a.word)); break;
      case 2: list.push_back(Fault::cfst(a, rng.next_bool(), v, rng.next_bool())); break;
      case 3: list.push_back(Fault::cfid(a, tr, v, rng.next_bool())); break;
      case 4: list.push_back(Fault::cfin(a, tr, v)); break;
      case 5: list.push_back(Fault::saf(v, rng.next_bool())); break;
      case 6: list.push_back(Fault::ret(v, rng.next_bool(), 1 + rng.next_below(3))); break;
      default: list.push_back(Fault::tf(v, tr)); break;
    }
  }
  std::vector<std::size_t> footprint;
  fault_footprint(list.data(), list.size(), footprint);

  PackedMemory packed(words, width);
  std::map<unsigned, Memory> refs;
  refs.emplace(0u, Memory(words, width));  // golden lane
  for (std::size_t i = 0; i < list.size(); ++i) {
    const unsigned lane = 1 + static_cast<unsigned>(i);
    refs.emplace(lane, Memory(words, width));
    packed.inject(list[i], 1ull << lane);
    refs.at(lane).inject(list[i]);
  }

  std::vector<std::uint64_t> packed_data(width);
  // Per-lane write data: every universe receives its own word.
  const auto write = [&](std::size_t addr) {
    for (std::uint64_t& lanes : packed_data) lanes = rng.next_u64();
    packed.write(addr, packed_data.data());
    for (auto& [lane, ref] : refs) {
      BitVec data(width);
      for (unsigned j = 0; j < width; ++j) data.set(j, (packed_data[j] >> lane) & 1u);
      ref.write(addr, data);
    }
  };
  const auto check = [&](std::size_t addr, const std::string& ctx) {
    expect_word_equals(packed, refs, addr, ctx);
    for (const std::size_t a : footprint) expect_word_equals(packed, refs, a, ctx);
  };
  const std::uint64_t seeds[] = {0, 7, 0, 9};
  for (std::size_t round = 0; round < std::size(seeds); ++round) {
    packed.fill_seeded(seeds[round]);
    for (auto& [lane, ref] : refs) ref.fill_seeded(seeds[round]);
    const std::size_t limit = 85 * (round + 1);
    const std::string at = "round " + std::to_string(round);
    // A write to every word of the round first (the store grows), then a
    // random trace over them.
    for (std::size_t i = 0; i < limit; ++i) {
      write(pool[i]);
      check(pool[i], at + ", initial write " + std::to_string(i));
    }
    for (int op = 0; op < 400; ++op) {
      const std::size_t addr = pick(limit);
      const unsigned kind = static_cast<unsigned>(rng.next_below(8));
      const std::string ctx = at + ", op " + std::to_string(op);
      if (kind == 0) {
        packed.elapse(1);
        for (auto& [lane, ref] : refs) ref.elapse(1);
      } else if (kind <= 3) {
        const std::uint64_t* v = packed.read(addr);
        for (auto& [lane, ref] : refs) {
          const BitVec expected = ref.read(addr);
          for (unsigned j = 0; j < width; ++j)
            ASSERT_EQ((v[j] >> lane) & 1u, static_cast<std::uint64_t>(expected.get(j)))
                << ctx << ": read of word " << addr << ", lane " << lane << ", bit " << j;
        }
      } else {
        write(addr);
      }
      check(addr, ctx);
    }
    for (std::size_t a = 0; a < words; ++a) expect_word_equals(packed, refs, a, "end of " + at);
  }
  EXPECT_GE(packed.slots_peak(), 300u);
  EXPECT_GE(packed.store_growths(), 4u) << "the store must have grown and rebuilt several times";
}

// Refill rounds (the repack scheduler's per-seed reset) must reuse the slot
// store's capacity instead of allocating: after the warm-up round,
// store_growths() stays flat.
TEST(PackedMemorySim, RefillRoundsReuseSlotsWithoutAllocating) {
  PackedMemory m(4096, 8);
  std::vector<std::uint64_t> data(8, ~0ull);
  const std::vector<std::size_t> addrs = {0, 100, 1000, 4000};
  const std::vector<std::uint64_t> tables[] = {seeded_limbs(4096, 8, 1), seeded_limbs(4096, 8, 2)};
  const auto round = [&](std::uint64_t seed) {
    m.clear_faults();
    m.fill_limbs(tables[seed - 1].data());
    m.inject(Fault::saf({100, 0}, true), 2);
    for (const std::size_t a : addrs) m.write(a, data.data());
  };
  round(1);
  round(2);  // warm-up: store grown
  const std::uint64_t warm = m.store_growths();
  EXPECT_GT(warm, 0u);
  for (int r = 0; r < 6; ++r) round(1 + static_cast<std::uint64_t>(r % 2));
  EXPECT_EQ(m.store_growths(), warm) << "refill rounds must reuse the store's capacity";
  EXPECT_EQ(m.slots_peak(), addrs.size())
      << "peak slots must be exactly the distinct words a round touches";
}

// Reads and peeks of background packed words must not give them slots — a
// read-heavy march over a huge background costs no memory — whether the
// memory generated the seed's contents or borrows a shared table.
TEST(PackedMemorySim, ReadsOfBackgroundWordsDontMaterialize) {
  Memory m(4096, 4);
  m.fill_seeded(3);

  const std::vector<std::uint64_t> table = seeded_limbs(4096, 4, 3);
  PackedMemory seeded(4096, 4), borrowed(4096, 4);
  seeded.fill_seeded(3);
  borrowed.fill_limbs(table.data());
  for (PackedMemory* p : {&seeded, &borrowed}) {
    for (std::size_t a = 0; a < 4096; a += 61) {
      (void)p->read(a);
      (void)p->peek(a);
    }
    EXPECT_EQ(p->slots_live(), 0u);
    // The seeded background broadcast matches the scalar contents.
    for (std::size_t a = 0; a < 4096; a += 127)
      ASSERT_EQ(p->lane_word(0, a), m.peek(a)) << "word " << a;
  }
}

// ---- folded SAF/TF masks on dense words ------------------------------------

// Every SAF, TF, RET and intra-word CFst of a small memory, in exhaustive
// list order (class by class, word by word): consecutive faults share a
// word, so a 63-fault batch puts many folded and bucketed faults on one
// slot.
std::vector<Fault> dense_word_faults(std::size_t words, unsigned width) {
  std::vector<Fault> out;
  for (std::uint32_t w = 0; w < words; ++w)
    for (unsigned b = 0; b < width; ++b)
      for (const bool v : {false, true}) out.push_back(Fault::saf({w, b}, v));
  for (std::uint32_t w = 0; w < words; ++w)
    for (unsigned b = 0; b < width; ++b)
      for (const Transition t : {Transition::Up, Transition::Down})
        out.push_back(Fault::tf({w, b}, t));
  for (std::uint32_t w = 0; w < words; ++w)
    for (unsigned b = 0; b < width; ++b)
      for (const bool v : {false, true}) out.push_back(Fault::ret({w, b}, v, 1 + (b + v) % 3));
  for (std::uint32_t w = 0; w < words; ++w)
    for (unsigned a = 0; a < width; ++a)
      for (unsigned b = 0; b < width; ++b)
        if (a != b)
          for (const bool state : {false, true})
            for (const bool v : {false, true}) out.push_back(Fault::cfst({w, a}, state, {w, b}, v));
  return out;
}

// The dense lists in disjoint lanes, 63 per batch over a seeded background,
// under random broadcast and per-lane writes, reads and pauses: every lane
// must track a scalar Memory holding its fault.
TEST(PackedMemorySim, DenseWordFoldsMatchTheScalarMemory) {
  constexpr std::size_t kWords = 4;
  Rng rng(20261020);
  for (const unsigned width : {1u, 3u, 8u}) {
    const std::vector<Fault> faults = dense_word_faults(kWords, width);
    const std::vector<std::uint64_t> table = seeded_limbs(kWords, width, 5);
    PackedMemory packed(kWords, width);  // reused batch after batch, as a worker's
    std::vector<std::uint64_t> data(width);
    for (std::size_t lo = 0; lo < faults.size(); lo += kPackedLanes - 1) {
      const std::size_t n = std::min<std::size_t>(kPackedLanes - 1, faults.size() - lo);
      const std::string batch =
          "width " + std::to_string(width) + ", batch at " + std::to_string(lo);
      packed.clear_faults();
      packed.fill_limbs(table.data());
      std::vector<Memory> refs(n + 1, Memory(kWords, width));  // [lane]
      for (Memory& ref : refs) ref.fill_limbs(table.data());
      for (std::size_t i = 0; i < n; ++i) {
        packed.inject(faults[lo + i], LaneMask{1} << (i + 1));
        refs[i + 1].inject(faults[lo + i]);
      }
      const auto check = [&](const std::string& ctx) {
        for (std::size_t lane = 0; lane <= n; ++lane)
          for (std::size_t a = 0; a < kWords; ++a)
            ASSERT_EQ(packed.lane_word(static_cast<unsigned>(lane), a), refs[lane].peek(a))
                << batch << ", " << ctx << ": lane " << lane << ", word " << a;
      };
      check("after inject");
      for (int op = 0; op < 160; ++op) {
        const std::string ctx = "op " + std::to_string(op);
        const std::size_t addr = rng.next_below(kWords);
        const unsigned kind = static_cast<unsigned>(rng.next_below(10));
        if (kind == 0) {
          const unsigned units = 1 + static_cast<unsigned>(rng.next_below(2));
          packed.elapse(units);
          for (Memory& ref : refs) ref.elapse(units);
        } else if (kind <= 3) {
          const LaneMask* v = packed.read(addr);
          for (std::size_t lane = 0; lane <= n; ++lane) {
            const BitVec want = refs[lane].read(addr);
            for (unsigned j = 0; j < width; ++j)
              ASSERT_EQ((v[j] >> lane) & 1u, static_cast<LaneMask>(want.get(j)))
                  << batch << ", " << ctx << ": read of word " << addr << ", lane " << lane;
          }
        } else {
          // Broadcast data (an absolute march write) or per-lane data (a
          // transparent one).
          const bool broadcast = kind <= 6;
          const BitVec word = rng.next_word(width);
          for (unsigned j = 0; j < width; ++j)
            data[j] = broadcast ? (word.get(j) ? ~LaneMask{0} : LaneMask{}) : rng.next_u64();
          packed.write(addr, data.data());
          for (std::size_t lane = 0; lane <= n; ++lane) {
            BitVec d(width);
            for (unsigned j = 0; j < width; ++j) d.set(j, (data[j] >> lane) & 1u);
            refs[lane].write(addr, d);
          }
        }
        check(ctx);
      }
    }
  }
}

// One fault per lane: a fault on a lane that already holds one is
// rejected and leaves the memory as it was; clear_faults frees the lane.
TEST(PackedMemorySim, OverlappingLanesAreRejected) {
  PackedMemory packed(2, 2);
  const LaneMask lane3 = LaneMask{1} << 3, lane5 = LaneMask{1} << 5;
  packed.inject(Fault::saf({1, 0}, true), lane3 | lane5);
  EXPECT_THROW(packed.inject(Fault::saf({1, 0}, false), lane5), std::invalid_argument);
  EXPECT_THROW(packed.inject(Fault::tf({0, 1}, Transition::Up), LaneMask{1} << 2 | lane3),
               std::invalid_argument);
  packed.inject(Fault::tf({0, 1}, Transition::Up), LaneMask{1} << 2);  // lane 2 is still free

  const std::vector<LaneMask> zeros = broadcast_word(BitVec::zeros(2));
  const std::vector<LaneMask> ones = broadcast_word(BitVec::ones(2));
  packed.write(1, zeros.data());
  EXPECT_TRUE(packed.lane_bit(3, 1, 0));
  EXPECT_TRUE(packed.lane_bit(5, 1, 0)) << "the rejected stuck-at-0 must leave no trace";
  EXPECT_FALSE(packed.lane_bit(0, 1, 0));

  packed.clear_faults();
  packed.inject(Fault::saf({1, 0}, false), lane5);
  packed.write(1, zeros.data());
  EXPECT_FALSE(packed.lane_bit(3, 1, 0)) << "clear_faults must drop lane 3's stuck-at-1";
  packed.write(1, ones.data());
  EXPECT_FALSE(packed.lane_bit(5, 1, 0));
  EXPECT_TRUE(packed.lane_bit(3, 1, 0));
}

TEST(PackedMemorySim, RejectsBadGeometryAndCells) {
  EXPECT_THROW(PackedMemory(0, 4), std::invalid_argument);
  EXPECT_THROW(PackedMemory(4, 0), std::invalid_argument);
  PackedMemory m(2, 2);
  EXPECT_THROW(m.inject(Fault::saf({2, 0}, true), 1), std::out_of_range);
  EXPECT_THROW(m.inject(Fault::saf({0, 2}, true), 1), std::out_of_range);
  EXPECT_THROW(m.inject(Fault::cfin({0, 0}, Transition::Up, {0, 0}), 1), std::invalid_argument);
}

}  // namespace
}  // namespace twm
