// Footprint-sparse march walk: a packed campaign unit walks only the words
// its faults touch; the seed's golden certificate
// (analysis/campaign_exec.h) is the precondition.
//
//   * Differential proof at geometries where the footprint is much smaller
//     than `words`: every scheme x regions {1, 4} on the packed backend
//     reproduces the scheduler-free scalar oracle byte for byte, over a
//     fault sample that covers every class (far AFaw aliases, inter-word
//     couplings across the memory, RET under a march with pauses) and
//     seeds {0} and {0, 3, 11}.
//   * The certificate holds for every plan make_scheme_plan builds, over
//     library and generated marches, widths, word counts and seeds.
//   * The golden-lane self-check still fires on a broken plan, and a plan
//     whose passes are not walk-aligned is refused with the same error
//     before any unit of the seed is reported.
//   * CampaignStats::addresses_walked stays within two words per fault
//     lane: the footprint walk ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/campaign_exec.h"
#include "bist/misr.h"
#include "bist/packed_engine.h"
#include "march/generator.h"
#include "march/library.h"
#include "march/printer.h"
#include "oracle.h"
#include "util/rng.h"

namespace twm {
namespace {

struct Geometry {
  std::size_t words;
  unsigned width;
  const char* march;  // March G carries the pauses RET faults need
};

constexpr Geometry kGeometries[] = {{2048, 4, "March C-"}, {1000, 8, "March G"}};

// A fixed sample (the same list in every build type): rounds of one fault
// per class, couplings and aliases half the memory away from their victim,
// and an intra-word coupling per round,
// truncated to `count`.
std::vector<Fault> sampled_faults(std::size_t words, unsigned width, std::size_t count) {
  Rng rng(0x5a11ce);
  const auto cell = [&](std::size_t word) {
    return CellAddr{word, static_cast<unsigned>(rng.next_below(width))};
  };
  const auto word = [&] { return static_cast<std::size_t>(rng.next_below(words)); };
  const auto far = [&](std::size_t w) { return (w + words / 2 + rng.next_below(64)) % words; };
  const auto trans = [&] { return rng.next_bool() ? Transition::Up : Transition::Down; };
  std::vector<Fault> faults;
  while (faults.size() < count) {
    faults.push_back(Fault::saf(cell(word()), rng.next_bool()));
    faults.push_back(Fault::tf(cell(word()), trans()));
    const std::size_t a = word();
    faults.push_back(Fault::cfst(cell(a), rng.next_bool(), cell(far(a)), rng.next_bool()));
    const std::size_t b = word();
    faults.push_back(Fault::cfid(cell(b), trans(), cell(far(b)), rng.next_bool()));
    const std::size_t c = word();
    faults.push_back(Fault::cfin(cell(c), trans(), cell(far(c))));
    faults.push_back(Fault::ret(cell(word()), rng.next_bool(), 1));
    faults.push_back(Fault::af_no_access(word()));
    const std::size_t d = word();
    faults.push_back(Fault::af_alias(d, far(d)));
    const std::size_t e = word();
    faults.push_back(Fault::cfid({e, 0}, trans(), {e, width - 1}, rng.next_bool()));
  }
  faults.resize(count);
  return faults;
}

// Column `seed` of a verdict matrix, as its own one-seed matrix: every
// oracle cell is an independent (fault, seed) run, so this IS the oracle
// matrix of that seed alone.
VerdictMatrix seed_column(const VerdictMatrix& m, std::size_t seed) {
  VerdictMatrix out;
  out.num_faults = m.num_faults;
  out.num_seeds = 1;
  for (std::size_t f = 0; f < m.num_faults; ++f) out.bits.push_back(m.bits[f * m.num_seeds + seed]);
  return out;
}

TEST(SparseWalk, EveryPackedCellEqualsTheOracle) {
  const std::vector<std::uint64_t> seed_sets[] = {{0}, {0, 3, 11}};
  constexpr std::size_t kSchemes = std::size(kAllSchemes);
  // The scalar oracle dominates the cost; its (geometry, scheme) matrices
  // are independent, so compute them on a few threads up front.
  std::vector<VerdictMatrix> oracle(std::size(kGeometries) * kSchemes);
  WorkerPool(std::clamp(std::thread::hardware_concurrency(), 1u, 4u))
      .for_each(oracle.size(), [&](std::size_t i) {
        const Geometry& g = kGeometries[i / kSchemes];
        oracle[i] = oracle_matrix(kAllSchemes[i % kSchemes], march_by_name(g.march), g.words,
                                  g.width, sampled_faults(g.words, g.width, 18), seed_sets[1]);
      });

  for (std::size_t gi = 0; gi < std::size(kGeometries); ++gi) {
    const Geometry& g = kGeometries[gi];
    const MarchTest march = march_by_name(g.march);
    const std::vector<Fault> faults = sampled_faults(g.words, g.width, 18);
    for (std::size_t ki = 0; ki < kSchemes; ++ki) {
      const SchemeKind k = kAllSchemes[ki];
      for (const std::vector<std::uint64_t>& seeds : seed_sets) {
        const VerdictMatrix& all_seeds = oracle[gi * kSchemes + ki];
        const VerdictMatrix want = seeds.size() == 1 ? seed_column(all_seeds, 0) : all_seeds;
        for (const unsigned regions : {1u, 4u}) {
          CoverageOptions o;
          o.backend = CoverageBackend::Packed;
          o.regions = regions;
          CampaignStats stats;
          std::vector<char> all, any;
          VerdictMatrix got;
          CampaignRunner(g.words, g.width, o)
              .run(k, march, faults, seeds, true, all, any, &got, nullptr, &stats);
          const std::string cell = std::to_string(g.words) + "x" + std::to_string(g.width) +
                                   " " + to_string(k) + " regions " +
                                   std::to_string(regions) + " seeds " +
                                   std::to_string(seeds.size());
          EXPECT_EQ(got.bits, want.bits) << cell;
          EXPECT_LE(stats.addresses_walked.load(), 2 * stats.lane_slots.load()) << cell;
        }
      }
    }
  }
}

// --- hand-built plans through the engine --------------------------------

constexpr std::size_t kWords = 1024;
constexpr unsigned kWidth = 4;

// Runs `plan` through the packed 64-lane campaign engine, full matrix.
VerdictMatrix engine_matrix(const SchemePlan& plan, std::size_t words,
                            const std::vector<Fault>& faults,
                            const std::vector<std::uint64_t>& seeds, CampaignStats* stats,
                            UnitObserver* observer = nullptr) {
  class OneCell final : public CellFeed {
   public:
    explicit OneCell(const CampaignCell& cell) : cell_(cell) {}
    std::size_t size() const override { return 1; }
    CampaignCell cell(std::size_t) override { return cell_; }

   private:
    CampaignCell cell_;
  };
  VerdictMatrix m;
  std::vector<char> all, any;
  OneCell feed({&plan, &faults, /*need_any=*/true, &all, &any, &m, observer, nullptr});
  CoverageOptions options;
  options.backend = CoverageBackend::Packed;
  CampaignRunner(words, plan.width, options).run_cells(feed, seeds, nullptr, stats);
  return m;
}

std::vector<Fault> word0_faults() {
  std::vector<Fault> faults;
  for (unsigned b = 0; b < kWidth; ++b) {
    faults.push_back(Fault::saf({0, b}, true));
    faults.push_back(Fault::tf({0, b}, Transition::Up));
  }
  return faults;
}

// A prediction whose first read expects the complement: the golden lane
// mismatches at EVERY word, including the thousand words outside the
// faults' footprint — the certificate must see that and the campaign must
// still abort.
TEST(SparseWalk, GoldenLaneCheckStillFiresOnABrokenPlan) {
  SchemePlan plan = make_scheme_plan(SchemeKind::ProposedExact, march_by_name("March C-"), kWidth);
  bool flipped = false;
  for (MarchElement& e : plan.prediction.elements)
    for (Op& op : e.ops)
      if (op.is_read() && !flipped) {
        op.data.complement = !op.data.complement;
        flipped = true;
      }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(golden_certificate(plan, PlanOpMasks(plan), kWords, nullptr));
  try {
    engine_matrix(plan, kWords, word0_faults(), {0}, nullptr);
    FAIL() << "the broken plan must trip the golden-lane check";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("golden lane reported a detection"), std::string::npos)
        << e.what();
  }
}

// A prediction walking one element Down where the test walks it Up: its
// streams do not pair up on a listed walk, so the certificate fails and the
// packed engine must refuse the plan with the golden-lane error before it
// reports any unit of the seed.
SchemePlan misordered_plan(SchemeKind k) {
  SchemePlan plan = make_scheme_plan(k, march_by_name("March C-"), kWidth);
  for (MarchElement& e : plan.prediction.elements)
    if (e.order != AddrOrder::Down && !e.ops.empty()) {
      e.order = AddrOrder::Down;
      break;
    }
  return plan;
}

// Counts the units the engine reports.
class CountingObserver final : public UnitObserver {
 public:
  void on_unit_settled(std::size_t, unsigned count, const char*, const char*) override {
    settled += count;
  }
  std::size_t settled = 0;
};

TEST(SparseWalk, UnalignedPlanIsRefused) {
  const std::vector<Fault> faults = sampled_faults(kWords, kWidth, 36);
  for (const SchemeKind k : {SchemeKind::ProposedExact, SchemeKind::ProposedMisr}) {
    const SchemePlan plan = misordered_plan(k);
    ASSERT_FALSE(transparent_passes_aligned(plan.trans, plan.prediction)) << to_string(k);
    EXPECT_FALSE(golden_certificate(plan, PlanOpMasks(plan), kWords, nullptr)) << to_string(k);
    CountingObserver observer;
    CampaignStats stats;
    try {
      engine_matrix(plan, kWords, faults, {0}, &stats, &observer);
      ADD_FAILURE() << to_string(k) << ": the unaligned plan must be refused";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("golden lane reported a detection"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(observer.settled, 0u) << to_string(k);
    EXPECT_EQ(stats.units.load(), 0u) << to_string(k);
  }
}

// Every plan make_scheme_plan builds passes its golden certificate, so the
// precondition never refuses a valid spec: library marches plus generated
// ones, every scheme, a spread of widths, word counts and seeds.
TEST(SparseWalk, CertificateHoldsForEveryBuiltPlan) {
  std::vector<MarchTest> marches;
  for (const std::string& name : march_names()) marches.push_back(march_by_name(name));
  Rng rng(20);
  for (int i = 0; i < 32; ++i) {
    MarchTest t = random_march(rng);
    repair_bit_march(t);
    ASSERT_TRUE(is_consistent_bit_march(t)) << to_string(t);
    marches.push_back(t);
  }
  for (const SchemeKind k : kAllSchemes)
    for (const unsigned width : {1u, 2u, 4u, 8u, 16u})
      for (const MarchTest& m : marches) {
        const SchemePlan plan = make_scheme_plan(k, m, width);
        const PlanOpMasks masks(plan);
        for (const std::size_t words : {1u, 3u, 64u, 1000u})
          for (const std::uint64_t seed : {0ull, 1ull, 3ull, 11ull, 12345ull}) {
            const std::vector<std::uint64_t> limbs = seeded_limbs(words, width, seed);
            EXPECT_TRUE(golden_certificate(plan, masks, words, seed ? limbs.data() : nullptr))
                << to_string(k) << " width " << width << " words " << words << " seed " << seed
                << ": " << to_string(m);
          }
      }
}

TEST(SparseWalk, CountersShowTheFootprintWalk) {
  constexpr std::size_t kBigWords = 65536;
  const std::vector<Fault> faults = sampled_faults(kBigWords, kWidth, 511);
  const MarchTest march = march_by_name("March C-");
  for (const SchemeKind k : {SchemeKind::ProposedExact, SchemeKind::TomtModel,
                             SchemeKind::ProposedSymmetricXor, SchemeKind::ProposedMisr}) {
    CoverageOptions o;
    o.backend = CoverageBackend::Packed;
    CampaignStats stats;
    CampaignRunner(kBigWords, kWidth, o).per_fault(k, march, faults, {0}, &stats);
    EXPECT_GT(stats.units.load(), 0u) << to_string(k);
    EXPECT_GT(stats.addresses_walked.load(), 0u) << to_string(k);
    EXPECT_LE(stats.addresses_walked.load(), 2 * stats.lane_slots.load()) << to_string(k);
  }
}

// A packed unit gives slots to exactly its fault footprint: every
// footprint word owns one from injection on, and the walk writes no other
// word.  Refills keep it exact (the store releases every slot), for every
// scheme, seed 0 and a seeded background.
TEST(SparseWalk, SlotStoreHoldsExactlyTheFootprint) {
  constexpr std::size_t kBigWords = 65536;
  const std::vector<Fault> faults = sampled_faults(kBigWords, kWidth, 63);
  std::vector<std::size_t> footprint;
  fault_footprint(faults.data(), faults.size(), footprint);
  const std::vector<std::uint64_t> table3 = seeded_limbs(kBigWords, kWidth, 3);
  for (const SchemeKind k : kAllSchemes) {
    const SchemePlan plan = make_scheme_plan(k, march_by_name("March G"), kWidth);
    const PlanOpMasks masks(plan);
    SessionScratch<PackedEngine> scratch;
    PackedMemory mem(kBigWords, kWidth);
    for (const std::uint64_t seed : {0ull, 3ull}) {
      PackedEngine::Brake brake = PackedEngine::make_brake(used_lane_mask(63));
      const LaneMask d = run_campaign_unit_in<PackedEngine>(
          mem, plan, masks, scratch, faults.data(), 63, seed ? table3.data() : nullptr, &brake,
          AddressList::of(footprint));
      EXPECT_EQ(d & 1u, 0u) << to_string(k) << " seed " << seed << ": golden lane";
      EXPECT_EQ(mem.slots_live(), footprint.size()) << to_string(k) << " seed " << seed;
    }
    EXPECT_EQ(mem.slots_peak(), footprint.size()) << to_string(k);
  }
}

// skip(k) multiplies every lane's state by x^k mod p: it equals k zero
// feeds at every default register width and two fallback ones (19, and 67,
// whose top four coefficients span two limbs), from random lane states,
// and skips compose (skip(a); skip(b) == skip(a + b)) far beyond what
// feeding could reach.
TEST(SparseWalk, MisrJumpsEqualZeroFeeds) {
  for (const unsigned width : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 64u, 128u, 19u, 67u}) {
    const MisrJumps jumps = MisrJumps::build(width);
    PackedMisr fed(jumps), skipped(jumps);
    Rng rng(width);
    std::vector<std::uint64_t> input(width);
    for (std::uint64_t& lanes : input) lanes = rng.next_u64();
    fed.feed(input.data(), width);
    skipped.feed(input.data(), width);
    const std::vector<std::uint64_t> zeros(width, 0);
    for (const std::uint64_t step : {1ull, 2ull, 3ull, 15ull, 16ull, 17ull, 64ull, 255ull, 256ull,
                                     777ull, 4097ull, 65536ull, 99999ull}) {
      for (std::uint64_t i = 0; i < step; ++i) fed.feed(zeros.data(), width);
      skipped.skip(step);
      ASSERT_EQ(skipped.state(), fed.state()) << width << " skip " << step;
    }
    for (int trial = 0; trial < 8; ++trial) {
      for (std::uint64_t& lanes : input) lanes = rng.next_u64();
      PackedMisr once(jumps), twice(jumps);
      once.feed(input.data(), width);
      twice.feed(input.data(), width);
      const std::uint64_t a = rng.next_u64() >> 24, b = rng.next_u64() >> 24;  // < 2^40
      once.skip(a + b);
      twice.skip(a);
      twice.skip(b);
      EXPECT_EQ(once.state(), twice.state()) << width << " skip " << a << " + " << b;
    }
  }
}

}  // namespace
}  // namespace twm
