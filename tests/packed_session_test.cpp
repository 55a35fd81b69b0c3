// Per-worker session scratch: a campaign worker runs every unit through one
// SessionScratch (core/scheme_session.h), which keeps the unit's footprint,
// the TOMT ledger and registers, the XOR accumulator and the packed
// runner's prediction snapshots, registers and MISR from unit to unit.
//
//   * A scratch reused across every scheme, several widths and address
//     lists that shrink and then grow gives exactly the verdicts of fresh
//     sessions, the exact and the MISR verdict alike: no stale prediction
//     read, MISR state, ledger bit or accumulator carries into a later unit.
//   * The prediction a transparent session derives from its snapshots
//     equals, read by read and lane by lane, the stream the scalar runner
//     records, pauses and AF port views included.
//   * TOMT sessions run from the block compiled into the plan reproduce the
//     scheduler-free oracle (tests/oracle.h) on both backends, and the
//     whole-memory run_tomt, which builds its own block, agrees with both.
//   * Once the buffers have grown, a packed unit allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/campaign_exec.h"
#include "bist/engine.h"
#include "core/scheme_session.h"
#include "core/tomt.h"
#include "march/library.h"
#include "march/printer.h"
#include "oracle.h"
#include "util/rng.h"

// Heap allocations counted while g_counting is set (this binary's global
// operator new; every other form forwards to it).
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler does not pair an inlined free() with a
// new-expression.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace twm {
namespace {

// `count` faults cycling through every class; couplings and aliases pair
// the victim with another word, so footprints hold about two words a fault.
std::vector<Fault> mixed_faults(std::size_t words, unsigned width, std::size_t count,
                                std::uint64_t seed) {
  Rng rng(seed);
  const auto cell = [&] {
    return CellAddr{static_cast<std::size_t>(rng.next_below(words)),
                    static_cast<unsigned>(rng.next_below(width))};
  };
  std::vector<Fault> out;
  while (out.size() < count) {
    const CellAddr v = cell();
    CellAddr a = cell();
    if (a.word == v.word) a.word = (a.word + 1) % words;
    const Transition tr = rng.next_bool() ? Transition::Up : Transition::Down;
    switch (out.size() % 7) {
      case 0: out.push_back(Fault::saf(v, rng.next_bool())); break;
      case 1: out.push_back(Fault::tf(v, tr)); break;
      case 2: out.push_back(Fault::cfid(a, tr, v, rng.next_bool())); break;
      case 3: out.push_back(Fault::cfst(a, rng.next_bool(), v, rng.next_bool())); break;
      case 4: out.push_back(Fault::cfin(a, tr, v)); break;
      case 5: out.push_back(Fault::ret(v, rng.next_bool(), 1)); break;
      default: out.push_back(Fault::af_alias(v.word, a.word)); break;
    }
  }
  return out;
}

// Clears, re-seeds and injects `mem` as run_campaign_unit_in does.
void prepare(PackedMemory& mem, const Fault* faults, unsigned count, std::uint64_t seed) {
  mem.clear_faults();
  mem.fill_seeded(seed);
  for (unsigned i = 0; i < count; ++i) PackedEngine::inject(mem, faults[i], i);
}

TEST(PackedSession, ReusedScratchMatchesFreshSessions) {
  constexpr std::size_t kWords = 300;
  // Lane counts per unit: the lists shrink, then grow back.
  constexpr unsigned kBatches[] = {63, 7, 1, 40, 63, 2};
  std::size_t total = 0;
  for (const unsigned n : kBatches) total += n;
  const MarchTest march = march_by_name("March C-");

  SessionScratch<PackedEngine> reused;  // one scratch for every session below
  for (const unsigned width : {1u, 3u, 8u, 16u, 32u}) {
    const std::vector<Fault> faults = mixed_faults(kWords, width, total, width);
    const std::vector<std::uint64_t> table3 = seeded_limbs(kWords, width, 3);
    PackedMemory mem(kWords, width);
    for (const SchemeKind k : kAllSchemes) {
      // The word-oriented transforms need a power-of-two width; TOMT does not.
      if (!std::has_single_bit(width) && k != SchemeKind::TomtModel) continue;
      const SchemePlan plan = make_scheme_plan(k, march, width);
      const PlanOpMasks masks(plan);
      for (const std::uint64_t seed : {0ull, 3ull}) {
        const std::uint64_t* limbs = seed != 0 ? table3.data() : nullptr;
        std::size_t lo = 0;
        for (const unsigned n : kBatches) {
          const Fault* batch = faults.data() + lo;
          lo += n;
          const auto where = [&] {
            return to_string(k) + " width " + std::to_string(width) + " seed " +
                   std::to_string(seed) + " lanes " + std::to_string(n);
          };
          fault_footprint(batch, n, reused.footprint);
          const AddressList list = AddressList::of(reused.footprint);

          // The session as the scheduler runs it: armed brake, then unbraked.
          for (const bool braked : {true, false}) {
            SessionScratch<PackedEngine> fresh;
            PackedMemory fresh_mem(kWords, width);
            PackedEngine::Brake b1 = PackedEngine::make_brake(used_lane_mask(n));
            PackedEngine::Brake b2 = PackedEngine::make_brake(used_lane_mask(n));
            const LaneMask got = run_campaign_unit_in<PackedEngine>(
                mem, plan, masks, reused, batch, n, limbs, braked ? &b1 : nullptr, list);
            const LaneMask want = run_campaign_unit_in<PackedEngine>(
                fresh_mem, plan, masks, fresh, batch, n, limbs, braked ? &b2 : nullptr, list);
            EXPECT_EQ(got, want) << where() << (braked ? " braked" : "");
          }

          // Both verdicts of a transparent session, MISR included.
          if (!transparent_compare(k)) continue;
          prepare(mem, batch, n, seed);
          PackedMemory fresh_mem(kWords, width);
          prepare(fresh_mem, batch, n, seed);
          PackedMarchRunner runner(mem, list, reused.runner);
          PackedSessionScratch fresh;
          PackedMarchRunner fresh_runner(fresh_mem, list, fresh);
          const auto got = PackedEngine::run_transparent(runner, plan.trans, plan.prediction,
                                                         plan.misr, nullptr, true, &masks.trans,
                                                         &masks.prediction);
          const auto want = PackedEngine::run_transparent(fresh_runner, plan.trans,
                                                          plan.prediction, plan.misr);
          EXPECT_EQ(got.exact, want.exact) << where();
          EXPECT_EQ(got.misr, want.misr) << where();
        }
      }
    }
  }
}

// The derived prediction (packed_detail::DerivedPrediction) equals, read by
// read and lane by lane, the prediction stream the scalar MarchRunner
// records for each lane's fault, and leaves every cell of every lane as
// the swept prediction pass would.  Covered: every scheme with a
// transparent session; a plan without pauses (March C-) and one with them
// (March G's `del` elements, RET faults injected); every width the
// transforms accept; seeds 0 and nonzero; AF faults, whose port view the
// snapshots must reproduce; a walk over every word and one over the
// footprint of a few faults, whose reads keep their full-walk positions.
TEST(PackedSession, DerivedPredictionEqualsTheRecordedOne) {
  constexpr std::size_t kWords = 24;
  constexpr SchemeKind kTransparent[] = {SchemeKind::ProposedExact, SchemeKind::ProposedMisr,
                                         SchemeKind::TsmarchOnly, SchemeKind::Scheme1Exact};
  for (const char* name : {"March C-", "March G"}) {
    const MarchTest march = march_by_name(name);
    for (const unsigned width : {1u, 2u, 4u, 8u, 16u, 32u}) {
      std::vector<Fault> faults = mixed_faults(kWords, width, 56, width);
      // A few faults up front, so the footprint walk below meets decoder
      // faults and cells that decay over one pause or only over two.
      const std::vector<Fault> first = {
          Fault::ret({3, 0}, true, 1), Fault::af_no_access(5),     Fault::af_alias(9, 3),
          Fault::ret({9, width - 1}, false, 2), Fault::ret({17, 0}, false, 1),
          Fault::af_no_access(17), Fault::ret({20, 0}, true, 2)};
      faults.insert(faults.begin(), first.begin(), first.end());
      for (const SchemeKind k : kTransparent) {
        const SchemePlan plan = make_scheme_plan(k, march, width);
        const PlanOpMasks masks(plan);
        const bool pauses = std::any_of(plan.prediction.elements.begin(),
                                        plan.prediction.elements.end(),
                                        [](const MarchElement& e) { return e.pause_before; });
        EXPECT_EQ(pauses, std::string(name) == "March G") << to_string(k);
        for (const std::uint64_t seed : {0ull, 5ull}) {
          const auto where = [&] {
            return std::string(name) + " " + to_string(k) + " width " + std::to_string(width) +
                   " seed " + std::to_string(seed);
          };
          // [lane][read] and [lane][word] of the scalar reference, lane 0
          // fault-free and lane i + 1 holding faults[i].
          std::vector<std::vector<BitVec>> stream, cells;
          for (std::size_t lane = 0; lane <= faults.size(); ++lane) {
            Memory ref(kWords, width);
            ref.fill_seeded(seed);
            if (lane) ref.inject(faults[lane - 1]);
            MarchRunner runner(ref);
            StreamRecorder rec;
            runner.run_prediction(plan.prediction, rec);
            stream.push_back(rec.stream());
            cells.emplace_back();
            for (std::size_t a = 0; a < kWords; ++a) cells.back().push_back(ref.peek(a));
          }

          for (const unsigned count : {static_cast<unsigned>(faults.size()), 5u}) {
            std::vector<std::size_t> footprint;
            fault_footprint(faults.data(), count, footprint);
            const AddressList list =
                count == faults.size() ? AddressList::all(kWords) : AddressList::of(footprint);
            PackedMemory mem(kWords, width);
            prepare(mem, faults.data(), count, seed);
            // The snapshots read through the slot port, as a runner's do.
            std::vector<std::uint32_t> slots(list.size);
            for (std::size_t k = 0; k < list.size; ++k) slots[k] = mem.slot_of(list[k]);
            packed_detail::DerivedPrediction derived;
            derived.start(mem, list, slots.data(), plan.prediction, masks.prediction);
            const std::size_t reads = plan.prediction.read_count() * list.size;
            std::uint64_t last = 0;
            for (std::size_t i = 0; i < reads; ++i) {
              const packed_detail::DerivedPrediction::Read p = derived.next();
              ASSERT_LT(p.pos, stream[0].size()) << where();
              if (list.full()) {
                ASSERT_EQ(p.pos, i) << where();
              }
              if (i) {
                ASSERT_GT(p.pos, last) << where();
              }
              last = p.pos;
              for (unsigned j = 0; j < width; ++j) {
                const LaneMask got = p.word[j] ^ p.mask[j];
                for (unsigned lane = 0; lane <= count; ++lane)
                  ASSERT_EQ((got >> lane) & 1u, stream[lane][p.pos].get(j) ? 1u : 0u)
                      << where() << " lanes " << count << " read " << i << " position "
                      << p.pos << " bit " << j << " lane " << lane;
              }
            }
            for (std::size_t a = 0; a < kWords; ++a) {
              const LaneMask* word = mem.peek(a);
              for (unsigned j = 0; j < width; ++j)
                for (unsigned lane = 0; lane <= count; ++lane)
                  ASSERT_EQ((word[j] >> lane) & 1u, cells[lane][a].get(j) ? 1u : 0u)
                      << where() << " lanes " << count << " word " << a << " bit " << j
                      << " lane " << lane;
            }
          }
        }
      }
    }
  }
}

// TOMT runs from the plan's compiled block (SchemePlan::tomt, PlanOpMasks
// ::tomt) on both backends; the oracle's scalar sessions derive the block's
// masks from its ops, and run_tomt builds the block itself.
TEST(PackedSession, PlanCompiledTomtBlockMatchesTheOracle) {
  constexpr std::size_t kWords = 48;
  const MarchTest march = march_by_name("March C-");
  const std::vector<std::uint64_t> seeds = {0, 3};
  for (const unsigned width : {1u, 5u, 8u, 32u}) {
    const SchemePlan plan = make_scheme_plan(SchemeKind::TomtModel, march, width);
    EXPECT_EQ(to_string(plan.tomt), to_string(tomt_test(width))) << width;
    const std::vector<Fault> faults = mixed_faults(kWords, width, 70, 100 + width);
    const VerdictMatrix want =
        oracle_matrix(SchemeKind::TomtModel, march, kWords, width, faults, seeds);

    for (const CoverageBackend backend : {CoverageBackend::Scalar, CoverageBackend::Packed}) {
      CoverageOptions o;
      o.backend = backend;
      const VerdictMatrix got =
          CampaignRunner(kWords, width, o).matrix(SchemeKind::TomtModel, march, faults, seeds);
      EXPECT_EQ(got.bits, want.bits) << to_string(backend) << " width " << width;
    }

    for (std::size_t f = 0; f < faults.size(); ++f)
      for (std::size_t s = 0; s < seeds.size(); ++s) {
        Memory mem(kWords, width);
        if (seeds[s] != 0) mem.fill_seeded(seeds[s]);
        const std::vector<bool> ledger = make_parity_ledger(mem);
        mem.inject(faults[f]);
        EXPECT_EQ(run_tomt(mem, ledger).detected, want.detected(f, s))
            << "width " << width << " fault " << f << " seed " << seeds[s];
      }
  }
}

// A worker's steady state: the same units again, after two passes have
// grown the memory's store and every scratch buffer, allocate nothing —
// no prediction snapshot, TOMT block, op masks, ledger, footprint or
// seeded contents per unit (a unit borrows the campaign's table).
TEST(PackedSession, SteadyStateUnitsAllocateNothing) {
  constexpr std::size_t kWords = 4096;
  constexpr unsigned kWidth = 8;
  constexpr unsigned kBatches[] = {63, 20, 63};
  const std::vector<Fault> faults = mixed_faults(kWords, kWidth, 146, 7);
  const std::vector<std::uint64_t> table = seeded_limbs(kWords, kWidth, 3);
  // March G's pauses give a transparent session several snapshots.
  for (const char* name : {"March C-", "March G"}) {
    const MarchTest march = march_by_name(name);
    for (const SchemeKind k : kAllSchemes) {
      const SchemePlan plan = make_scheme_plan(k, march, kWidth);
      const PlanOpMasks masks(plan);
      SessionScratch<PackedEngine> scratch;
      PackedMemory mem(kWords, kWidth);
      LaneMask sink{};
      const auto units = [&] {
        for (const std::uint64_t seed : {0ull, 3ull}) {
          const std::uint64_t* limbs = seed != 0 ? table.data() : nullptr;
          std::size_t lo = 0;
          for (const unsigned n : kBatches) {
            fault_footprint(faults.data() + lo, n, scratch.footprint);
            PackedEngine::Brake brake = PackedEngine::make_brake(used_lane_mask(n));
            sink |= run_campaign_unit_in<PackedEngine>(mem, plan, masks, scratch,
                                                       faults.data() + lo, n, limbs, &brake,
                                                       AddressList::of(scratch.footprint));
            lo += n;
          }
        }
      };
      units();
      units();
      g_allocations.store(0);
      g_counting.store(true);
      units();
      g_counting.store(false);
      EXPECT_EQ(g_allocations.load(), 0u) << name << " " << to_string(k);
      EXPECT_EQ(sink & 1u, 0u) << name << " " << to_string(k) << ": golden lane";
    }
  }
}

}  // namespace
}  // namespace twm
