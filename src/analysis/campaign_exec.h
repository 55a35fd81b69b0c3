// Engine-generic campaign execution: the scheduler both backends run.
//
// CampaignRunner::run (analysis/campaign.cpp) picks the backend and
// forwards a CampaignJob to run_campaign_engine<Engine> — ScalarEngine or
// the 64-lane PackedEngine — which shards the fault list into units of
// Engine::kFaultsPerUnit across the thread pool.
#ifndef TWM_ANALYSIS_CAMPAIGN_EXEC_H
#define TWM_ANALYSIS_CAMPAIGN_EXEC_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/campaign.h"
#include "core/scheme_session.h"
#include "memsim/memory.h"

namespace twm {

// One campaign's inputs and result slots.
struct CampaignJob {
  const SchemePlan* plan = nullptr;
  std::size_t words = 0;
  unsigned threads = 1;
  const Fault* faults = nullptr;
  std::size_t num_faults = 0;
  const std::uint64_t* seeds = nullptr;
  std::size_t num_seeds = 0;
  bool need_any = false;
  char* all = nullptr;            // [num_faults] detected under every seed
  char* any = nullptr;            // [num_faults] detected under some seed
  VerdictMatrix* matrix = nullptr;  // non-null disables the early exit
  // Optional streaming observer: notified per run of reported faults (and,
  // opt-in, per evaluated seed) and polled for cooperative cancellation
  // before a worker claims its next unit and before each reported run.
  UnitObserver* observer = nullptr;
  CampaignStats* stats = nullptr;   // optional forward-progress counters
};

// The packed verdict carries the golden lane in lane 0; the scalar verdict
// (bool) has no golden lane.
inline void check_golden_lane(bool /*verdict*/) {}
inline void check_golden_lane(std::uint64_t verdicts) { require_golden_lane_clear(verdicts); }

// The golden certificate of (plan, seed): the precondition that lets a
// packed unit walk only its fault footprint instead of every word.
//
// Words of a fault-free memory evolve independently — a march applies the
// same op sequence to each, and its writes derive from that word's own
// reads — so a word outside the footprint behaves in every lane exactly as
// a one-word memory holding the same initial value.  Every checker is
// lane-local (exact, direct, TOMT) or linear (XOR compaction, the MISR
// over the difference stream), so such a word changes no verdict exactly
// when its one-word session is clean: no stream difference, no mismatch,
// no ledger or read-back failure, and an XOR signature equal to
// expected_signature(1).  The certificate runs that session once for each
// distinct initial value of the seed's baseline, one value per lane
// (TOMT's ledger holds one parity per word, so each parity gets its own
// passes), and also requires the test and prediction passes to be
// walk-aligned, which a one-word memory cannot reveal.  Only the packed
// engine walks lists (Engine::kSparseWalk); the reference always walks
// every word.
//
// It is the golden-lane check for the unlisted words: lane 0 of the listed
// walk covers the listed words, the certificate the rest.  Every plan
// make_scheme_plan builds holds it; a failing one (a broken or hand-built
// plan) aborts the campaign before the round with the golden-lane error.
inline bool transparent_compare(SchemeKind k) {
  return k == SchemeKind::ProposedExact || k == SchemeKind::ProposedMisr ||
         k == SchemeKind::TsmarchOnly || k == SchemeKind::Scheme1Exact;
}

inline bool golden_certificate(const SchemePlan& plan, const PlanOpMasks& masks,
                               std::size_t words, std::uint64_t seed) {
  if (transparent_compare(plan.scheme) && !transparent_passes_aligned(plan.trans, plan.prediction))
    return false;
  const std::vector<BitVec> values = seeded_word_values(words, plan.width, seed);
  const AddressList one = AddressList::all(1);
  SessionScratch<PackedEngine> scratch;
  for (const bool parity : {false, true}) {
    std::vector<const BitVec*> group;
    for (const BitVec& v : values)
      if (v.parity() == parity) group.push_back(&v);
    for (std::size_t lo = 0; lo < group.size(); lo += kPackedLanes) {
      const std::size_t n = std::min<std::size_t>(kPackedLanes, group.size() - lo);
      std::vector<LaneMask> init(plan.width);
      for (unsigned lane = 0; lane < kPackedLanes; ++lane) {
        const BitVec& v = *group[lo + (lane < n ? lane : 0)];
        for (unsigned j = 0; j < plan.width; ++j)
          if (v.get(j)) init[j] |= LaneMask{1} << lane;
      }
      PackedMemory mem(1, plan.width);
      mem.write(0, init.data());
      LaneMask d{};
      if (transparent_compare(plan.scheme)) {
        PackedMarchRunner runner(mem, one, scratch.runner);
        const auto v = PackedEngine::run_transparent(runner, plan.trans, plan.prediction,
                                                     plan.misr, nullptr, /*want_misr=*/true,
                                                     &masks.trans, &masks.prediction);
        d = v.exact | v.misr;
      } else {
        scratch.tomt_ledger.assign(1, parity);
        d = run_scheme_session<PackedEngine>(mem, plan, scratch.tomt_ledger, nullptr, one, masks,
                                             scratch);
      }
      if (d != 0) return false;
    }
  }
  return true;
}

// The campaign scheduler (survivor repacking): seed-major rounds over the
// shrinking set of still-undecided faults.
//
//   round s:  pack the live faults densely into units of kFaultsPerUnit,
//             shard the units across the pool, evaluate every unit under
//             seeds[s] with an armed session brake (mid-session settle-exit
//             + per-lane fault dropping for monotone schemes), and — while
//             the round runs — report every fault whose verdicts can no
//             longer change and rebuild the live list from the rest.
//
// Reporting is an in-order drain, the one report path.  A worker that
// finishes unit u marks it done and, if it wins a try_lock on the report
// mutex, reports every finished unit at the frontier (the first unit not
// yet reported), in `live` order; a unit that finishes ahead of the
// frontier waits for it.  After the pool joins, the caller drains what is
// left and flushes the observer once: the round's records form one batch.
// So records stream during the round, on whichever thread holds the
// mutex (an engine worker or the caller), in the same order and grouping
// for every thread count.  The drain depends only on the units' done
// flags, not on how the pool starts its threads.
//
// A packed unit walks its fault footprint (the sorted victim, aggressor and
// alias words of the batch); the scalar reference walks every word.  Before
// each packed round the golden certificate must hold for the seed, or the
// campaign throws the golden-lane error.  The list stays fixed for the
// whole unit, including after lanes retire.
//
// A fault is decided once its "all" verdict dropped to 0 and (when the
// caller asked for it) its "any" verdict rose to 1; remaining seeds cannot
// change either, so the fault stops occupying a lane.  The verdicts are
// exactly those of a plain fault x seed loop: every evaluated (fault, seed)
// pair yields the same bit (lanes are independent, so batch composition is
// irrelevant), and skipped pairs are skipped only when provably
// irrelevant.  A matrix request or a per-seed-verdict observer needs the
// COMPLETE (fault, seed) stream, which disables dropping (every fault
// stays live to the last round) but keeps repacked batches + settle-exit.
//
// job.all/job.any must be preset by the caller (all = 1, any = 0), exactly
// as CampaignRunner::run does.
template <class Engine>
void run_campaign_engine(const CampaignJob& job) {
  using Verdict = typename Engine::Verdict;
  constexpr unsigned kPerUnit = Engine::kFaultsPerUnit;
  const std::size_t n = job.num_faults;
  if (n == 0) return;
  const unsigned threads = std::max(1u, job.threads);
  const std::size_t plan_elems = plan_session_elements(*job.plan);
  const bool seed_events = job.observer && job.observer->want_seed_verdicts();
  const bool no_drop = job.matrix != nullptr || seed_events;
  // Shared read-only by every worker, like the plan itself.
  const PlanOpMasks masks(*job.plan);

  // Worker state lives for the WHOLE campaign, not one round: the memory
  // (a packed one's slot store and fault index buckets, either's baseline
  // cache), the batch and the session scratch (the unit's footprint, TOMT
  // ledger, prediction snapshots, MISR and registers) keep their allocations
  // across every unit and seed round (run_pool spawns fresh threads per
  // round, so each round's workers re-claim the states by slot — any state
  // fits any worker, memories and scratches are fully reset per unit).
  // This is what makes a packed unit allocation-free in steady state; on
  // the packed backend stats->page_allocs stays flat as rounds are added.
  struct WorkerState {
    typename Engine::Memory mem;
    std::vector<Fault> batch;
    SessionScratch<Engine> scratch;
    WorkerState(std::size_t words, unsigned width) : mem(words, width) {
      batch.reserve(kPerUnit);
    }
  };
  std::vector<std::unique_ptr<WorkerState>> states(threads);
  std::atomic<unsigned> state_slot{0};

  std::vector<std::uint32_t> live(n);
  for (std::size_t i = 0; i < n; ++i) live[i] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> survivors;  // reused across rounds

  // The report drain's state (see the scheduler comment): done[u] marks a
  // finished unit of the round (release store after its verdicts are
  // written); `frontier` is the first unit not yet reported.  frontier,
  // survivors and every observer report are guarded by report_mu.  Round 0
  // has the most units, so `done` is sized once.
  std::vector<std::atomic<bool>> done((n + kPerUnit - 1) / kPerUnit);
  std::mutex report_mu;

  for (std::size_t s = 0; s < job.num_seeds && !live.empty(); ++s) {
    const std::size_t units = (live.size() + kPerUnit - 1) / kPerUnit;
    // A failed certificate is a golden-lane detection at an unlisted word.
    if (Engine::kSparseWalk && !golden_certificate(*job.plan, masks, job.words, job.seeds[s]))
      require_golden_lane_clear(LaneMask{1});
    const bool final_round = s + 1 == job.num_seeds;
    for (std::size_t u = 0; u < units; ++u) done[u].store(false, std::memory_order_relaxed);
    std::size_t frontier = 0;
    survivors.clear();
    if (!final_round) survivors.reserve(live.size());
    std::atomic<std::size_t> next{0};
    // Set by a cancelled() poll or a throwing report; once set, no unit is
    // claimed and nothing more is reported.
    std::atomic<bool> stop{false};

    // Reports the finished units at the frontier, in `live` order (the
    // thread-count-independent fault order), and carries their undecided
    // faults into `survivors`.  A fault is reported once decided, or in
    // the final round.  A unit's reportable faults that are contiguous in
    // fault order go out as one on_unit_settled run, each run after one
    // cancelled() poll.  Caller holds report_mu, and the observer is called
    // under it: a delivery must be atomic with the frontier's advance, or
    // two drains could interleave their records.
    const auto drain = [&] {
      const auto reportable = [&](std::uint32_t g) {
        return final_round ||
               (!no_drop && job.all[g] == 0 && (!job.need_any || job.any[g] != 0));
      };
      try {
        for (; frontier < units && !stop.load(std::memory_order_relaxed) &&
               done[frontier].load(std::memory_order_acquire);
             ++frontier) {
          const std::size_t hi = std::min(live.size(), (frontier + 1) * kPerUnit);
          for (std::size_t k = frontier * kPerUnit; k < hi;) {
            const std::uint32_t g = live[k++];
            if (!reportable(g)) {
              survivors.push_back(g);
              continue;
            }
            unsigned count = 1;
            while (k < hi && live[k] == g + count && reportable(live[k])) ++k, ++count;
            if (!job.observer) continue;
            if (job.observer->cancelled()) {
              stop.store(true, std::memory_order_relaxed);
              return;
            }
            job.observer->on_unit_settled(g, count, job.all + g, job.any + g);
          }
        }
      } catch (...) {
        // Still under report_mu: no later drain re-reports this unit.
        stop.store(true, std::memory_order_relaxed);
        throw;
      }
    };

    state_slot.store(0, std::memory_order_relaxed);
    run_pool(threads, [&] {
      std::unique_ptr<WorkerState>& st =
          states[state_slot.fetch_add(1, std::memory_order_relaxed)];
      if (!st) st = std::make_unique<WorkerState>(job.words, job.plan->width);
      typename Engine::Memory& mem = st->mem;
      std::vector<Fault>& batch = st->batch;
      while (!stop.load(std::memory_order_relaxed)) {
        if (job.observer && job.observer->cancelled()) {
          stop.store(true, std::memory_order_relaxed);
          break;
        }
        const std::size_t u = next.fetch_add(1);
        if (u >= units) break;
        const std::size_t lo = u * kPerUnit;
        const unsigned count =
            static_cast<unsigned>(std::min<std::size_t>(kPerUnit, live.size() - lo));
        batch.clear();
        for (unsigned i = 0; i < count; ++i) batch.push_back(job.faults[live[lo + i]]);
        AddressList list = AddressList::all(job.words);
        if (Engine::kSparseWalk) {
          fault_footprint(batch.data(), count, st->scratch.footprint);
          list = AddressList::of(st->scratch.footprint);
        }
        // Armed for every scheme: run_scheme_session downgrades per scheme
        // (the MISR case turns the exit off and only keeps the skip of the
        // unconsumed stream compare; the symmetric session never sees the
        // brake).
        typename Engine::Brake brake = Engine::make_brake(mem, Engine::used_mask(count));
        const Verdict d = run_campaign_unit_in<Engine>(mem, *job.plan, masks, st->scratch,
                                                       batch.data(), count, job.seeds[s], &brake,
                                                       list);
        check_golden_lane(d);
        if (job.stats) {
          job.stats->units.fetch_add(1, std::memory_order_relaxed);
          job.stats->lane_slots.fetch_add(count, std::memory_order_relaxed);
          job.stats->addresses_walked.fetch_add(list.size, std::memory_order_relaxed);
          job.stats->elements_total.fetch_add(plan_elems, std::memory_order_relaxed);
          job.stats->elements_executed.fetch_add(
              brake.elements_entered ? brake.elements_entered : plan_elems,
              std::memory_order_relaxed);
        }
        // Distinct faults -> disjoint result slots: no two units of a
        // round share a live entry, so these writes are race-free.
        for (unsigned i = 0; i < count; ++i) {
          const std::uint32_t g = live[lo + i];
          const bool bit = Engine::bit(d, i);
          if (!bit) job.all[g] = 0;
          if (bit) job.any[g] = 1;
          if (job.matrix) job.matrix->bits[g * job.num_seeds + s] = static_cast<char>(bit);
          if (seed_events) job.observer->on_seed_verdict(g, s, bit);
        }
        // Publish the unit, then drain if no other worker is draining: a
        // busy drain picks this unit up when it reaches it, and whatever
        // is left when the round ends the caller drains below.
        done[u].store(true, std::memory_order_release);
        const std::unique_lock<std::mutex> lock(report_mu, std::try_to_lock);
        if (lock.owns_lock()) drain();
      }
    });
    {
      const std::lock_guard<std::mutex> lock(report_mu);
      drain();
    }
    // The round's records form one batch.
    if (job.observer) job.observer->flush();
    if (stop.load(std::memory_order_relaxed)) break;
    live.swap(survivors);
  }

  // Slot high-water marks + store growth totals over every worker memory,
  // once the rounds are done (single-threaded here; fetch-max because
  // several region sub-campaigns may accumulate into the same stats).  Only
  // a PackedMemory has a slot store; the scalar Memory is one dense array
  // and reports 0.
  if constexpr (Engine::kSparseWalk) {
    if (job.stats) {
      const auto fetch_max = [](std::atomic<std::uint64_t>& slot, std::uint64_t mine) {
        std::uint64_t cur = slot.load(std::memory_order_relaxed);
        while (mine > cur && !slot.compare_exchange_weak(cur, mine, std::memory_order_relaxed)) {
        }
      };
      for (const std::unique_ptr<WorkerState>& st : states) {
        if (!st) continue;
        fetch_max(job.stats->pages_peak, st->mem.slots_peak());
        fetch_max(job.stats->packed_pages_peak, st->mem.slots_peak());
        job.stats->page_allocs.fetch_add(st->mem.store_growths(), std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace twm

#endif  // TWM_ANALYSIS_CAMPAIGN_EXEC_H
