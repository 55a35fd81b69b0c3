// Engine-generic campaign execution: the one scheduler both backends run.
//
// CampaignRunner::run_cells (analysis/campaign.cpp) picks the backend and
// hands a whole campaign — every cell of a CellFeed — to
// run_campaign_engine<Engine> (ScalarEngine or the 64-lane PackedEngine),
// which shards every cell's fault list into units of
// Engine::kFaultsPerUnit across one worker pool.
#ifndef TWM_ANALYSIS_CAMPAIGN_EXEC_H
#define TWM_ANALYSIS_CAMPAIGN_EXEC_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "analysis/campaign.h"
#include "core/scheme_session.h"
#include "memsim/limb_bits.h"
#include "memsim/memory.h"
#include "util/failpoint.h"

namespace twm {

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
// distinct initial value in the seed's table `limbs` (seeded_limbs, null
// for seed 0), one value per lane
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
// The scheduler computes it once per (plan, seed) per campaign.
inline bool transparent_compare(SchemeKind k) {
  return k == SchemeKind::ProposedExact || k == SchemeKind::ProposedMisr ||
         k == SchemeKind::TsmarchOnly || k == SchemeKind::Scheme1Exact;
}

inline bool golden_certificate(const SchemePlan& plan, const PlanOpMasks& masks,
                               std::size_t words, const std::uint64_t* limbs) {
  if (transparent_compare(plan.scheme) && !transparent_passes_aligned(plan.trans, plan.prediction))
    return false;
  const std::vector<BitVec> values = seeded_word_values(words, plan.width, limbs);
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

// The campaign scheduler (survivor repacking), one per campaign.
//
// A campaign is a sequence of cells (CellFeed), a cell a sequence of jobs
// (its address regions, or the whole fault list), a job a sequence of
// seed-major rounds over its shrinking set of still-undecided faults:
//
//   round s:  pack the job's live faults densely into units of
//             kFaultsPerUnit, evaluate every unit under seeds[s] with an
//             armed session brake (mid-session settle-exit + per-lane
//             fault dropping for monotone schemes), and — while the round
//             runs — report every fault whose verdicts can no longer
//             change, mark it dropped, and start the next round's units
//             over the rest.
//
// One WorkerPool serves the whole campaign, each of its threads with one
// worker memory and one session scratch, and every worker reads one table
// of each seed's contents (table()).  A worker claims units in
// (cell, region, round, unit) order: the first unclaimed unit of an open
// round, among the drain's cell and the kCellsAhead cells after it (a
// cell with nothing to compute ends that window).  A job's round 0 opens
// when a worker first claims from it (that worker sets up its verdict
// arrays); round s+1 opens only when the drain has passed round s,
// because the drain decides the survivors.  So while a cell's records
// drain, idle workers already compute the next cells instead of waiting
// at a barrier.
//
// Reporting is one in-order drain, the one report path.  A worker that
// finishes unit u marks it done (release) and, if it wins a try_lock on
// the report mutex, walks the campaign in (cell, region, round, unit)
// order from where the last drain stopped: it reports every finished
// unit, flushes the cell's observer after each round's last record, opens
// the next round, fires RegionProgress::on_region_done after a region's
// last record, and tells the feed when it reaches a cell (replayed
// records go out there) and when it passed one — those boundaries on the
// calling thread only (see drain()).  It stops at the first unit not yet
// done.  A worker with nothing to claim takes the report mutex with a
// blocking lock before it sleeps, if it finished a unit since its last
// drain: so a unit finished while another thread held the drain is never
// stranded.  Records stream on whichever pool thread holds the mutex, in
// the same order and grouping for every thread count.
//
// A packed unit walks its fault footprint (the sorted victim, aggressor and
// alias words of the batch); the scalar reference walks every word.  Before
// a packed round opens, the golden certificate must hold for its (plan,
// seed), or the campaign throws the golden-lane error.
//
// A fault is decided once its "all" verdict dropped to 0 and (when the
// cell asked for it) its "any" verdict rose to 1; remaining seeds cannot
// change either, so the fault stops occupying a lane.  The verdicts are
// exactly those of a plain fault x seed loop: every evaluated (fault, seed)
// pair yields the same bit (lanes are independent, so batch composition is
// irrelevant), and skipped pairs are skipped only when provably
// irrelevant.  A matrix request needs the COMPLETE (fault, seed) stream,
// which disables dropping (every fault stays live to the last round) but
// keeps repacked batches + settle-exit.
//
// Stopping.  A cancelled() poll (before each claimed unit, before each
// reported run, at each cell and region boundary) or an exception
// anywhere (first one wins; the pool rethrows it) stops every worker and
// the drain: no unit is claimed and nothing more is reported, so the
// records delivered are a prefix of the full stream.  The campaign.worker
// failpoint fires on a worker's first unit of a job's round: once per
// worker per round it takes part in, however its claims interleave with
// other jobs'.
template <class Engine>
class CampaignScheduler {
 public:
  CampaignScheduler(CellFeed& feed, const std::vector<std::uint64_t>& seeds, std::size_t words,
                    unsigned width, unsigned regions, CampaignStats* stats)
      : feed_(feed),
        seeds_(seeds),
        words_(words),
        width_(width),
        regions_(std::max(1u, regions)),
        stats_(stats),
        tables_(seeds.size()) {}

  void run(WorkerPool& pool) {
    refill();
    // The calling thread first drains what needs no unit (replayed and
    // empty cells up to the first live job), so a campaign the cache
    // serves whole starts no thread.
    {
      const std::lock_guard<std::mutex> lock(report_mu_);
      drain(/*caller=*/true);
    }
    if (finished_ || stop_) return;
    workers_ = pool.size();
    states_.resize(workers_);
    pool.run([this](unsigned w) { work(w); });
    // A cancel ends the cut round's batch like any other round.
    if (stop_ && !window_.empty() && window_.front()->reached &&
        window_.front()->spec.observer)
      window_.front()->spec.observer->flush();
    if (stats_) add_memory_stats();
  }

 private:
  using Verdict = typename Engine::Verdict;
  static constexpr unsigned kPerUnit = Engine::kFaultsPerUnit;
  // Cells past the drain's whose units idle workers may compute.
  static constexpr std::size_t kCellsAhead = 2;

  struct SeedTable {
    std::once_flag once;
    std::vector<std::uint64_t> limbs;
  };

  // A plan's companions for the campaign: its op masks and one golden
  // certificate per seed, computed by whichever thread first opens a round
  // under that seed.
  struct PlanState {
    struct Cert {
      std::once_flag once;
      bool ok = false;
    };
    PlanState(const SchemePlan& p, std::size_t seeds)
        : plan(&p), masks(p), elements(plan_session_elements(p)), certs(seeds) {}
    const SchemePlan* plan;
    PlanOpMasks masks;
    std::size_t elements;
    std::vector<Cert> certs;
  };

  // A job's per-fault arrays, from its opener to the end of its drain.
  // all/any/matrix slots are written by the unit's worker.  A round's live
  // faults are the ones not yet `dropped`, in local order (survivors keep
  // their order, so a live list is never stored): unit u holds the live
  // faults in [starts[u], starts[u + 1]), kPerUnit of them but in the last
  // unit.  The drain marks the faults it reports before the final round as
  // dropped (a byte each: the units still running read other bytes) and
  // starts the next round's units in next_starts.  `dropped` stays empty
  // with one seed.  A drained job hands its arrays back and the next job
  // to open takes them, so the campaign allocates one set per job open at
  // once, not one per job, whichever worker opens the job.
  struct Arrays {
    std::vector<char> all, any, dropped;
    std::vector<std::uint32_t> starts, next_starts;
  };

  // One region of a cell (or the whole cell).  Faults have a local index
  // k in [0, size); owned maps it to the cell's fault list.
  struct Job : Arrays {
    enum class Phase { Idle, Opening, Open, Done };
    unsigned region = 0;
    const std::vector<std::uint32_t>* owned = nullptr;  // null: the identity
    std::size_t size = 0;
    // Claim state (sched_mu_): the open round, its unit count, next claim,
    // and the workers that claimed a unit of it.
    Phase phase = Phase::Idle;
    std::size_t round = 0, units = 0, next = 0;
    std::vector<char> joined;  // [worker]
    // Drain state (report_mu_): the first unit not yet reported.
    std::size_t frontier = 0;
    bool arrived = false, open_seen = false;
    std::size_t kept = 0;                       // drain: survivors this round
    std::unique_ptr<std::atomic<bool>[]> done;  // [unit] of the open round

    bool live(std::uint32_t k) const { return this->dropped.empty() || !this->dropped[k]; }
    std::uint32_t global(std::uint32_t k) const { return owned ? (*owned)[k] : k; }
  };

  struct Cell {
    std::size_t index = 0;
    CampaignCell spec;
    PlanState* plan = nullptr;
    bool no_drop = false;
    std::vector<std::vector<std::uint32_t>> owned;  // region -> fault indices
    std::vector<Job> jobs;
    std::size_t drain_job = 0;  // written under both mutexes
    bool reached = false;       // report_mu_
  };

  // A claimed piece of work: open `job`, or run unit `unit` of its round
  // (`joins`: the worker's first unit of that round).
  struct Task {
    Cell* cell = nullptr;
    Job* job = nullptr;
    std::size_t round = 0, unit = 0;
    bool open = false, joins = false;
  };

  // Worker state lives for the WHOLE campaign: the memory (a packed one's
  // slot store, fault masks and buckets), the batch and the session scratch
  // keep their allocations across every unit of every cell, region and
  // round — memories and scratches are fully reset per unit, from the
  // campaign's one table of the round's seed (tables_).  So a steady-state
  // packed unit allocates nothing, stats->page_allocs stays flat as rounds
  // are added, and no worker keeps contents of its own.
  struct WorkerState {
    typename Engine::Memory mem;
    std::vector<Fault> batch;
    std::vector<std::uint32_t> keys;  // the batch's local fault indices
    SessionScratch<Engine> scratch;
    WorkerState(std::size_t words, unsigned width) : mem(words, width) {
      batch.reserve(kPerUnit);
      keys.reserve(kPerUnit);
    }
  };

  // ---- preparing cells (calling thread, then the drain) -----------------

  PlanState* plan_state(const SchemePlan& plan) {
    for (PlanState& p : plans_)
      if (p.plan == &plan) return &p;
    return &plans_.emplace_back(plan, seeds_.size());
  }

  std::unique_ptr<Cell> prepare(std::size_t index) {
    auto cell = std::make_unique<Cell>();
    cell->index = index;
    cell->spec = feed_.cell(index);
    const CampaignCell& spec = cell->spec;
    if (!spec.faults) return cell;
    const std::vector<Fault>& faults = *spec.faults;
    const std::size_t n = faults.size();
    if (spec.all) spec.all->assign(n, 1);
    if (spec.any) spec.any->assign(n, 0);
    if (spec.matrix) {
      spec.matrix->num_faults = n;
      spec.matrix->num_seeds = seeds_.size();
      spec.matrix->bits.assign(n * seeds_.size(), 0);
    }
    if (n == 0) return cell;
    cell->plan = plan_state(*spec.plan);
    cell->no_drop = spec.matrix != nullptr;
    if (regions_ == 1 && !spec.progress) {
      cell->jobs.resize(1);
      cell->jobs[0].size = n;
      return cell;
    }
    // Region jobs: the fault list partitioned by the victim's address
    // slice, fault order kept within a region.
    cell->owned.resize(regions_);
    for (std::size_t i = 0; i < n; ++i)
      cell->owned[fault_region(faults[i], words_, regions_)].push_back(
          static_cast<std::uint32_t>(i));
    const RegionProgress* progress = spec.progress;
    for (unsigned r = 0; r < regions_; ++r) {
      if (progress && r < progress->done.size() && progress->done[r]) continue;
      Job& job = cell->jobs.emplace_back();
      job.region = r;
      job.owned = &cell->owned[r];
      job.size = cell->owned[r].size();
    }
    return cell;
  }

  // Fills the window up to the drain's cell and kCellsAhead more.  A cell
  // with nothing to compute ends it: its records wait for the drain anyway.
  void refill() {
    while (window_.size() < 1 + kCellsAhead && next_cell_ < feed_.size() &&
           (window_.empty() || !window_.back()->jobs.empty())) {
      std::unique_ptr<Cell> cell = prepare(next_cell_++);
      const std::lock_guard<std::mutex> lock(sched_mu_);
      window_.push_back(std::move(cell));
    }
  }

  // Seed s's contents (seeded_limbs; null for seed 0): generated once per
  // campaign, by whichever thread first asks, and read by every worker.
  const std::uint64_t* table(std::size_t s) {
    SeedTable& t = tables_[s];
    std::call_once(t.once, [&] { t.limbs = seeded_limbs(words_, width_, seeds_[s]); });
    return seeds_[s] != 0 ? t.limbs.data() : nullptr;
  }

  bool certified(PlanState& p, std::size_t s) {
    if (!Engine::kSparseWalk) return true;
    typename PlanState::Cert& cert = p.certs[s];
    std::call_once(cert.once,
                   [&] { cert.ok = golden_certificate(*p.plan, p.masks, words_, table(s)); });
    return cert.ok;
  }

  // A failed certificate is a golden-lane detection at an unlisted word.
  void require_certified(PlanState& p, std::size_t s) {
    if (!certified(p, s)) require_golden_lane_clear(LaneMask{1});
  }

  // ---- claiming (sched_mu_ held) ----------------------------------------

  bool claim(Task& t, unsigned w) {
    for (std::size_t k = 0; k < window_.size(); ++k) {
      Cell& cell = *window_[k];
      for (std::size_t j = k == 0 ? cell.drain_job : 0; j < cell.jobs.size(); ++j) {
        Job& job = cell.jobs[j];
        if (job.phase == Job::Phase::Idle && job.size != 0) {
          job.phase = Job::Phase::Opening;
          if (!spare_.empty()) {
            static_cast<Arrays&>(job) = std::move(spare_.back());
            spare_.pop_back();
          }
          t = {&cell, &job, 0, 0, true, false};
          return true;
        }
        if (job.phase == Job::Phase::Open && job.next < job.units) {
          t = {&cell, &job, job.round, job.next++, false, !job.joined[w]};
          job.joined[w] = 1;
          return true;
        }
      }
    }
    return false;
  }

  void wake_all() { work_cv_.notify_all(); }

  // A pool thread's drain reached a boundary: wake the calling thread to
  // pass it.
  void leave_boundary() {
    {
      const std::lock_guard<std::mutex> lock(sched_mu_);
      boundary_ = true;
    }
    wake_all();
  }

  void request_stop() {
    {
      const std::lock_guard<std::mutex> lock(sched_mu_);
      stop_ = true;
    }
    wake_all();
  }

  // ---- opening a job (its first claimer, no mutex held) ------------------

  void open(Cell& cell, Job& job) {
    require_certified(*cell.plan, 0);
    const std::size_t n = job.size;
    job.all.assign(n, 1);
    job.any.assign(n, 0);
    if (seeds_.size() > 1) job.dropped.assign(n, 0);
    const std::size_t units = (n + kPerUnit - 1) / kPerUnit;
    job.starts.resize(units + 1);
    for (std::size_t u = 0; u < units; ++u)
      job.starts[u] = static_cast<std::uint32_t>(u * kPerUnit);
    job.starts[units] = static_cast<std::uint32_t>(n);
    job.done = std::make_unique<std::atomic<bool>[]>(units);
    if (stats_) stats_->faults_simulated.fetch_add(n, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(sched_mu_);
      job.units = units;
      job.joined.assign(workers_, 0);
      job.phase = Job::Phase::Open;
    }
    wake_all();
  }

  // ---- running a unit (its claimer, no mutex held) -----------------------

  void compute(WorkerState& st, const Task& t) {
    Cell& cell = *t.cell;
    Job& job = *t.job;
    const CampaignCell& spec = cell.spec;
    PlanState& plan = *cell.plan;
    st.batch.clear();
    st.keys.clear();
    for (std::uint32_t k = job.starts[t.unit]; k < job.starts[t.unit + 1]; ++k)
      if (job.live(k)) {
        st.keys.push_back(k);
        st.batch.push_back((*spec.faults)[job.global(k)]);
      }
    const unsigned count = static_cast<unsigned>(st.keys.size());
    AddressList list = AddressList::all(words_);
    if (Engine::kSparseWalk) {
      fault_footprint(st.batch.data(), count, st.scratch.footprint);
      list = AddressList::of(st.scratch.footprint);
    }
    // Armed for every scheme: run_scheme_session downgrades per scheme
    // (the MISR case turns the exit off and only keeps the skip of the
    // unconsumed stream compare; the symmetric session never sees the
    // brake).
    typename Engine::Brake brake = Engine::make_brake(st.mem, Engine::used_mask(count));
    const Verdict d = run_campaign_unit_in<Engine>(st.mem, *plan.plan, plan.masks, st.scratch,
                                                   st.batch.data(), count, table(t.round),
                                                   &brake, list);
    check_golden_lane(d);
    if (stats_) {
      stats_->units.fetch_add(1, std::memory_order_relaxed);
      stats_->lane_slots.fetch_add(count, std::memory_order_relaxed);
      stats_->addresses_walked.fetch_add(list.size, std::memory_order_relaxed);
      stats_->elements_total.fetch_add(plan.elements, std::memory_order_relaxed);
      stats_->elements_executed.fetch_add(
          brake.elements_entered ? brake.elements_entered : plan.elements,
          std::memory_order_relaxed);
    }
    // Distinct faults -> disjoint result slots: no two units of a round
    // share a live entry, so these writes are race-free.
    for (unsigned i = 0; i < count; ++i) {
      const std::uint32_t k = st.keys[i];
      const bool bit = Engine::bit(d, i);
      if (!bit) job.all[k] = 0;
      if (bit) job.any[k] = 1;
      if (spec.matrix)
        spec.matrix->bits[job.global(k) * seeds_.size() + t.round] = static_cast<char>(bit);
    }
    // The worker's last touch of the job: the drain may free it after this.
    job.done[t.unit].store(true, std::memory_order_release);
  }

  // ---- the report drain (report_mu_ held) --------------------------------

  // Reports unit u of the job's open round, in live order, and keeps its
  // undecided faults for the next round.  A fault is reported once
  // decided, or in the final round.  A unit's reportable faults that are
  // contiguous in the cell's fault order go out as one on_unit_settled
  // run, each run after one cancelled() poll.  False when a poll stopped.
  bool report(Cell& cell, Job& job, std::size_t u, bool final_round) {
    const CampaignCell& spec = cell.spec;
    const auto reportable = [&](std::uint32_t k) {
      return final_round ||
             (!cell.no_drop && job.all[k] == 0 && (!spec.need_any || job.any[k] != 0));
    };
    const std::uint32_t hi = job.starts[u + 1];
    for (std::uint32_t k = job.starts[u]; k < hi;) {
      if (!job.live(k)) {
        ++k;
        continue;
      }
      if (!reportable(k)) {
        if (job.kept++ % kPerUnit == 0) job.next_starts.push_back(k);
        ++k;
        continue;
      }
      const std::uint32_t first = k++;
      const std::uint32_t g = job.global(first);
      unsigned count = 1;
      while (k < hi && job.live(k) && job.global(k) == g + count && reportable(k)) ++k, ++count;
      if (!final_round) std::fill_n(job.dropped.begin() + first, count, char{1});
      if (!spec.observer) continue;
      if (spec.observer->cancelled()) {
        request_stop();
        return false;
      }
      spec.observer->on_unit_settled(g, count, job.all.data() + first, job.any.data() + first);
    }
    return true;
  }

  // Opens round job.round + 1 over the survivors.
  void next_round(Cell& cell, Job& job) {
    const std::size_t s = job.round + 1;
    require_certified(*cell.plan, s);
    const std::size_t units = job.next_starts.size();
    job.next_starts.push_back(static_cast<std::uint32_t>(job.size));
    job.starts.swap(job.next_starts);
    job.next_starts.clear();
    job.kept = 0;
    for (std::size_t u = 0; u < units; ++u) job.done[u].store(false, std::memory_order_relaxed);
    job.frontier = 0;
    {
      const std::lock_guard<std::mutex> lock(sched_mu_);
      job.round = s;
      job.units = units;
      job.next = 0;
      std::fill(job.joined.begin(), job.joined.end(), char{0});
    }
    wake_all();
  }

  void finish_job(Cell& cell, Job& job) {
    const CampaignCell& spec = cell.spec;
    for (std::size_t k = 0; k < job.all.size(); ++k) {
      if (spec.all) (*spec.all)[job.global(k)] = job.all[k];
      if (spec.any) (*spec.any)[job.global(k)] = job.any[k];
    }
    if (job.owned && spec.progress && spec.progress->on_region_done)
      spec.progress->on_region_done(job.region, *job.owned);
    job.dropped.clear();
    job.next_starts.clear();
    job.done.reset();
    {
      const std::lock_guard<std::mutex> lock(sched_mu_);
      job.phase = Job::Phase::Done;
      ++cell.drain_job;
      spare_.push_back(std::move(static_cast<Arrays&>(job)));
    }
    wake_all();
  }

  void finish_cell() {
    feed_.drained(window_.front()->index);
    std::unique_ptr<Cell> passed;
    {
      const std::lock_guard<std::mutex> lock(sched_mu_);
      passed = std::move(window_.front());
      window_.pop_front();
    }
    passed.reset();
    refill();
    wake_all();
  }

  // Walks the campaign from where the last drain stopped to the first unit
  // not yet done (or the end).  A throwing observer or feed stops the
  // campaign while the mutex is still held, so no later drain re-reports.
  //
  // Cell and region boundaries — the feed's calls and on_region_done — are
  // passed only on the calling thread (`caller`, worker 0): a pool thread
  // that reaches one stops there and leaves it to the caller, which takes
  // the drain once its current unit is done.  Those callbacks do the
  // caller's own work (cache lookups, replays and stores); on the calling
  // thread, what they allocate stays in its malloc arena instead of
  // spreading over the pool threads' arenas, which a long-lived daemon
  // keeps.  Passing them on whichever thread holds the drain measured
  // 2.5% more peak RSS on twmbench's service-replay and huge-sparse and
  // 5% more mid-list latency (BENCHMARKS.md).
  void drain(bool caller) {
    try {
      if (caller) boundary_ = false;
      while (!stop_ && !window_.empty()) {
        Cell& cell = *window_.front();
        UnitObserver* observer = cell.spec.observer;
        const bool cell_done = cell.drain_job == cell.jobs.size();
        if ((!cell.reached || cell_done) && !caller) return leave_boundary();
        if (!cell.reached) {
          if (observer && observer->cancelled()) return request_stop();
          feed_.reached(cell.index);
          cell.reached = true;
        }
        if (cell_done) {
          finish_cell();
          continue;
        }
        Job& job = cell.jobs[cell.drain_job];
        if (!job.arrived) {
          if (observer && observer->cancelled()) return request_stop();
          job.arrived = true;
        }
        if (job.size == 0) {
          if (!caller) return leave_boundary();
          finish_job(cell, job);
          continue;
        }
        if (!job.open_seen) {
          const std::lock_guard<std::mutex> lock(sched_mu_);
          if (job.phase != Job::Phase::Open) return;
          job.open_seen = true;
        }
        const bool final_round = job.round + 1 == seeds_.size();
        for (; job.frontier < job.units && job.done[job.frontier].load(std::memory_order_acquire);
             ++job.frontier)
          if (!report(cell, job, job.frontier, final_round)) return;
        if (job.frontier < job.units) return;
        const bool job_done = final_round || job.kept == 0;
        if (job_done && !caller) return leave_boundary();
        // The round's records form one batch.
        if (observer) observer->flush();
        if (job_done)
          finish_job(cell, job);
        else
          next_round(cell, job);
      }
      if (!stop_ && window_.empty()) {
        {
          const std::lock_guard<std::mutex> lock(sched_mu_);
          finished_ = true;
        }
        wake_all();
      }
    } catch (...) {
      request_stop();
      throw;
    }
  }

  // ---- the worker loop ---------------------------------------------------

  void work(unsigned w) {
    const bool caller = w == 0;
    // Set while this worker finished a unit it has not drained since: it
    // then drains (blocking) before it sleeps.  The caller also drains
    // whenever a boundary waits for it.
    bool undrained = false;
    try {
      for (;;) {
        Task t;
        bool claimed = false;
        {
          std::unique_lock<std::mutex> lock(sched_mu_);
          for (;;) {
            if (stop_ || finished_) return;
            if (caller && boundary_) break;
            if ((claimed = claim(t, w)) || undrained) break;
            work_cv_.wait(lock);
          }
        }
        if (!claimed) {
          const std::lock_guard<std::mutex> lock(report_mu_);
          drain(caller);
          undrained = false;
          continue;
        }
        if (t.open) {
          open(*t.cell, *t.job);
          continue;
        }
        UnitObserver* observer = t.cell->spec.observer;
        if (observer && observer->cancelled()) return request_stop();
        // Chaos hook: an injected worker death takes the same first-
        // exception-wins path a genuine engine fault takes.
        if (t.joins && TWM_FAILPOINT("campaign.worker"))
          throw std::runtime_error("injected worker failure (campaign.worker failpoint)");
        if (!states_[w]) states_[w] = std::make_unique<WorkerState>(words_, width_);
        compute(*states_[w], t);
        undrained = true;
        std::unique_lock<std::mutex> lock(report_mu_, std::try_to_lock);
        if (!lock.owns_lock() && caller && boundary_) lock.lock();
        if (lock.owns_lock()) {
          drain(caller);
          undrained = false;
        }
      }
    } catch (...) {
      request_stop();
      throw;
    }
  }

  // Slot high-water marks and store growths over every worker memory, once
  // the pool is done.  Only a PackedMemory has a slot store; the scalar
  // Memory is one dense array and reports 0.
  void add_memory_stats() {
    const auto fetch_max = [](std::atomic<std::uint64_t>& slot, std::uint64_t mine) {
      std::uint64_t cur = slot.load(std::memory_order_relaxed);
      while (mine > cur && !slot.compare_exchange_weak(cur, mine, std::memory_order_relaxed)) {
      }
    };
    for (const std::unique_ptr<WorkerState>& st : states_) {
      if (!st) continue;
      if constexpr (Engine::kSparseWalk) {
        fetch_max(stats_->pages_peak, st->mem.slots_peak());
        fetch_max(stats_->packed_pages_peak, st->mem.slots_peak());
        stats_->page_allocs.fetch_add(st->mem.store_growths(), std::memory_order_relaxed);
      }
    }
  }

  CellFeed& feed_;
  const std::vector<std::uint64_t>& seeds_;
  const std::size_t words_;
  const unsigned width_;
  const unsigned regions_;
  CampaignStats* const stats_;

  std::vector<SeedTable> tables_;  // [seed index]
  std::deque<PlanState> plans_;  // prepared cells' plans (drain side)
  std::size_t next_cell_ = 0;    // next cell to prepare (drain side)
  unsigned workers_ = 0;
  std::vector<std::unique_ptr<WorkerState>> states_;  // [worker]

  // sched_mu_ guards the window's membership, every job's claim state,
  // drain_job, spare_, stop_ and finished_; report_mu_ the drain.  A thread that
  // holds both took report_mu_ first.
  std::mutex sched_mu_, report_mu_;
  std::condition_variable work_cv_;
  std::deque<std::unique_ptr<Cell>> window_;  // the drain's cell first
  std::vector<Arrays> spare_;                 // drained jobs' arrays
  std::atomic<bool> stop_{false};
  // A boundary waits for the calling thread (set under sched_mu_).
  std::atomic<bool> boundary_{false};
  bool finished_ = false;
};

// Runs every cell of `feed` on `pool` (see CampaignScheduler).
template <class Engine>
void run_campaign_engine(CellFeed& feed, const std::vector<std::uint64_t>& seeds,
                         std::size_t words, unsigned width, unsigned regions, WorkerPool& pool,
                         CampaignStats* stats) {
  CampaignScheduler<Engine>(feed, seeds, words, width, regions, stats).run(pool);
}

}  // namespace twm

#endif  // TWM_ANALYSIS_CAMPAIGN_EXEC_H
