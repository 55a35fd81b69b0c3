// Campaign orchestration: drives many scheme sessions over a fault list.
//
// A coverage/diagnosis campaign is embarrassingly parallel across faults:
// every unit (one fault on the scalar backend, a 63-fault batch + golden
// lane on the packed backend) is independent.  CampaignRunner owns the
// machinery every campaign needs —
//
//   * one SchemePlan compiled per scheme (march transforms amortized
//     over every fault x seed),
//   * one scheduler per campaign (analysis/campaign_exec.h): one worker
//     pool and one in-order report drain for every cell and region,
//   * the per-seed early exit once the requested verdicts have settled,
//   * the packed golden-lane self-check (lane 0 carries no fault; a
//     detection there is an engine bug and aborts the campaign),
//
// — and exposes three result shapes for one cell: aggregate counts
// (evaluate), a per-fault verdict vector (per_fault), and the full
// per-fault x per-seed verdict matrix (matrix), plus run_cells, which
// schedules a whole campaign's cells at once.
//
// Schemes (SchemeKind, core/scheme_session.h) are evaluated per fault under
// each seed in `seeds`: detection may in principle depend on the initial
// contents of a transparent test, so results carry both the faults
// detected under every content (detected_all — what the paper's theorem
// promises) and under at least one content (detected_any).  Seed 0 is
// special: it loads all-zero contents, the base the nontransparent
// reference operates on, so transparent and reference sessions perform
// operation-for-operation the same port traffic and per-fault verdicts
// must agree exactly.
#ifndef TWM_ANALYSIS_CAMPAIGN_H
#define TWM_ANALYSIS_CAMPAIGN_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scheme_session.h"
#include "core/simd.h"
#include "march/test.h"
#include "memsim/fault.h"

namespace twm {

// Simulation backend for a campaign.
//
//   Scalar  one fault x one seed at a time through memsim::Memory — the
//           reference implementation.
//   Packed  bit-parallel batches of 63 faults + 1 golden lane per 64-lane
//           packed-memory pass.  Verdicts are lane-for-lane identical to
//           the scalar backend (tests/coverage_backend_test.cpp).
enum class CoverageBackend { Scalar, Packed };

std::string to_string(CoverageBackend b);

// How a campaign executes.  Whatever the options, the scheduler is the same
// (analysis/campaign_exec.h): seed-major rounds rebuild batches from
// still-undecided faults only, and sessions with monotone verdicts abort
// once every lane settled.  Verdicts are byte-identical to a plain
// fault x seed loop (tests/oracle.h, tests/scheduler_test.cpp).
struct CoverageOptions {
  CoverageBackend backend = CoverageBackend::Scalar;
  // Worker threads the campaign's units are sharded across; <= 1 runs
  // everything on the calling thread.  Applies to both backends.
  unsigned threads = 1;
  // Lane-width request kept for spec compatibility; every value runs the
  // 64-lane packed engine (core/simd.h).
  simd::Request simd = simd::Request::Auto;
  // Address-region sharding, orthogonal to the fault sharding above: the
  // fault list is partitioned into `regions` slices of the address space
  // (a fault belongs to the region owning its victim word; inter-region
  // couplings follow their victim) and each slice is one job of the
  // scheduler, reported in region order; merged verdicts are identical to
  // the unsharded run.  A region is a fault-list partition and a
  // checkpoint point (RegionProgress): it gives cached resume its unit of
  // progress.  1 = off.
  unsigned regions = 1;
};

// Scheduler forward-progress counters, accumulated across worker threads
// when a CampaignStats* is handed to CampaignRunner::run.  They attribute
// where the scheduler's speedup comes from:
//
//   lane occupancy   lane_slots / (units * kFaultsPerUnit) — how densely
//                    the executed unit-sessions were packed with
//                    still-undecided faults,
//   settle-exit      elements_executed / elements_total — the fraction of
//                    march elements a full-length run would execute that
//                    actually ran.
struct CampaignStats {
  std::atomic<std::uint64_t> units{0};        // unit-sessions executed
  std::atomic<std::uint64_t> lane_slots{0};   // fault lanes across those units
  std::atomic<std::uint64_t> faults_simulated{0};  // faults dispatched to the engine
  std::atomic<std::uint64_t> elements_total{0};     // full-length march elements
  std::atomic<std::uint64_t> elements_executed{0};  // march elements entered
  // Addresses the units' sessions walked, summed over units: a packed unit
  // walks its fault footprint (at most two words per fault), a scalar unit
  // every word.
  std::atomic<std::uint64_t> addresses_walked{0};
  // Peak live PackedMemory slots (words) any worker held.  A packed unit
  // gives slots only to its footprint's words, so this is bounded by the
  // batch's fault footprint (at most two words per fault; one region's
  // slice under address-region sharding), not by `words`: the huge-memory
  // claim in one number.  The name predates the slot store, which replaced
  // 64-word pages.  The scalar backend reports 0: its Memory is one dense
  // array.
  std::atomic<std::uint64_t> pages_peak{0};
  // Peak slots in lane-mask form.  Every PackedMemory slot has that form,
  // so this equals pages_peak (0 on the scalar backend).
  std::atomic<std::uint64_t> packed_pages_peak{0};
  // PackedMemory slot-store growth allocations across every worker memory
  // (0 on the scalar backend).  The allocation-free round-rebuild contract
  // in one number: worker memories live for the whole campaign and keep
  // their store capacity across refills, so this stays flat as seed rounds
  // are added instead of growing per round (tests/campaign_test.cpp pins
  // it).
  std::atomic<std::uint64_t> page_allocs{0};
  // Worker pools that started threads (WorkerPool): one per campaign that
  // runs on more than one thread, whatever its cells, regions and rounds.
  std::atomic<std::uint64_t> pool_starts{0};

  double mean_live_lanes() const {
    const std::uint64_t u = units.load();
    return u ? static_cast<double>(lane_slots.load()) / static_cast<double>(u) : 0.0;
  }
};

struct CoverageOutcome {
  std::size_t total = 0;
  std::size_t detected_all = 0;  // detected under every evaluated content
  std::size_t detected_any = 0;  // detected under at least one content

  double pct_all() const { return total ? 100.0 * detected_all / total : 0.0; }
  double pct_any() const { return total ? 100.0 * detected_any / total : 0.0; }
};

// A campaign's worker threads, started once and parked between runs.
// run(fn) calls fn(w) once on every pool thread — the caller is worker 0 —
// and returns when all of them returned, rethrowing the first exception
// any of them raised.  Threads start on the first run() (so a pool that
// only ever runs trivial work starts none); if the OS refuses to spawn
// more, the pool runs with the ones it got.  One run() at a time.
class WorkerPool {
 public:
  // `stats`, when non-null, counts the thread start in pool_starts.
  explicit WorkerPool(unsigned threads, CampaignStats* stats = nullptr);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Threads a run() may use, the caller included (the request, until the
  // first run() finds out how many the OS grants).
  unsigned size() const { return size_; }

  void run(const std::function<void(unsigned worker)>& fn);

  // task(i) for every i in [0, n), claimed in order by the pool's threads
  // (n <= 1 runs on the caller alone).
  void for_each(std::size_t n, const std::function<void(std::size_t)>& task);

 private:
  void start();
  void serve(unsigned worker);

  unsigned size_;
  CampaignStats* stats_;
  bool started_ = false;
  // mu_ guards the run handed to the threads: its task, generation, the
  // threads still in it, the first exception, and quit_.
  std::mutex mu_;
  std::condition_variable wake_, idle_;
  const std::function<void(unsigned)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned busy_ = 0;
  bool quit_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;  // last: the threads use every member above
};

// Packed campaigns keep lane 0 fault-free; a detection there means the
// engine corrupted the golden universe.  Throws std::logic_error when bit 0
// of `verdicts` is set.
void require_golden_lane_clear(LaneMask verdicts);

// Low-level streaming observer for one cell of a campaign.  The engine
// invokes it while the rounds run.  on_unit_settled and flush() come from
// the report drain (analysis/campaign_exec.h): on whichever pool thread
// holds the report mutex, one call at a time, in the thread-count-
// independent fault order; flush() follows each round's last record.
// cancelled() may run on any worker thread at the same time, so it must be
// thread-safe.
//
// cancelled() is polled before each unit is claimed, before each
// on_unit_settled run and at cell and region boundaries: returning true
// makes every worker stop claiming new units and ends the reports (units
// still in flight complete unreported), which is the cooperative-
// cancellation contract the api::ResultSink surface builds on.  The
// records delivered are a prefix of the full stream.
class UnitObserver {
 public:
  virtual ~UnitObserver() = default;

  // Final verdicts for faults [first, first + count): a run of one unit's
  // faults, contiguous in fault order, whose verdicts can no longer change
  // (decided, or the last seed ran).  `all` / `any` point at the per-fault
  // flags of exactly this range.
  virtual void on_unit_settled(std::size_t first, unsigned count, const char* all,
                               const char* any) = 0;

  // A report batch settled: fired once per round, right after the round's
  // last on_unit_settled (a buffering consumer writes now).
  virtual void flush() {}

  virtual bool cancelled() const { return false; }
};

// Region that owns a fault under a `regions`-way split of the address
// space: the victim word's slice (inter-region couplings follow their
// victim; decoder faults their decoded address).
unsigned fault_region(const Fault& f, std::size_t words, unsigned regions);

// Progress hooks for a region-sharded run (the region-resume surface).
// done[r] marks regions whose verdicts the caller already holds from a
// previous run — they are skipped wholesale and the caller is responsible
// for patching their all/any/matrix entries and replaying their records.
// on_region_done fires from the report drain on the calling thread (worker
// 0, under the report mutex) right after a region's last record was
// delivered, with the original fault indices the region owns; it is not
// called for a region a stop cut.
struct RegionProgress {
  std::vector<char> done;  // [region] -> already complete, skip
  std::function<void(unsigned region, const std::vector<std::uint32_t>& fault_indices)>
      on_region_done;
};

// Detection verdict of every (fault, seed) pair of a campaign.
struct VerdictMatrix {
  std::size_t num_faults = 0;
  std::size_t num_seeds = 0;
  std::vector<char> bits;  // [fault * num_seeds + seed] -> detected?

  bool detected(std::size_t fault, std::size_t seed) const {
    return bits[fault * num_seeds + seed] != 0;
  }
  bool detected_all(std::size_t fault) const;  // under every seed
  bool detected_any(std::size_t fault) const;  // under at least one seed
};

// One scheme x fault-list cell of a campaign (CampaignRunner::run_cells).
// The result slots are optional: all/any are sized to the fault list
// (1 / 0 preset) and filled as each region's job completes, a matrix is
// sized and filled like CampaignRunner::matrix's.  Left null, a job's
// verdicts live only from its first claimed unit until it drained; the
// observer is how they leave the scheduler.
struct CampaignCell {
  const SchemePlan* plan = nullptr;  // shared by every cell of its scheme
  // Null: nothing to simulate; the drain only passes the cell (CellFeed).
  const std::vector<Fault>* faults = nullptr;
  bool need_any = true;
  std::vector<char>* all = nullptr;
  std::vector<char>* any = nullptr;
  VerdictMatrix* matrix = nullptr;  // non-null disables the early exit
  UnitObserver* observer = nullptr;
  // Regions to skip and the per-region callback; null runs every region.
  const RegionProgress* progress = nullptr;
};

// The cells of one campaign, in report order.  The scheduler asks for a
// cell when it enters its window (a few cells ahead of the report drain),
// and tells it when the drain reaches it and when it passed its last
// record.  Every call comes from the calling thread (under the report
// mutex once the pool runs), cells in order.
class CellFeed {
 public:
  virtual ~CellFeed() = default;
  virtual std::size_t size() const = 0;
  // Describes cell c; the pointers in it stay valid until drained(c).
  virtual CampaignCell cell(std::size_t c) = 0;
  // The drain reached cell c: whatever the feed delivers here (replayed
  // records) precedes the cell's live records.
  virtual void reached(std::size_t c) { (void)c; }
  // The drain delivered cell c's last record (not called for a cell a
  // stop cut).
  virtual void drained(std::size_t c) { (void)c; }
};

class CampaignRunner {
 public:
  CampaignRunner(std::size_t words, unsigned width, const CoverageOptions& options = {})
      : words_(words), width_(width), options_(options) {
    if (words > kMaxWords)
      throw std::invalid_argument("CampaignRunner: more than 2^32 words (a word index is 32 bits)");
  }

  std::size_t words() const { return words_; }
  unsigned width() const { return width_; }
  const CoverageOptions& options() const { return options_; }

  // Aggregate counts; the seed loop stops early per unit once both the
  // "all" and "any" verdicts have settled.
  CoverageOutcome evaluate(SchemeKind scheme, const MarchTest& bit_march,
                           const std::vector<Fault>& faults,
                           const std::vector<std::uint64_t>& seeds) const;

  // Verdict per fault (detected under every seed); used to prove coverage
  // *equality* between schemes/backends, not just equal percentages.
  // `stats`, when non-null, receives the scheduler's forward-progress
  // counters (what bench_coverage attributes its speedups with).
  std::vector<bool> per_fault(SchemeKind scheme, const MarchTest& bit_march,
                              const std::vector<Fault>& faults,
                              const std::vector<std::uint64_t>& seeds,
                              CampaignStats* stats = nullptr) const;

  // Full per-fault x per-seed verdict matrix (no early exit: every pair is
  // evaluated).
  VerdictMatrix matrix(SchemeKind scheme, const MarchTest& bit_march,
                       const std::vector<Fault>& faults,
                       const std::vector<std::uint64_t>& seeds) const;

  // Low-level entry point the result shapes above derive from: fills
  // per-fault "detected under every seed" / "under at least one seed"
  // flags.  When `need_any` is false the per-unit seed loop stops as soon
  // as the "all" verdict settles.  When `out_matrix` is non-null the early
  // exit is disabled and every (fault, seed) verdict is recorded into it.
  // When `observer` is non-null it is streamed unit-by-unit as verdicts
  // settle and may cancel the remainder of the run cooperatively.  When
  // `stats` is non-null the scheduler's forward-progress counters are
  // accumulated into it (occupancy / settle-exit attribution).
  // When options().regions > 1 (or `progress` is non-null) the fault list
  // is partitioned by fault_region() and each region is one job, reported
  // in region order; merged verdicts are identical to regions=1.  This is
  // run_cells with one cell.
  void run(SchemeKind scheme, const MarchTest& bit_march, const std::vector<Fault>& faults,
           const std::vector<std::uint64_t>& seeds, bool need_any, std::vector<char>& all,
           std::vector<char>& any, VerdictMatrix* out_matrix = nullptr,
           UnitObserver* observer = nullptr, CampaignStats* stats = nullptr,
           const RegionProgress* progress = nullptr) const;

  // A whole campaign: every cell of `feed`, all under `seeds`, on one
  // scheduler — one worker pool (`pool`, or one of options().threads
  // threads started here), one worker memory and session scratch per
  // thread, and one report drain that delivers the cells in feed order.
  // Idle workers compute the next cells while a cell's records drain.
  void run_cells(CellFeed& feed, const std::vector<std::uint64_t>& seeds,
                 WorkerPool* pool = nullptr, CampaignStats* stats = nullptr) const;

 private:
  std::size_t words_;
  unsigned width_;
  CoverageOptions options_;
};

}  // namespace twm

#endif  // TWM_ANALYSIS_CAMPAIGN_H
