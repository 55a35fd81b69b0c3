// Campaign orchestration: drives many scheme sessions over a fault list.
//
// A coverage/diagnosis campaign is embarrassingly parallel across faults:
// every unit (one fault on the scalar backend, a 63-fault batch + golden
// lane on the packed backend) is independent.  CampaignRunner owns the
// machinery every campaign needs —
//
//   * one SchemePlan compiled per campaign (march transforms amortized
//     over every fault x seed),
//   * sharding of units across a thread pool (run_pool),
//   * the per-seed early exit once the requested verdicts have settled,
//   * the packed golden-lane self-check (lane 0 carries no fault; a
//     detection there is an engine bug and aborts the campaign),
//
// — and exposes three result shapes: aggregate counts (evaluate), a
// per-fault verdict vector (per_fault), and the full per-fault x per-seed
// verdict matrix (matrix).
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
#include <cstdint>
#include <functional>
#include <string>
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
  // couplings follow their victim) and the slices run as independent
  // sequential sub-campaigns whose merged verdicts are identical to the
  // unsharded run.  Each sub-campaign's working set (slots + prediction
  // streams) is bounded by its slice's fault footprint, which is what
  // keeps huge-geometry campaigns inside a fixed memory budget and gives
  // cached resume its unit of progress.  1 = off (the byte-identical
  // legacy path).
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

// Runs `worker` on `threads` threads (including the calling one), joins
// them all, and rethrows the first exception any of them raised.  If the OS
// refuses to spawn more threads, the pool simply runs with the ones it got.
void run_pool(unsigned threads, const std::function<void()>& worker);

// Packed campaigns keep lane 0 fault-free; a detection there means the
// engine corrupted the golden universe.  Throws std::logic_error when bit 0
// of `verdicts` is set.
void require_golden_lane_clear(LaneMask verdicts);

// Low-level streaming observer for one CampaignRunner call.  The engine
// invokes it from WORKER threads while the round runs — implementations
// must be thread-safe (the api layer's sink adapter serializes with a
// mutex).  on_unit_settled comes from the report drain
// (analysis/campaign_exec.h): on whichever engine worker or calling thread
// holds the report mutex, one call at a time, in the thread-count-
// independent fault order.  flush() comes on the calling thread once per
// round, after the pool joined.
//
// cancelled() is polled before each unit is claimed and before each
// on_unit_settled run: returning true makes every worker stop claiming new
// units and ends the reports (units still in flight complete unreported),
// which is the cooperative-cancellation contract the api::ResultSink
// surface builds on.  The records delivered are a prefix of the full
// stream.
class UnitObserver {
 public:
  virtual ~UnitObserver() = default;

  // Final verdicts for faults [first, first + count): a run of one unit's
  // faults, contiguous in fault order, whose verdicts can no longer change
  // (decided, or the last seed ran).  `all` / `any` point at the per-fault
  // flags of exactly this range.
  virtual void on_unit_settled(std::size_t first, unsigned count, const char* all,
                               const char* any) = 0;

  // One (fault, seed) verdict, fired as each seed of a unit is evaluated.
  // Only called when want_seed_verdicts() is true — extracting per-lane
  // bits costs real work on the packed backends, so it is opt-in.
  virtual void on_seed_verdict(std::size_t fault, std::size_t seed_index, bool detected) {
    (void)fault;
    (void)seed_index;
    (void)detected;
  }
  virtual bool want_seed_verdicts() const { return false; }

  // A report batch settled: fired once per round on the calling thread,
  // after the pool joined and the round's last on_unit_settled (a
  // buffering consumer writes now).
  virtual void flush() {}

  virtual bool cancelled() const { return false; }
};

struct CampaignJob;  // analysis/campaign_exec.h

// Region that owns a fault under a `regions`-way split of the address
// space: the victim word's slice (inter-region couplings follow their
// victim; decoder faults their decoded address).
unsigned fault_region(const Fault& f, std::size_t words, unsigned regions);

// Progress hooks for a region-sharded run (the region-resume surface).
// done[r] marks regions whose verdicts the caller already holds from a
// previous run — they are skipped wholesale and the caller is responsible
// for patching their all/any/matrix entries and replaying their records.
// on_region_done fires on the calling thread after each region's faults
// settle, with the original fault indices the region owns.
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

class CampaignRunner {
 public:
  CampaignRunner(std::size_t words, unsigned width, const CoverageOptions& options = {})
      : words_(words), width_(width), options_(options) {}

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
  // is partitioned by fault_region() and the regions run sequentially as
  // independent sub-campaigns; merged verdicts are identical to regions=1.
  void run(SchemeKind scheme, const MarchTest& bit_march, const std::vector<Fault>& faults,
           const std::vector<std::uint64_t>& seeds, bool need_any, std::vector<char>& all,
           std::vector<char>& any, VerdictMatrix* out_matrix = nullptr,
           UnitObserver* observer = nullptr, CampaignStats* stats = nullptr,
           const RegionProgress* progress = nullptr) const;

 private:
  // One fault list through dispatch; all/any point at (and a non-null
  // matrix is pre-sized for) exactly this list.
  void run_list(const SchemePlan& plan, const std::vector<Fault>& faults,
                const std::vector<std::uint64_t>& seeds, bool need_any, char* all, char* any,
                VerdictMatrix* out_matrix, UnitObserver* observer, CampaignStats* stats) const;
  void dispatch(const CampaignJob& job) const;

  std::size_t words_;
  unsigned width_;
  CoverageOptions options_;
};

}  // namespace twm

#endif  // TWM_ANALYSIS_CAMPAIGN_H
