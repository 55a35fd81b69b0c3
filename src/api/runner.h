// Executes a CampaignSpec: the one entry point every front-end drives.
//
//   CampaignSpec spec = api::spec_from_json(file_text);
//   api::JsonLinesSink sink(std::cout);
//   api::CampaignSummary summary = api::run_campaign(spec, &sink);
//
// run_campaign validates the spec (throwing SpecValidationError with the
// offending field paths), resolves the march, builds each fault class's
// list once (in parallel, on the campaign's worker pool), then hands every
// scheme x class cell to one CampaignRunner::run_cells call, streaming
// per-unit records into the sink as worker threads settle them.  The sink
// can cancel cooperatively at any point; the summary then carries the
// completed prefix and cancelled = true.
#ifndef TWM_API_RUNNER_H
#define TWM_API_RUNNER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnosis.h"
#include "api/sink.h"
#include "api/spec.h"

namespace twm::api {

// ---- content-addressed result cache --------------------------------------
//
// run_campaign consults a CellCache (when given one) before simulating each
// scheme x fault-class cell.  An entry is a whole cell or one region of a
// cell.  A whole-cell hit replays the stored unit records through the sink
// byte-identically to the original live run — same fault order, same
// verdicts, same describe() strings (the fault list is rebuilt
// deterministically from the spec).  On a miss with run.regions > 1 the
// cell's region entries are looked up instead: found regions replay, the
// rest simulate, and every region that settles is stored as its own entry —
// so a cancelled or timed-out campaign resumes at region grain.  A completed
// cell is stored whole, as at regions = 1.

// One streamed unit record of a completed cell, in the emission order of
// the run that produced it.
struct CachedUnit {
  std::uint32_t fault_index = 0;  // within the cell's fault list (kMaxClassFaults)
  bool detected_all = false;
  bool detected_any = false;

  friend bool operator==(const CachedUnit&, const CachedUnit&) = default;
};

static_assert(sizeof(CachedUnit) == 8, "a cache entry stores one CachedUnit per fault");

struct CellRecords {
  std::vector<CachedUnit> units;
};

// Storage interface (implemented by service::ResultCache — memory LRU +
// disk).  Keys are api::content_key of `identity`, the canonical cell JSON
// (api::cell_identity_json, or api::region_identity_json for a region
// entry); implementations MUST verify the identity on
// lookup so a hash collision or corrupted entry degrades to a miss, never
// to wrong results.  Calls arrive from whatever thread runs the campaign —
// implementations serialize internally.
class CellCache {
 public:
  virtual ~CellCache() = default;

  virtual std::optional<CellRecords> lookup(const std::string& key,
                                            const std::string& identity) = 0;
  virtual void store(const std::string& key, const std::string& identity,
                     const CellRecords& records) = 0;
};

// Cache effectiveness of one run_campaign call — the counters that PROVE a
// resubmitted spec re-simulated nothing (cells_simulated == 0).
struct CacheStats {
  std::size_t cells_total = 0;      // scheme x class cells the spec denotes
  std::size_t cells_cached = 0;     // served wholly by replaying stored records
  std::size_t cells_simulated = 0;  // ran live, at least in part (includes
                                    // resumed and cancelled cells)
  std::size_t faults_replayed = 0;  // unit records replayed from the cache
};

// Runs the whole campaign a spec denotes.  `sink` may be null (aggregates
// only).  With a `cache`, each cell is served by replay when its content
// key hits, or resumed from its stored regions; settled regions and
// completed live cells are stored.  Pass a disk-backed
// service::ResultCache to make a run resumable across processes; its disk
// failures warn and degrade to memory-only, never costing the campaign.
//
// A spec with run.deadline_ms != 0 stops itself at the first between-units
// cancellation point past the budget; the summary then has cancelled AND
// timed_out set and carries the exact prefix that fit (no exception — a
// deadline is an outcome, not an error).
//
// Throws SpecValidationError on an invalid spec.  Every other failure
// (golden-lane corruption, pool failures, allocation exhaustion) is
// classified into a typed api::Error, delivered to the sink via on_error,
// and rethrown as CampaignError — catch sites that only need the message
// keep catching std::exception, ones that route on retryability catch
// CampaignError.
//
// `stats`, when non-null, receives the scheduler's counters
// (analysis/campaign.h) over the whole campaign.
CampaignSummary run_campaign(const CampaignSpec& spec, ResultSink* sink = nullptr,
                             CellCache* cache = nullptr, CacheStats* cache_stats = nullptr,
                             CampaignStats* stats = nullptr);

// Diagnosis front-end of the same surface: localizes every fault of the
// spec's class selection with the transparent TWMarch session, using the
// spec's geometry, march and thread count.  EVERY requested seed is
// diagnosed — a fault invisible under one content (e.g. RET to the value
// the cell already holds) can be localizable under another; each fault
// reports the diagnosis of the first seed, in spec order, that observed
// it.  (Diagnosis is scalar by construction — it replays read streams —
// so the spec's backend/simd request is not consulted.)
std::vector<Diagnosis> diagnose_campaign(const CampaignSpec& spec);

}  // namespace twm::api

#endif  // TWM_API_RUNNER_H
