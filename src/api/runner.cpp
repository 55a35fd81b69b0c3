#include "api/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "api/error.h"
#include "march/library.h"

namespace twm::api {

namespace {

// run.deadline_ms as a poll: expired() is checked at exactly the
// cancellation points (between units / repack rounds), from worker threads
// — it latches, so one observation past the deadline stops every
// subsequent poll without re-reading the clock.
class DeadlineGate {
 public:
  explicit DeadlineGate(std::uint64_t deadline_ms)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms)) {}

  bool expired() const {
    if (fired_.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() < deadline_) return false;
    fired_.store(true, std::memory_order_relaxed);
    return true;
  }

  bool fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  std::chrono::steady_clock::time_point deadline_;
  mutable std::atomic<bool> fired_{false};
};

// Bridges the engine's raw UnitObserver events (runs of contiguous faults
// + flag pointers, fired from the report drain on a worker or the calling
// thread) to the public ResultSink records (one per fault, serialized by a
// mutex taken once per run, stamped with scheme/class), and counts the
// cell's aggregate as units go by.  Replayed cache records take
// the same path through emit(); the engine's end-of-batch flush() reaches
// the sink as ResultSink::flush().  `sink` may be null (cache-recording runs
// without a consumer); `record`, when non-null, captures every unit in
// emission order for the cache.
class SinkAdapter : public UnitObserver {
 public:
  SinkAdapter(ResultSink* sink, std::mutex& mu, SchemeKind scheme, const ClassSel& cls,
              const std::vector<Fault>& faults, const std::vector<std::uint64_t>& seeds,
              std::size_t& units_emitted, std::vector<CachedUnit>* record,
              const DeadlineGate* gate)
      : sink_(sink),
        gate_(gate),
        mu_(mu),
        scheme_(scheme),
        cls_(cls),
        faults_(faults),
        seeds_(seeds),
        units_emitted_(units_emitted),
        record_(record) {}

  std::size_t units_seen() const { return units_seen_; }
  const CoverageOutcome& outcome() const { return outcome_; }

  // One settled unit, live or replayed.  Callers hold mu_ or run before
  // the engine starts its workers.
  void emit(const CachedUnit& u) {
    if (record_) record_->push_back(u);
    if (sink_) {
      UnitRecord r;
      r.scheme = scheme_;
      r.cls = cls_;
      r.fault_index = u.fault_index;
      r.fault = &faults_[u.fault_index];
      r.detected_all = u.detected_all;
      r.detected_any = u.detected_any;
      sink_->on_unit(r);
      ++units_emitted_;
    }
    outcome_.detected_all += u.detected_all;
    outcome_.detected_any += u.detected_any;
    ++units_seen_;
  }

  void on_unit_settled(std::size_t first, unsigned count, const char* all,
                       const char* any) override {
    const std::lock_guard<std::mutex> lock(mu_);
    for (unsigned i = 0; i < count; ++i) emit({first + i, all[i] != 0, any[i] != 0});
  }

  void on_seed_verdict(std::size_t fault, std::size_t seed_index, bool detected) override {
    const std::lock_guard<std::mutex> lock(mu_);
    SeedRecord r;
    r.scheme = scheme_;
    r.cls = cls_;
    r.fault_index = fault;
    r.seed = seeds_[seed_index];
    r.detected = detected;
    sink_->on_seed_settled(r);
  }

  void flush() override {
    if (!sink_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    sink_->flush();
  }

  bool want_seed_verdicts() const override { return sink_ && sink_->want_seed_records(); }
  bool cancelled() const override {
    return (gate_ && gate_->expired()) || (sink_ && sink_->cancelled());
  }

 private:
  ResultSink* sink_;
  const DeadlineGate* gate_;
  std::mutex& mu_;
  SchemeKind scheme_;
  ClassSel cls_;
  const std::vector<Fault>& faults_;
  const std::vector<std::uint64_t>& seeds_;
  std::size_t& units_emitted_;
  std::vector<CachedUnit>* record_;
  CoverageOutcome outcome_;
  std::size_t units_seen_ = 0;
};

// A stored entry is replayable only if it is an exact permutation of the
// faults it claims — the whole cell's list, or (with `region_of`) the
// faults `region` owns: one record per fault, every index in range.  A
// corrupted or foreign entry that slipped past the identity check must
// degrade to a miss, not to an out-of-bounds read.
bool replayable(const std::vector<CachedUnit>& units, std::size_t num_faults,
                std::size_t owned, const std::vector<unsigned>* region_of = nullptr,
                unsigned region = 0) {
  if (units.size() != owned) return false;
  std::vector<char> seen(num_faults, 0);
  for (const CachedUnit& u : units) {
    if (u.fault_index >= num_faults || seen[u.fault_index] ||
        (region_of && (*region_of)[u.fault_index] != region))
      return false;
    seen[u.fault_index] = 1;
  }
  return true;
}

CampaignSummary run_campaign_impl(const CampaignSpec& spec, ResultSink* sink,
                                  CellCache* cache, CacheStats* cache_stats) {
  require_valid(spec);
  const MarchTest march = resolve_march(spec);

  // The deadline clock starts here, after validation: a spec with
  // run.deadline_ms budgets the simulation, not the request parsing.
  std::optional<DeadlineGate> gate_storage;
  if (spec.deadline_ms != 0) gate_storage.emplace(spec.deadline_ms);
  const DeadlineGate* gate = gate_storage ? &*gate_storage : nullptr;

  const unsigned regions = std::max(1u, spec.regions);

  // One fault list per distinct class selector, shared across schemes.
  std::vector<std::vector<Fault>> fault_lists;
  fault_lists.reserve(spec.classes.size());
  for (const ClassSel& cls : spec.classes)
    fault_lists.push_back(build_fault_list(cls, spec.words, spec.width));

  CampaignSummary summary;
  for (const auto& list : fault_lists) summary.total_faults += list.size();
  summary.total_faults *= spec.schemes.size();

  if (sink) {
    CampaignMeta meta;
    meta.spec = &spec;
    meta.total_faults = summary.total_faults;
    sink->on_campaign_begin(meta);
  }

  if (cache_stats) {
    *cache_stats = {};
    cache_stats->cells_total = spec.schemes.size() * spec.classes.size();
  }
  // Seed-record consumers bypass the replay path: stored entries carry no
  // per-seed stream.  Settled regions and live cells are still stored.
  const bool replay_ok = !(sink && sink->want_seed_records());

  const CampaignRunner runner(spec.words, spec.width, spec.options());
  std::mutex sink_mu;
  const auto t0 = std::chrono::steady_clock::now();
  for (SchemeKind scheme : spec.schemes) {
    for (std::size_t c = 0; c < spec.classes.size() && !summary.cancelled; ++c) {
      const std::vector<Fault>& faults = fault_lists[c];
      std::string identity, key;
      if (cache) {
        identity = cell_identity_json(spec, scheme, spec.classes[c]);
        key = content_key(identity);
      }

      // Stored records of this cell: the whole-cell entry, or else the
      // entries of whichever regions an earlier run settled.  done[r] tells
      // the runner which regions to skip.
      std::vector<CachedUnit> stored;
      RegionProgress progress;
      progress.done.assign(regions, 0);
      bool whole_hit = false;
      if (cache && replay_ok) {
        if (auto hit = cache->lookup(key, identity);
            hit && replayable(hit->units, faults.size(), faults.size())) {
          stored = std::move(hit->units);
          whole_hit = true;
        } else if (regions > 1) {
          // Region ownership of this cell's faults (identical to the split
          // CampaignRunner::run performs).
          std::vector<unsigned> region_of(faults.size());
          std::vector<std::size_t> owned(regions, 0);
          for (std::size_t i = 0; i < faults.size(); ++i)
            ++owned[region_of[i] = fault_region(faults[i], spec.words, regions)];
          for (unsigned r = 0; r < regions; ++r) {
            if (owned[r] == 0) {  // nothing to redo, nothing stored
              progress.done[r] = 1;
              continue;
            }
            const std::string rid = region_identity_json(identity, r, regions);
            const auto part = cache->lookup(content_key(rid), rid);
            if (!part || !replayable(part->units, faults.size(), owned[r], &region_of, r))
              continue;
            progress.done[r] = 1;
            stored.insert(stored.end(), part->units.begin(), part->units.end());
          }
        }
      }
      const bool simulate =
          !whole_hit && std::find(progress.done.begin(), progress.done.end(), 0) !=
                            progress.done.end();

      // A cell not served whole is stored whole once it completes.
      const bool store_whole = cache && !whole_hit;
      std::vector<CachedUnit> recorded;
      SinkAdapter adapter(sink, sink_mu, scheme, spec.classes[c], faults, spec.seeds,
                          summary.units_emitted, store_whole ? &recorded : nullptr, gate);
      // Stored records stream first (they settled first in the run that
      // stored them), then the missing regions simulate.
      for (const CachedUnit& u : stored) adapter.emit(u);
      if (!stored.empty()) adapter.flush();
      if (cache_stats) {
        ++(simulate ? cache_stats->cells_simulated : cache_stats->cells_cached);
        cache_stats->faults_replayed += stored.size();
      }
      if (simulate) {
        // Every region that settles becomes its own entry: the region's
        // records are the tail the adapter just recorded.
        const bool store_regions = cache && regions > 1;
        if (store_regions) {
          progress.on_region_done = [&](unsigned r, const std::vector<std::uint32_t>& idx) {
            if (idx.empty() || recorded.size() < idx.size()) return;
            const std::string rid = region_identity_json(identity, r, regions);
            cache->store(content_key(rid), rid,
                         {{recorded.end() - static_cast<std::ptrdiff_t>(idx.size()),
                           recorded.end()}});
          };
        }
        std::vector<char> all, any;
        runner.run(scheme, march, faults, spec.seeds, /*need_any=*/true, all, any,
                   /*out_matrix=*/nullptr, &adapter, /*stats=*/nullptr,
                   store_regions ? &progress : nullptr);
      }
      if ((sink && sink->cancelled()) || (gate && gate->expired())) summary.cancelled = true;
      // The flag may flip only after the cell's last unit settled (or
      // every in-flight unit may still have completed): the aggregate of
      // a fully-streamed cell is valid and must not be dropped.
      if (adapter.units_seen() != faults.size()) break;
      if (store_whole) cache->store(key, identity, {std::move(recorded)});
      CellResult cell;
      cell.scheme = scheme;
      cell.cls = spec.classes[c];
      cell.outcome = adapter.outcome();
      cell.outcome.total = faults.size();
      summary.cells.push_back(cell);
    }
    if (summary.cancelled) break;
  }
  summary.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // The deadline reports as a cancellation with a cause, mirroring the sink
  // contract: the stream is a truncated (possibly complete) prefix.
  if (gate && gate->fired()) {
    summary.timed_out = true;
    summary.cancelled = true;
  }

  if (sink) sink->on_campaign_end(summary);
  return summary;
}

}  // namespace

CampaignSummary run_campaign(const CampaignSpec& spec, ResultSink* sink, CellCache* cache,
                             CacheStats* cache_stats) {
  try {
    return run_campaign_impl(spec, sink, cache, cache_stats);
  } catch (const SpecValidationError&) {
    throw;  // structured spec errors keep their own type (and field paths)
  } catch (const std::exception& e) {
    // Everything else aborted the campaign mid-flight: type it, tell the
    // sink (its stream would otherwise just stop), rethrow carrying the
    // taxonomy so the service can answer with a retryable-flagged frame.
    Error err = classify_exception(e);
    if (sink) {
      // Records delivered before the failure precede the error record,
      // also for sinks (the daemon's) whose on_error writes nothing.
      sink->flush();
      sink->on_error(err);
    }
    throw CampaignError(std::move(err));
  }
}

std::vector<Diagnosis> diagnose_campaign(const CampaignSpec& spec) {
  require_valid(spec);
  std::vector<Fault> faults;
  for (const ClassSel& cls : spec.classes)
    for (const Fault& f : build_fault_list(cls, spec.words, spec.width)) faults.push_back(f);
  const MarchTest march = resolve_march(spec);
  // Every requested seed is diagnosed (a fault can be invisible under one
  // content and localizable under another — e.g. RET to the value the cell
  // already holds); each fault keeps the diagnosis of the FIRST seed, in
  // spec order, that observed it.  Seeds past the first that found every
  // fault are skipped — nothing left to localize.
  std::vector<Diagnosis> merged;
  for (std::uint64_t seed : spec.seeds) {
    std::size_t missing = 0;
    if (!merged.empty()) {
      for (const Diagnosis& d : merged) missing += !d.fault_found;
      if (missing == 0) break;
    }
    auto pass = twm::diagnose_campaign(march, spec.words, spec.width, faults, seed,
                                       spec.threads);
    if (merged.empty()) {
      merged = std::move(pass);
      continue;
    }
    for (std::size_t i = 0; i < merged.size(); ++i)
      if (!merged[i].fault_found && pass[i].fault_found) merged[i] = pass[i];
  }
  return merged;
}

}  // namespace twm::api
