#include "api/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

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
// + flag pointers, fired from the report drain on a pool thread) to the
// public ResultSink records (one per fault, stamped with scheme/class),
// and counts the cell's aggregate as units go by.  Replayed cache records
// take the same path through replay(); the engine's end-of-batch flush()
// reaches the sink as ResultSink::flush().  Every call but cancelled()
// comes from the scheduler's in-order report drain, which one thread holds
// at a time (analysis/campaign_exec.h), or from the calling thread once
// the pool has joined, so the adapter takes no lock of its own.  `sink`
// may be null (cache-recording runs without a consumer); `record`, when
// non-null, captures every unit in emission order for the cache.
class SinkAdapter : public UnitObserver {
 public:
  SinkAdapter(ResultSink* sink, SchemeKind scheme, const ClassSel& cls,
              const std::vector<Fault>& faults, std::size_t& units_emitted,
              std::vector<CachedUnit>* record, const DeadlineGate* gate)
      : sink_(sink),
        gate_(gate),
        scheme_(scheme),
        cls_(cls),
        faults_(faults),
        units_emitted_(units_emitted),
        record_(record) {}

  std::size_t units_seen() const { return units_seen_; }
  const CoverageOutcome& outcome() const { return outcome_; }

  // Stored records of the cell, in their stored order.
  void replay(const std::vector<CachedUnit>& units) {
    for (const CachedUnit& u : units) emit(u);
  }

  void on_unit_settled(std::size_t first, unsigned count, const char* all,
                       const char* any) override {
    for (unsigned i = 0; i < count; ++i)
      emit({static_cast<std::uint32_t>(first + i), all[i] != 0, any[i] != 0});
  }

  void flush() override {
    if (sink_) sink_->flush();
  }

  bool cancelled() const override {
    return (gate_ && gate_->expired()) || (sink_ && sink_->cancelled());
  }

 private:
  // One settled unit, live or replayed.
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

  ResultSink* sink_;
  const DeadlineGate* gate_;
  SchemeKind scheme_;
  ClassSel cls_;
  const std::vector<Fault>& faults_;
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

// The spec's scheme x class cells, scheme-major, as a CellFeed: a cell's
// cache lookups run when the scheduler asks for it (a few cells ahead of
// the report drain), its stored records replay when the drain reaches it,
// and it is stored whole and counted complete once the drain passed it.
class SpecCells final : public CellFeed {
 public:
  SpecCells(const CampaignSpec& spec, const MarchTest& march,
            const std::vector<std::vector<Fault>>& fault_lists, ResultSink* sink,
            CellCache* cache, CacheStats* cache_stats, const DeadlineGate* gate,
            std::size_t& units_emitted)
      : spec_(spec),
        march_(march),
        fault_lists_(fault_lists),
        sink_(sink),
        cache_(cache),
        cache_stats_(cache_stats),
        gate_(gate),
        units_emitted_(units_emitted),
        regions_(std::max(1u, spec.regions)),
        cells_(spec.schemes.size() * spec.classes.size()) {}

  std::size_t size() const override { return cells_.size(); }

  // Cells whose every record streamed, in spec order.
  std::vector<CellResult> completed() const { return completed_; }

  CampaignCell cell(std::size_t c) override {
    const SchemeKind scheme = spec_.schemes[c / spec_.classes.size()];
    const ClassSel& cls = spec_.classes[c % spec_.classes.size()];
    const std::vector<Fault>& faults = fault_lists_[c % spec_.classes.size()];
    auto state = std::make_unique<State>();
    State& st = *state;
    cells_[c] = std::move(state);
    if (cache_) {
      st.identity = cell_identity_json(spec_, scheme, cls);
      st.key = content_key(st.identity);
    }

    // Stored records of this cell: the whole-cell entry, or else the
    // entries of whichever regions an earlier run settled.  done[r] tells
    // the scheduler which regions to skip.
    st.progress.done.assign(regions_, 0);
    bool whole_hit = false;
    if (cache_) {
      if (auto hit = cache_->lookup(st.key, st.identity);
          hit && replayable(hit->units, faults.size(), faults.size())) {
        st.stored = std::move(hit->units);
        whole_hit = true;
      } else if (regions_ > 1) {
        // Region ownership of this cell's faults (identical to the split
        // the scheduler performs).
        std::vector<unsigned> region_of(faults.size());
        std::vector<std::size_t> owned(regions_, 0);
        for (std::size_t i = 0; i < faults.size(); ++i)
          ++owned[region_of[i] = fault_region(faults[i], spec_.words, regions_)];
        for (unsigned r = 0; r < regions_; ++r) {
          if (owned[r] == 0) {  // nothing to redo, nothing stored
            st.progress.done[r] = 1;
            continue;
          }
          const std::string rid = region_identity_json(st.identity, r, regions_);
          const auto part = cache_->lookup(content_key(rid), rid);
          if (!part || !replayable(part->units, faults.size(), owned[r], &region_of, r))
            continue;
          st.progress.done[r] = 1;
          st.stored.insert(st.stored.end(), part->units.begin(), part->units.end());
        }
      }
    }
    st.simulate = !whole_hit && std::find(st.progress.done.begin(), st.progress.done.end(),
                                          0) != st.progress.done.end();
    // A cell not served whole is stored whole once it completes.
    st.store_whole = cache_ && !whole_hit;
    if (st.store_whole) st.recorded.reserve(faults.size());
    st.adapter = std::make_unique<SinkAdapter>(sink_, scheme, cls, faults, units_emitted_,
                                               st.store_whole ? &st.recorded : nullptr, gate_);

    CampaignCell out;
    out.observer = st.adapter.get();
    if (!st.simulate || faults.empty()) return out;
    out.plan = &plan(scheme);
    out.faults = &faults;
    // Every region that settles becomes its own entry: the region's
    // records are the tail the adapter just recorded.
    if (cache_ && regions_ > 1) {
      st.progress.on_region_done = [this, &st](unsigned r, const std::vector<std::uint32_t>& idx) {
        if (idx.empty() || st.recorded.size() < idx.size()) return;
        const std::string rid = region_identity_json(st.identity, r, regions_);
        cache_->store(content_key(rid), rid,
                      {{st.recorded.end() - static_cast<std::ptrdiff_t>(idx.size()),
                        st.recorded.end()}});
      };
      out.progress = &st.progress;
    }
    return out;
  }

  // Stored records stream first (they settled first in the run that
  // stored them), then the missing regions' live records.
  void reached(std::size_t c) override {
    State& st = *cells_[c];
    if (!st.stored.empty()) {
      st.adapter->replay(st.stored);
      st.adapter->flush();
    }
    if (cache_stats_) {
      ++(st.simulate ? cache_stats_->cells_simulated : cache_stats_->cells_cached);
      cache_stats_->faults_replayed += st.stored.size();
    }
    st.stored = {};
  }

  void drained(std::size_t c) override {
    const std::unique_ptr<State> st = std::move(cells_[c]);
    const std::size_t total = fault_lists_[c % spec_.classes.size()].size();
    if (st->adapter->units_seen() != total) return;
    if (st->store_whole) cache_->store(st->key, st->identity, {std::move(st->recorded)});
    CellResult cell;
    cell.scheme = spec_.schemes[c / spec_.classes.size()];
    cell.cls = spec_.classes[c % spec_.classes.size()];
    cell.outcome = st->adapter->outcome();
    cell.outcome.total = total;
    completed_.push_back(cell);
  }

 private:
  struct State {
    std::string identity, key;
    std::vector<CachedUnit> stored, recorded;
    RegionProgress progress;
    bool simulate = false, store_whole = false;
    std::unique_ptr<SinkAdapter> adapter;
  };

  // One plan per scheme, compiled when a cell of it first simulates.
  const SchemePlan& plan(SchemeKind scheme) {
    for (const auto& [kind, plan] : plans_)
      if (kind == scheme) return *plan;
    plans_.emplace_back(scheme, std::make_unique<SchemePlan>(
                                    make_scheme_plan(scheme, march_, spec_.width)));
    return *plans_.back().second;
  }

  const CampaignSpec& spec_;
  const MarchTest& march_;
  const std::vector<std::vector<Fault>>& fault_lists_;
  ResultSink* sink_;
  CellCache* cache_;
  CacheStats* cache_stats_;
  const DeadlineGate* gate_;
  std::size_t& units_emitted_;
  const unsigned regions_;
  std::vector<std::pair<SchemeKind, std::unique_ptr<SchemePlan>>> plans_;
  std::vector<std::unique_ptr<State>> cells_;  // from cell(c) to drained(c)
  std::vector<CellResult> completed_;
};

// Fewer faults than this build in well under a millisecond on one thread.
constexpr std::uint64_t kParallelListFaults = std::uint64_t{1} << 15;

CampaignSummary run_campaign_impl(const CampaignSpec& spec, ResultSink* sink,
                                  CellCache* cache, CacheStats* cache_stats,
                                  CampaignStats* stats) {
  require_valid(spec);
  const MarchTest march = resolve_march(spec);

  // The deadline clock starts here, after validation: a spec with
  // run.deadline_ms budgets the simulation, not the request parsing.
  std::optional<DeadlineGate> gate_storage;
  if (spec.deadline_ms != 0) gate_storage.emplace(spec.deadline_ms);
  const DeadlineGate* gate = gate_storage ? &*gate_storage : nullptr;

  // The campaign's one worker pool: it builds the class fault lists (one
  // per distinct class selector, shared across schemes), then runs every
  // cell.  Lists build in parallel once they are big enough to pay for
  // starting threads (page faults dominate a large list); smaller ones
  // build on the calling thread, so a campaign the cache serves whole
  // starts no thread at all.
  WorkerPool pool(spec.threads, stats);
  std::vector<std::vector<Fault>> fault_lists(spec.classes.size());
  const auto build = [&](std::size_t c) {
    fault_lists[c] = build_fault_list(spec.classes[c], spec.words, spec.width);
  };
  std::uint64_t planned = 0;
  for (const ClassSel& cls : spec.classes) planned += fault_list_size(cls, spec.words, spec.width);
  if (planned >= kParallelListFaults)
    pool.for_each(spec.classes.size(), build);
  else
    for (std::size_t c = 0; c < spec.classes.size(); ++c) build(c);

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

  const auto t0 = std::chrono::steady_clock::now();
  SpecCells cells(spec, march, fault_lists, sink, cache, cache_stats, gate,
                  summary.units_emitted);
  CampaignRunner(spec.words, spec.width, spec.options()).run_cells(cells, spec.seeds, &pool,
                                                                   stats);
  summary.cells = cells.completed();
  if ((sink && sink->cancelled()) || (gate && gate->expired())) summary.cancelled = true;
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
                             CacheStats* cache_stats, CampaignStats* stats) {
  try {
    return run_campaign_impl(spec, sink, cache, cache_stats, stats);
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
