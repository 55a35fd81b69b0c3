// twm_trace — the benchmark's traced per-layer driver.
//
// Runs one campaign spec through libtwm's public calls, one layer at a
// time, and times each call from the outside:
//
//   api      spec_from_json, validate, build_fault_list, run_campaign
//            (with a forwarding sink around JsonLinesSink and a forwarding
//            CellCache around service::ResultCache)
//   core     make_scheme_plan
//   analysis collapse_faults, CampaignRunner::run (counting UnitObserver,
//            CampaignStats, RegionProgress timestamps)
//
// Spans are kept in memory and written as Chrome trace-event JSON
// (chrome://tracing, Perfetto) when the run ends.  The per-layer metrics
// and the verdict digest of every pass go to stdout as one JSON object.
// The first thing after parsing is a traced run_campaign that does what
// `twm_cli run --sink jsonl` does (no cache, records streamed to stdout),
// so the caller can time launch -> its campaign_end record against an
// untraced `twm_cli run` of the same spec.  The metrics object is the last
// line of stdout.
//
//   twm_trace SPEC.json --spans OUT.json --scratch DIR
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "api/spec.h"
#include "core/scheme_session.h"
#include "core/simd.h"
#include "service/cache.h"

namespace {

using namespace twm;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double since_start(Clock::time_point t) {
  return std::chrono::duration<double>(t - g_start).count();
}
double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- spans ---------------------------------------------------------------

struct Span {
  std::string name;
  int id = 0, parent = 0;
  double start = 0, end = 0;  // seconds since process start
  std::map<std::string, double> args;
};

class Tracer {
 public:
  int begin(const std::string& name, int parent = 0) {
    return add(name, parent, Clock::now(), Clock::now());
  }
  // A span whose interval is already known.
  int add(const std::string& name, int parent, Clock::time_point start, Clock::time_point end) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = parent;
    s.start = since_start(start);
    s.end = since_start(end);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  // Returns the span's duration in seconds.
  double end(int id) {
    Span& s = spans_[id - 1];
    s.end = since_start(Clock::now());
    return s.end - s.start;
  }
  void arg(int id, const std::string& key, double value) { spans_[id - 1].args[key] = value; }

  // Chrome trace-event JSON: one complete ("X") event per span; the
  // causing span's id is carried in args.parent.
  void write(const std::string& path, const std::string& trace_id) const {
    std::ofstream out(path);
    out.precision(15);  // microsecond timestamps past 1 s need more than 6 digits
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << api::json_quote(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start * 1e6
          << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"trace\":" << api::json_quote(trace_id);
      for (const auto& [k, v] : s.args) out << "," << api::json_quote(k) << ":" << v;
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
};

Tracer g_tracer;

// ---- verdict digest --------------------------------------------------------
//
// CRC-32 (IEEE, zlib's) over the sorted "scheme\tclass\tfault\tA\tY\n" lines
// of every unit verdict — the same text run.py builds from a JSON-lines
// stream, so the two sides compare with zlib.crc32.  Rendered "crc-count".

std::uint32_t crc32(const std::string& data) {
  static std::uint32_t table[256];
  static bool ready = false;
  if (!ready) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    ready = true;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char ch : data) crc = table[(crc ^ ch) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

struct Verdict {
  std::string scheme, cls;
  std::uint64_t fault;
  bool all, any;
};

std::string digest(std::vector<Verdict> v) {
  std::sort(v.begin(), v.end(), [](const Verdict& a, const Verdict& b) {
    return std::tie(a.scheme, a.cls, a.fault) < std::tie(b.scheme, b.cls, b.fault);
  });
  std::string text;
  for (const Verdict& x : v)
    text += x.scheme + "\t" + x.cls + "\t" + std::to_string(x.fault) + "\t" +
            (x.all ? "1" : "0") + "\t" + (x.any ? "1" : "0") + "\n";
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc32(text));
  return std::string(buf) + "-" + std::to_string(v.size());
}

// ---- forwarding wrappers ---------------------------------------------------

// Times every call into the inner sink.  Per-record calls are accumulated,
// not spanned, so the span file stays small on 151k-record campaigns.
class TimingSink : public api::ResultSink {
 public:
  explicit TimingSink(api::ResultSink& inner) : inner_(inner) {}

  void on_campaign_begin(const api::CampaignMeta& meta) override {
    const auto t = Clock::now();
    inner_.on_campaign_begin(meta);
    seconds_ += seconds(t, Clock::now());
  }
  void on_unit(const api::UnitRecord& r) override {
    const auto t = Clock::now();
    inner_.on_unit(r);
    seconds_ += seconds(t, Clock::now());
    ++records_;
    verdicts_.push_back({api::scheme_id(r.scheme), api::to_string(r.cls), r.fault_index,
                         r.detected_all, r.detected_any});
  }
  void on_campaign_end(const api::CampaignSummary& s) override {
    const auto t = Clock::now();
    inner_.on_campaign_end(s);
    seconds_ += seconds(t, Clock::now());
  }
  void on_error(const api::Error& e) override { inner_.on_error(e); }

  double seconds_ = 0;
  std::uint64_t records_ = 0;
  std::vector<Verdict> verdicts_;

 private:
  api::ResultSink& inner_;
};

// Times lookups and stores on the wrapped cache (one span each: a cell is
// the cache grain, so there are few).
class TimingCache : public api::CellCache {
 public:
  TimingCache(api::CellCache& inner, int parent) : inner_(inner), parent_(parent) {}

  std::optional<api::CellRecords> lookup(const std::string& key,
                                         const std::string& identity) override {
    const int span = g_tracer.begin("service.cache_lookup", parent_);
    auto hit = inner_.lookup(key, identity);
    lookup_s += g_tracer.end(span);
    g_tracer.arg(span, "hit", hit ? 1 : 0);
    (hit ? hits : misses) += 1;
    return hit;
  }
  void store(const std::string& key, const std::string& identity,
             const api::CellRecords& records) override {
    const int span = g_tracer.begin("service.cache_store", parent_);
    inner_.store(key, identity, records);
    store_s += g_tracer.end(span);
  }

  void reparent(int parent) { parent_ = parent; }

  double lookup_s = 0, store_s = 0;
  std::uint64_t hits = 0, misses = 0;

 private:
  api::CellCache& inner_;
  int parent_;
};

// Counts settled units and stamps the first one.  Called from worker
// threads.
class CountingObserver : public UnitObserver {
 public:
  void on_unit_settled(std::size_t, unsigned count, const char*, const char*) override {
    settled.fetch_add(count, std::memory_order_relaxed);
    bool expected = false;
    if (seen_first.compare_exchange_strong(expected, true)) first = Clock::now();
  }
  std::atomic<std::uint64_t> settled{0};
  std::atomic<bool> seen_first{false};
  Clock::time_point first;
};

// ---- the analysis pass -----------------------------------------------------

struct AnalysisResult {
  double run_s = 0, first_unit_s = -1, region_s_max = 0;
  std::string digest;
};

// CampaignRunner::run over every scheme x class cell, as api::run_campaign
// schedules them.  `stats` may be null; region timestamps are taken only
// when the options shard regions.
AnalysisResult analysis_pass(const std::string& label, const api::CampaignSpec& spec,
                             const CoverageOptions& options, const MarchTest& march,
                             const std::vector<std::vector<Fault>>& lists,
                             CampaignStats* stats) {
  AnalysisResult out;
  const CampaignRunner runner(spec.words, spec.width, options);
  std::vector<Verdict> verdicts;
  const int pass_span = g_tracer.begin(label);
  for (SchemeKind scheme : spec.schemes) {
    for (std::size_t c = 0; c < spec.classes.size(); ++c) {
      const int span = g_tracer.begin("analysis.run", pass_span);
      CountingObserver observer;
      std::vector<char> all, any;
      RegionProgress progress;
      Clock::time_point last = Clock::now();
      if (options.regions > 1) {
        progress.done.assign(options.regions, 0);
        progress.on_region_done = [&](unsigned r, const std::vector<std::uint32_t>& idx) {
          const auto now = Clock::now();
          const int rs = g_tracer.add("analysis.region", span, last, now);
          g_tracer.arg(rs, "region", r);
          g_tracer.arg(rs, "faults", static_cast<double>(idx.size()));
          out.region_s_max = std::max(out.region_s_max, seconds(last, now));
          last = now;
        };
      }
      const auto t0 = Clock::now();
      runner.run(scheme, march, lists[c], spec.seeds, /*need_any=*/true, all, any, nullptr,
                 &observer, stats, options.regions > 1 ? &progress : nullptr);
      const double dt = g_tracer.end(span);
      out.run_s += dt;
      if (observer.seen_first && out.first_unit_s < 0)
        out.first_unit_s = seconds(t0, observer.first);
      g_tracer.arg(span, "faults", static_cast<double>(lists[c].size()));
      g_tracer.arg(span, "units_settled", static_cast<double>(observer.settled.load()));
      for (std::size_t i = 0; i < lists[c].size(); ++i)
        verdicts.push_back({api::scheme_id(scheme), api::to_string(spec.classes[c]), i,
                            all[i] != 0, any[i] != 0});
    }
  }
  g_tracer.end(pass_span);
  if (options.regions <= 1) out.region_s_max = out.run_s;
  out.digest = digest(std::move(verdicts));
  return out;
}

std::string flag(const std::vector<std::string>& args, const std::string& name,
                 const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i)
    if (args[i] == name) return args[i + 1];
  return fallback;
}

// The lane widths every traced run sweeps at regions 1.
const char* const kWidths[] = {"64", "256", "512", "tiled:4096"};

std::string width_label(const std::string& w) {
  return w.rfind("tiled:", 0) == 0 ? "tiled" + w.substr(6) : "w" + w;
}

int run(const std::vector<std::string>& args) {
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    std::cerr << "usage: twm_trace SPEC.json --spans OUT.json --scratch DIR\n";
    return 1;
  }
  const std::string spans_path = flag(args, "--spans", "spans.json");
  const std::filesystem::path scratch = flag(args, "--scratch", ".");
  std::filesystem::create_directories(scratch);

  std::map<std::string, double> m;
  std::map<std::string, std::string> digests;

  // api: parse + validate.
  std::ifstream in(args[0]);
  std::stringstream text;
  text << in.rdbuf();
  int span = g_tracer.begin("api.spec_from_json");
  const api::CampaignSpec spec = api::spec_from_json(text.str());
  m["api.spec_parse_s"] = g_tracer.end(span);
  span = g_tracer.begin("api.validate");
  const auto errors = api::validate(spec);
  m["api.validate_s"] = g_tracer.end(span);
  if (!errors.empty()) {
    for (const auto& e : errors) std::cerr << "error: " << api::to_string(e) << "\n";
    return 1;
  }
  const MarchTest march = api::resolve_march(spec);

  // api: the traced run_campaign.  It does what `twm_cli run --sink jsonl`
  // does (no cache, JSON-lines to stdout) with the sink calls timed, and it
  // comes first, so launch -> its campaign_end record covers the same work
  // as the same interval of an untraced `twm_cli run`.
  {
    api::JsonLinesSink json(std::cout);
    TimingSink sink(json);
    span = g_tracer.begin("api.run_campaign");
    api::run_campaign(spec, &sink);
    m["api.run_campaign_s"] = g_tracer.end(span);
    g_tracer.arg(span, "sink_s", sink.seconds_);
    g_tracer.arg(span, "sink_records", static_cast<double>(sink.records_));
    m["api.sink_s"] = sink.seconds_;
    m["api.sink_records"] = static_cast<double>(sink.records_);
    digests["run_campaign"] = digest(std::move(sink.verdicts_));
  }

  // api: fault lists, one per class selector (run_campaign shares them
  // across schemes the same way).
  std::vector<std::vector<Fault>> lists;
  double faults = 0;
  m["api.fault_list_s"] = 0;
  for (const api::ClassSel& cls : spec.classes) {
    span = g_tracer.begin("api.build_fault_list");
    lists.push_back(api::build_fault_list(cls, spec.words, spec.width));
    m["api.fault_list_s"] += g_tracer.end(span);
    g_tracer.arg(span, "faults", static_cast<double>(lists.back().size()));
    faults += static_cast<double>(lists.back().size());
  }
  m["api.faults"] = faults;

  // core: one plan per scheme.
  std::vector<SchemePlan> plans;
  m["core.plan_s"] = 0;
  for (SchemeKind scheme : spec.schemes) {
    span = g_tracer.begin("core.make_scheme_plan");
    plans.push_back(make_scheme_plan(scheme, march, spec.width));
    m["core.plan_s"] += g_tracer.end(span);
  }

  // service: run_campaign over a disk-backed ResultCache, once cold (every
  // cell stored) and once warm (every cell replayed), records to a file.
  const std::filesystem::path cache_dir = scratch / "cache";
  std::filesystem::remove_all(cache_dir);
  const std::filesystem::path sink_path = scratch / "replay.jsonl";
  {
    service::ResultCache result_cache({cache_dir.string(), 256});
    std::ofstream sink_file(sink_path);
    api::JsonLinesSink json(sink_file);
    TimingCache cache(result_cache, 0);
    api::CacheStats cs;
    for (const std::string pass : {"cold", "replay"}) {
      TimingSink sink(json);
      span = g_tracer.begin("api.run_campaign.cache_" + pass);
      cache.reparent(span);
      api::run_campaign(spec, &sink, &cache, &cs);
      const double dt = g_tracer.end(span);
      if (pass == "replay") m["api.replay_s"] = dt;
      digests["cache_" + pass] = digest(std::move(sink.verdicts_));
    }
    m["service.cache_lookup_s"] = cache.lookup_s;
    m["service.cache_store_s"] = cache.store_s;
    m["service.cache_hits"] = static_cast<double>(cache.hits);
    m["service.cache_misses"] = static_cast<double>(cache.misses);
  }
  std::filesystem::remove(sink_path);
  std::filesystem::remove_all(cache_dir);

  // analysis: collapse, as the repack scheduler applies it per cell.
  double reps = 0, collapsed_faults = 0;
  m["analysis.collapse_s"] = 0;
  for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
    for (std::size_t c = 0; c < lists.size(); ++c) {
      span = g_tracer.begin("analysis.collapse_faults");
      const FaultCollapse fc = collapse_faults(lists[c], plans[s], spec.seeds);
      m["analysis.collapse_s"] += g_tracer.end(span);
      reps += static_cast<double>(fc.representatives.size());
      collapsed_faults += static_cast<double>(lists[c].size());
    }
  }
  m["analysis.collapse_ratio"] = collapsed_faults ? reps / collapsed_faults : 1.0;

  // analysis: the engine itself, with the scheduler's counters.
  CampaignStats stats;
  const AnalysisResult main =
      analysis_pass("analysis.pass", spec, spec.options(), march, lists, &stats);
  // Process-wide reading of the static-lib counter: plans built inside
  // twm_wide's own copy of libtwm are not in it.
  m["core.plans_built"] = static_cast<double>(scheme_plan_build_count());
  m["analysis.run_s"] = main.run_s;
  m["analysis.first_unit_s"] = main.first_unit_s;
  digests["analysis"] = main.digest;
  const simd::Width resolved = simd::resolve(spec.simd);
  m["analysis.units"] = static_cast<double>(stats.units.load());
  m["analysis.lane_occupancy"] =
      stats.mean_live_lanes() / static_cast<double>(simd::lanes(resolved) - 1);
  m["analysis.element_exec_frac"] =
      stats.elements_total.load() ? static_cast<double>(stats.elements_executed.load()) /
                                        static_cast<double>(stats.elements_total.load())
                                  : 0.0;
  m["analysis.faults_simulated"] = static_cast<double>(stats.faults_simulated.load());
  m["memsim.pages_peak"] = static_cast<double>(stats.pages_peak.load());
  m["memsim.packed_pages_peak"] = static_cast<double>(stats.packed_pages_peak.load());
  m["memsim.page_allocs"] = static_cast<double>(stats.page_allocs.load());
  m["api.overhead_s"] = m["api.run_campaign_s"] - main.run_s - m["api.sink_s"];

  // Determinism: a second identical pass, whose exact counters run.py
  // compares with the first.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> repeat_counts;
  {
    CampaignStats again;
    const AnalysisResult repeat =
        analysis_pass("analysis.repeat_pass", spec, spec.options(), march, lists, &again);
    digests["analysis_repeat"] = repeat.digest;
    const auto pair = [](const std::atomic<std::uint64_t>& a,
                         const std::atomic<std::uint64_t>& b) {
      return std::make_pair(a.load(), b.load());
    };
    repeat_counts = {
        {"analysis.units", pair(stats.units, again.units)},
        {"analysis.lane_slots", pair(stats.lane_slots, again.lane_slots)},
        {"analysis.faults_simulated", pair(stats.faults_simulated, again.faults_simulated)},
        {"analysis.elements_total", pair(stats.elements_total, again.elements_total)},
        {"analysis.elements_executed", pair(stats.elements_executed, again.elements_executed)},
        {"memsim.pages_peak", pair(stats.pages_peak, again.pages_peak)},
        {"memsim.packed_pages_peak", pair(stats.packed_pages_peak, again.packed_pages_peak)},
        {"memsim.page_allocs", pair(stats.page_allocs, again.page_allocs)},
    };
  }

  // analysis: the region penalty — run_s at 4 regions over run_s at 1 (the
  // workload's own count supplies whichever side it already is).
  const bool sharded = spec.regions > 1;
  CoverageOptions alt = spec.options();
  alt.regions = sharded ? 1 : 4;
  const AnalysisResult other =
      analysis_pass("analysis.regions_pass", spec, alt, march, lists, nullptr);
  digests["regions_alt"] = other.digest;
  const AnalysisResult& flat = sharded ? other : main;
  m["analysis.region_penalty"] = (sharded ? main.run_s : other.run_s) / flat.run_s;
  m["analysis.region_s_max"] = sharded ? main.region_s_max : other.region_s_max;

  // analysis: the same cells at every lane width, at regions 1 so
  // the width is the only change.  The auto width reuses the flat pass.
  for (const std::string w : kWidths) {
    const auto req = simd::parse_request(w);
    simd::Width target = resolved;
    try {
      target = simd::resolve(*req);
    } catch (const std::runtime_error&) {
      continue;  // this CPU cannot run the forced width; its metric is absent
    }
    AnalysisResult r = flat;
    if (target != resolved) {
      CoverageOptions opt = spec.options();
      opt.regions = 1;
      opt.simd = *req;
      r = analysis_pass("analysis.width." + w, spec, opt, march, lists, nullptr);
    }
    m["analysis.run_s." + width_label(w)] = r.run_s;
    digests["width." + width_label(w)] = r.digest;
  }

  g_tracer.write(spans_path, spec.name);

  std::cout << "{\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    std::cout << (first ? "" : ",") << api::json_quote(k) << ":" << v;
    first = false;
  }
  std::cout << "},\"digests\":{";
  first = true;
  for (const auto& [k, v] : digests) {
    std::cout << (first ? "" : ",") << api::json_quote(k) << ":" << api::json_quote(v);
    first = false;
  }
  std::cout << "},\"repeat_counts\":{";
  first = true;
  for (const auto& [k, v] : repeat_counts) {
    std::cout << (first ? "" : ",") << api::json_quote(k) << ":[" << v.first << "," << v.second
              << "]";
    first = false;
  }
  std::cout << "},\"resolved_simd\":" << simd::lanes(resolved) << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout.precision(17);  // metrics with every digit a double carries
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << "twm_trace: " << e.what() << "\n";
    return 1;
  }
}
