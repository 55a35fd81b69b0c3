#include "cli/cli.h"

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include <algorithm>
#include <chrono>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "analysis/lint.h"
#include "analysis/report.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "api/spec.h"
#include "bist/engine.h"
#include "core/complexity.h"
#include "core/scheme1.h"
#include "core/simd.h"
#include "core/symmetric.h"
#include "core/twm_ta.h"
#include "explore/explore.h"
#include "explore/spec.h"
#include "march/library.h"
#include "march/printer.h"
#include "memsim/memory.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/table.h"

namespace twm {
namespace {

struct Options {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;      // --key value
  std::vector<std::string> faults;               // repeated --fault specs
};

// Flags that take no value ("--json" on simd, "--stats"/"--shutdown" on
// submit).
bool is_bool_flag(const std::string& flag) {
  return flag == "--json" || flag == "--stats" || flag == "--shutdown";
}

std::optional<Options> parse_args(const std::vector<std::string>& args, std::ostream& err) {
  Options o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      o.positional.push_back(a);
      continue;
    }
    if (is_bool_flag(a)) {
      o.flags[a.substr(2)] = "";
      continue;
    }
    if (i + 1 >= args.size()) {
      err << "error: flag " << a << " needs a value\n";
      return std::nullopt;
    }
    const std::string value = args[++i];
    if (a == "--fault")
      o.faults.push_back(value);
    else
      o.flags[a.substr(2)] = value;
  }
  return o;
}

// The flags each command reads (space-separated).  Anything else is a
// typo or a stale flag and is rejected, not silently ignored; the global
// --failpoints is accepted everywhere.
const std::map<std::string, std::string>& command_flags() {
  static const std::string coverage =
      "width words threads backend simd schedule regions scheme seeds classes";
  static const std::map<std::string, std::string> flags = {
      {"list", ""},
      {"show", ""},
      {"transform", "width scheme"},
      {"complexity", "width"},
      {"simulate", "width words seed fault"},
      {"coverage", coverage},
      {"spec", coverage + " name"},
      {"run", "sink out regions deadline-ms cache-dir"},
      {"explore", "out resume threads rounds stop-after"},
      {"simd", "json"},
      {"serve", "host port cache-dir cache-entries max-clients idle-timeout-ms"},
      {"submit", "host port retries backoff-ms stats shutdown"}};
  return flags;
}

bool flags_known(const Options& o, const std::string& cmd, std::ostream& err) {
  const std::string allowed = " " + command_flags().at(cmd) + " failpoints ";
  std::vector<std::string> given;
  for (const auto& [flag, value] : o.flags) given.push_back(flag);
  if (!o.faults.empty()) given.push_back("fault");
  for (const std::string& flag : given) {
    if (allowed.find(" " + flag + " ") == std::string::npos) {
      err << "error: unknown flag --" << flag << " for " << cmd << "\n";
      return false;
    }
  }
  return true;
}

std::optional<unsigned> flag_unsigned(const Options& o, const std::string& key,
                                      std::optional<unsigned> fallback, std::ostream& err) {
  auto it = o.flags.find(key);
  if (it == o.flags.end()) {
    if (!fallback) err << "error: --" << key << " is required\n";
    return fallback;
  }
  try {
    const std::uint64_t v = std::stoull(it->second);
    if (v <= UINT32_MAX) return static_cast<unsigned>(v);
    err << "error: --" << key << " must fit 32 bits, got '" << it->second << "'\n";
  } catch (const std::exception&) {
    err << "error: --" << key << " expects a number, got '" << it->second << "'\n";
  }
  return std::nullopt;
}

// Full-range variant for quantities that exceed 32 bits on huge-memory
// campaigns (--words on a 16M+-word geometry is routine).
std::optional<std::uint64_t> flag_u64(const Options& o, const std::string& key,
                                      std::optional<std::uint64_t> fallback,
                                      std::ostream& err) {
  auto it = o.flags.find(key);
  if (it == o.flags.end()) {
    if (!fallback) err << "error: --" << key << " is required\n";
    return fallback;
  }
  try {
    return static_cast<std::uint64_t>(std::stoull(it->second));
  } catch (const std::exception&) {
    err << "error: --" << key << " expects a number, got '" << it->second << "'\n";
    return std::nullopt;
  }
}

// Parses "saf:W.B=V", "tf:W.B=u|d", "ret:W.B=V".
std::optional<Fault> parse_fault(const std::string& spec, std::ostream& err) {
  const auto colon = spec.find(':');
  const auto dot = spec.find('.');
  const auto eq = spec.find('=');
  if (colon == std::string::npos || dot == std::string::npos || eq == std::string::npos ||
      !(colon < dot && dot < eq)) {
    err << "error: bad fault spec '" << spec << "' (want kind:word.bit=value)\n";
    return std::nullopt;
  }
  try {
    const std::string kind = spec.substr(0, colon);
    const std::uint64_t word = std::stoull(spec.substr(colon + 1, dot - colon - 1));
    const std::uint64_t bit = std::stoull(spec.substr(dot + 1, eq - dot - 1));
    if (word > UINT32_MAX || bit > UINT32_MAX) {
      err << "error: bad fault spec '" << spec << "' (word and bit must fit 32 bits)\n";
      return std::nullopt;
    }
    const CellAddr cell{static_cast<std::uint32_t>(word), static_cast<std::uint32_t>(bit)};
    const std::string val = spec.substr(eq + 1);
    if (kind == "saf") return Fault::saf(cell, val == "1");
    if (kind == "tf") return Fault::tf(cell, val == "u" ? Transition::Up : Transition::Down);
    if (kind == "ret") return Fault::ret(cell, val == "1", 1);
    err << "error: unknown fault kind '" << kind << "'\n";
    return std::nullopt;
  } catch (const std::exception&) {
    err << "error: bad fault spec '" << spec << "'\n";
    return std::nullopt;
  }
}

int cmd_list(std::ostream& out) {
  Table t({"march", "S", "Q", "capabilities", "origin"});
  for (const auto& info : march_catalog()) {
    const MarchLint lint = lint_march(march_by_name(info.name));
    t.add_row({info.name, std::to_string(info.ops), std::to_string(info.reads), lint.summary(),
               info.reference});
  }
  t.print(out);
  return 0;
}

int cmd_show(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: show <march>\n";
    return 1;
  }
  const MarchTest m = march_by_name(o.positional[1]);
  out << to_string(m) << "\n";
  out << "lint: " << lint_march(m).summary() << "\n";
  return 0;
}

int cmd_transform(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: transform <march> --width B [--scheme twm|s1|sym]\n";
    return 1;
  }
  const auto width = flag_unsigned(o, "width", std::nullopt, err);
  if (!width) return 1;
  const MarchTest m = march_by_name(o.positional[1]);
  const auto scheme_it = o.flags.find("scheme");
  const std::string scheme = scheme_it == o.flags.end() ? "twm" : scheme_it->second;

  if (scheme == "twm" || scheme == "sym") {
    const TwmResult r = twm_transform(m, *width);
    out << to_string(r.tsmarch) << "\n" << to_string(r.atmarch) << "\n";
    if (scheme == "sym") {
      const SymmetricTest st = symmetrize(r.twmarch, *width);
      out << to_string(st.test) << "\n";
      out << "expected signature constant (per odd N): " << st.mask_xor.to_string() << "\n";
      out << "TCM=" << st.test.op_count() << "N TCP=0\n";
    } else {
      out << "prediction: " << to_string(r.prediction) << "\n";
      out << "TCM=" << r.twmarch.op_count() << "N TCP=" << r.prediction.op_count() << "N\n";
    }
    return 0;
  }
  if (scheme == "s1") {
    const Scheme1Result r = scheme1_transform(m, *width);
    out << to_string(r.transparent) << "\n";
    out << "TCM=" << r.transparent.op_count() << "N TCP=" << r.prediction.op_count() << "N\n";
    return 0;
  }
  err << "error: unknown scheme '" << scheme << "'\n";
  return 1;
}

int cmd_complexity(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: complexity <march> --width B\n";
    return 1;
  }
  const auto width = flag_unsigned(o, "width", std::nullopt, err);
  if (!width) return 1;
  const auto& info = march_info(o.positional[1]);
  const MarchTest m = march_by_name(info.name);

  Table t({"scheme", "TCM (formula)", "TCP (formula)", "TCM (measured)", "TCP (measured)"});
  const auto p = formula_proposed(info.ops, info.reads, *width);
  const auto mp = measured_proposed(m, *width);
  t.add_row({"this work", coeff_str(p.tcm), coeff_str(p.tcp), coeff_str(mp.tcm),
             coeff_str(mp.tcp)});
  const auto s1 = formula_scheme1(info.ops, info.reads, *width);
  const auto ms1 = measured_scheme1(m, *width);
  t.add_row({"scheme 1 [12]", coeff_str(s1.tcm), coeff_str(s1.tcp), coeff_str(ms1.tcm),
             coeff_str(ms1.tcp)});
  const auto s2 = formula_tomt(*width);
  t.add_row({"scheme 2 [13]", coeff_str(s2.tcm), "0", coeff_str(measured_tomt(*width).tcm), "0"});
  t.print(out);
  return 0;
}

int cmd_simulate(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: simulate <march> --width B --words N [--seed S] [--fault kind:w.b=v]...\n";
    return 1;
  }
  const auto width = flag_unsigned(o, "width", std::nullopt, err);
  const auto words = flag_unsigned(o, "words", std::nullopt, err);
  if (!width || !words) return 1;
  const auto seed = flag_unsigned(o, "seed", 1u, err);
  if (!seed) return 1;

  Memory mem(*words, *width);
  mem.fill_seeded(*seed);
  for (const auto& spec : o.faults) {
    const auto f = parse_fault(spec, err);
    if (!f) return 1;
    mem.inject(*f);
    out << "injected: " << f->describe() << "\n";
  }
  const auto snapshot = mem.snapshot();

  const TwmResult r = twm_transform(march_by_name(o.positional[1]), *width);
  MarchRunner runner(mem);
  const auto res = runner.run_transparent_session(r.twmarch, r.prediction, *width);
  out << "session: " << (r.twmarch.op_count() + r.prediction.op_count()) << " ops/word x "
      << *words << " words\n";
  out << "verdict: " << (res.detected_misr ? "FAULT DETECTED" : "clean") << "  (signatures "
      << res.signature_predicted.to_string() << " / " << res.signature_observed.to_string()
      << ")\n";
  out << "contents preserved: " << (mem.equals(snapshot) ? "yes" : "no (fault distorted them)")
      << "\n";
  return res.detected_misr ? 2 : 0;
}

// The packed backend's lane width.  Kept for scripts that probed it before
// placing a campaign: there is one width, 64 lanes, on every host.
int cmd_simd(const Options& o, std::ostream& out) {
  const unsigned lanes = simd::lanes(simd::Width::W64);
  if (o.flags.count("json")) {
    out << "{\"widths\":[{\"width\":" << lanes << ",\"supported\":true}],\"best\":" << lanes
        << "}\n";
    return 0;
  }
  out << "lanes: " << lanes << "\n";
  return 0;
}

// Assembles the CampaignSpec a coverage-style command line denotes.  Flag
// spelling errors are reported here with their flag names; semantic
// problems (unknown march, zero geometry) are left for api::validate().
std::optional<api::CampaignSpec> spec_from_flags(const Options& o, std::ostream& err) {
  api::CampaignSpec spec;
  if (o.positional.size() >= 2) spec.march = o.positional[1];
  const auto width = flag_unsigned(o, "width", std::nullopt, err);
  const auto words = flag_u64(o, "words", std::nullopt, err);
  if (!width || !words) return std::nullopt;
  spec.width = *width;
  spec.words = static_cast<std::size_t>(*words);

  const auto threads = flag_unsigned(o, "threads", 1u, err);
  if (!threads) return std::nullopt;
  if (*threads == 0) {
    err << "error: --threads must be at least 1\n";
    return std::nullopt;
  }
  spec.threads = *threads;

  if (auto it = o.flags.find("backend"); it != o.flags.end()) {
    const auto backend = api::parse_backend(it->second);
    if (!backend) {
      err << "error: unknown backend '" << it->second << "' (want scalar|packed)\n";
      return std::nullopt;
    }
    spec.backend = *backend;
  }

  // Accepted for older command lines and echoed by campaign_begin; every
  // value runs at 64 lanes.
  if (auto it = o.flags.find("simd"); it != o.flags.end()) {
    const auto req = simd::parse_request(it->second);
    if (!req) {
      err << "error: unknown simd width '" << it->second
          << "' (want auto|64|256|512|tiled[:4096])\n";
      return std::nullopt;
    }
    spec.simd = *req;
  }

  // Accepted for older command lines, like "schedule" in spec files.
  if (auto it = o.flags.find("schedule"); it != o.flags.end() && it->second != "repack") {
    err << "error: unknown schedule '" << it->second << "' (repack is the only scheduler)\n";
    return std::nullopt;
  }

  if (o.flags.count("regions")) {
    const auto regions = flag_unsigned(o, "regions", std::nullopt, err);
    if (!regions) return std::nullopt;
    spec.regions = *regions;  // range/power-of-two vetting is validate()'s
  }

  const auto scheme_it = o.flags.find("scheme");
  const std::string scheme_name = scheme_it == o.flags.end() ? "twm" : scheme_it->second;
  const auto schemes = api::parse_schemes(scheme_name);
  if (!schemes) {
    err << "error: unknown scheme '" << scheme_name
        << "' (want twm|twm-misr|sym|tsmarch|s1|tomt|ref|womarch|all)\n";
    return std::nullopt;
  }
  spec.schemes = *schemes;

  spec.seeds = {0, 1, 2};
  if (auto it = o.flags.find("seeds"); it != o.flags.end()) {
    std::string bad_token;
    const auto seeds = api::parse_seeds(it->second, &bad_token);
    if (!seeds) {
      err << "error: --seeds expects comma-separated numbers, got '" << bad_token << "'\n";
      return std::nullopt;
    }
    if (seeds->empty()) {
      err << "error: --seeds needs at least one seed\n";
      return std::nullopt;
    }
    spec.seeds = *seeds;
  }

  std::string class_csv = "saf,tf,cfst,cfid,cfin";
  if (auto it = o.flags.find("classes"); it != o.flags.end()) class_csv = it->second;
  const auto classes = api::parse_classes(class_csv);
  if (!classes) {
    err << "error: unknown fault class in '" << class_csv
        << "' (want saf|tf|ret|cfst|cfid|cfin|af, CFs optionally :inter|:intra)\n";
    return std::nullopt;
  }
  spec.classes = *classes;
  return spec;
}

// Prints every validation finding as "error: path: message"; true when the
// spec is clean.
bool report_spec_errors(const api::CampaignSpec& spec, std::ostream& err) {
  const auto errors = api::validate(spec);
  for (const api::SpecError& e : errors) err << "error: " << api::to_string(e) << "\n";
  return errors.empty();
}

int cmd_coverage(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: coverage <march> --width B --words N [--scheme S|all] [--classes C,..]\n"
           "                [--seeds 0,1,2] [--backend scalar|packed] [--threads T]\n"
           "                [--simd auto|64|256|512|tiled[:4096]] [--regions N]\n";
    return 1;
  }
  const auto spec = spec_from_flags(o, err);
  if (!spec) return 1;
  if (!report_spec_errors(*spec, err)) return 1;
  api::TableSink sink(out);
  api::run_campaign(*spec, &sink);
  return 0;
}

// The migration bridge: print the CampaignSpec a coverage command line
// denotes, ready to be stored and replayed with `run`.
int cmd_spec(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: spec <march> --width B --words N [coverage flags...] [--name LABEL]\n";
    return 1;
  }
  auto spec = spec_from_flags(o, err);
  if (!spec) return 1;
  if (auto it = o.flags.find("name"); it != o.flags.end()) spec->name = it->second;
  if (!report_spec_errors(*spec, err)) return 1;
  out << api::to_json(*spec) << "\n";
  return 0;
}

int cmd_run(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: run <spec.json> [--sink jsonl|csv|table] [--out F]\n"
           "           [--regions N] [--deadline-ms T] [--cache-dir D]\n";
    return 1;
  }
  const std::string& path = o.positional[1];
  std::ifstream in(path);
  if (!in) {
    err << "error: cannot read spec file '" << path << "'\n";
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  std::vector<api::CampaignSpec> specs;
  try {
    specs = api::specs_from_json(text.str());
  } catch (const api::SpecValidationError& e) {
    for (const api::SpecError& se : e.errors())
      err << "error: " << path << ": " << api::to_string(se) << "\n";
    return 1;
  } catch (const api::JsonParseError& e) {
    err << "error: " << path << ": " << e.what() << "\n";
    return 1;
  }
  if (specs.empty()) {
    err << "error: " << path << ": batch contains no specs\n";
    return 1;
  }

  // --regions overrides the spec's run.regions (handy for sweeping the
  // shard count over a stored spec without editing it).
  if (o.flags.count("regions")) {
    const auto regions = flag_unsigned(o, "regions", std::nullopt, err);
    if (!regions) return 1;
    for (api::CampaignSpec& spec : specs) spec.regions = *regions;
  }
  // --deadline-ms overrides run.deadline_ms the same way (0 clears it).
  if (o.flags.count("deadline-ms")) {
    const auto deadline = flag_u64(o, "deadline-ms", std::nullopt, err);
    if (!deadline) return 1;
    for (api::CampaignSpec& spec : specs) spec.deadline_ms = *deadline;
  }

  bool valid = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (const api::SpecError& e : api::validate(specs[i])) {
      err << "error: " << path << ": "
          << (specs.size() > 1 ? "spec[" + std::to_string(i) + "]." : "") << api::to_string(e)
          << "\n";
      valid = false;
    }
  }
  if (!valid) return 1;

  std::string sink_name = "table";
  if (auto it = o.flags.find("sink"); it != o.flags.end()) sink_name = it->second;
  if (sink_name != "jsonl" && sink_name != "csv" && sink_name != "table") {
    err << "error: unknown sink '" << sink_name << "' (want jsonl|csv|table)\n";
    return 1;
  }
  // --cache-dir: the daemon's disk-backed result cache.  Completed cells
  // replay and every settled region is stored, so an interrupted run of
  // the same spec resumes where it stopped.
  std::optional<service::ResultCache> cache;
  if (auto it = o.flags.find("cache-dir"); it != o.flags.end())
    cache.emplace(service::ResultCache::Config{it->second});
  // Only open (and truncate) --out once the command line is fully vetted —
  // a rejected invocation must not clobber a previous run's output.
  std::ofstream file_out;
  std::ostream* dest = &out;
  if (auto it = o.flags.find("out"); it != o.flags.end()) {
    file_out.open(it->second);
    if (!file_out) {
      err << "error: cannot write '" << it->second << "'\n";
      return 1;
    }
    dest = &file_out;
  }

  std::unique_ptr<api::ResultSink> sink;
  if (sink_name == "jsonl")
    sink = std::make_unique<api::JsonLinesSink>(*dest);
  else if (sink_name == "csv")
    sink = std::make_unique<api::CsvSink>(*dest);
  else
    sink = std::make_unique<api::TableSink>(*dest);

  for (const api::CampaignSpec& spec : specs)
    api::run_campaign(spec, sink.get(), cache ? &*cache : nullptr);
  return 0;
}

// Streams one human-readable line per completed search round and carries
// the --stop-after budget: after K rounds have completed in THIS process,
// cancelled() flips and the search stops at the next round boundary — the
// checkpoint written for that round is exactly what --resume continues.
class CliExploreObserver : public explore::ExploreObserver {
 public:
  CliExploreObserver(std::ostream& out, unsigned stop_after)
      : out_(out), stop_after_(stop_after) {}

  void on_search_begin(const explore::ExploreSpec& spec, bool resumed) override {
    out_ << "exploring" << (spec.name.empty() ? "" : " '" + spec.name + "'")
         << ": population " << spec.population << ", rounds " << spec.rounds
         << (resumed ? " (resumed)" : "") << "\n";
  }
  void on_round(const explore::RoundSummary& s) override {
    out_ << "round " << s.round << "/" << s.rounds << ": evaluated " << s.evaluations
         << ", cells cached " << s.cells_cached << ", front " << s.front_size;
    if (s.best_feasible != 0) out_ << ", best feasible " << s.best_feasible << "N";
    out_ << "\n";
    ++rounds_seen_;
  }
  bool cancelled() const override {
    return stop_after_ != 0 && rounds_seen_ >= stop_after_;
  }

 private:
  std::ostream& out_;
  unsigned stop_after_;
  unsigned rounds_seen_ = 0;
};

int cmd_explore(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.positional.size() < 2) {
    err << "usage: explore <dse.json> [--out F] [--resume F] [--threads T]\n"
           "               [--rounds R] [--stop-after K]\n";
    return 1;
  }
  const std::string& path = o.positional[1];
  std::ifstream in(path);
  if (!in) {
    err << "error: cannot read explore spec file '" << path << "'\n";
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  explore::ExploreSpec spec;
  try {
    spec = explore::explore_from_json(text.str());
  } catch (const api::SpecValidationError& e) {
    for (const api::SpecError& se : e.errors())
      err << "error: " << path << ": " << api::to_string(se) << "\n";
    return 1;
  } catch (const api::JsonParseError& e) {
    err << "error: " << path << ": " << e.what() << "\n";
    return 1;
  }

  // --threads and --rounds override the stored request; neither is part of
  // the search identity, so a checkpointed search can resume with more
  // rounds or a different thread count and stay on the same trajectory.
  if (o.flags.count("threads")) {
    const auto threads = flag_unsigned(o, "threads", std::nullopt, err);
    if (!threads) return 1;
    spec.threads = *threads;
  }
  if (o.flags.count("rounds")) {
    const auto rounds = flag_unsigned(o, "rounds", std::nullopt, err);
    if (!rounds) return 1;
    spec.rounds = *rounds;
  }
  unsigned stop_after = 0;
  if (o.flags.count("stop-after")) {
    const auto k = flag_unsigned(o, "stop-after", std::nullopt, err);
    if (!k) return 1;
    stop_after = *k;
  }

  bool valid = true;
  for (const api::SpecError& e : explore::validate(spec)) {
    err << "error: " << path << ": " << api::to_string(e) << "\n";
    valid = false;
  }
  if (!valid) return 1;

  std::string state_path;
  if (auto it = o.flags.find("resume"); it != o.flags.end()) state_path = it->second;

  CliExploreObserver observer(out, stop_after);
  const explore::ExploreResult result = explore::run_explore(spec, &observer, state_path);

  out << "\nPareto front (" << result.front.size() << " march"
      << (result.front.size() == 1 ? "" : "es") << ", " << result.evaluations
      << " evaluations, " << result.cells_simulated << " cells simulated / "
      << result.cells_cached << " cached):\n";
  std::vector<std::string> header = {"march", "TCM", "TCP", "weighted", "feasible"};
  for (const explore::ObjectiveClass& oc : spec.objective)
    header.push_back(api::class_label(oc.sel));
  Table t(header);
  for (const explore::Candidate& c : result.front) {
    std::vector<std::string> row;
    std::string body = "{ ";
    for (std::size_t i = 0; i < c.ops.size(); ++i)
      body += (i ? "; " : "") + c.ops[i];
    body += " }";
    row.push_back(body);
    row.push_back(std::to_string(c.complexity.tcm) + "N");
    row.push_back(std::to_string(c.complexity.tcp) + "N");
    row.push_back(std::to_string(c.weighted) + "N");
    row.push_back(c.feasible ? "yes" : "no");
    for (std::size_t i = 0; i < c.detected.size(); ++i)
      row.push_back(std::to_string(c.detected[i]) + "/" + std::to_string(c.totals[i]));
    t.add_row(std::move(row));
  }
  t.print(out);

  if (auto it = o.flags.find("out"); it != o.flags.end()) {
    std::ofstream file_out(it->second);
    if (!file_out) {
      err << "error: cannot write '" << it->second << "'\n";
      return 1;
    }
    file_out << explore::result_to_json(spec, result) << "\n";
  }
  if (result.cancelled)
    out << "\nstopped after round " << result.rounds_run << " of " << spec.rounds
        << " — continue with --resume " << (state_path.empty() ? "<state.json>" : state_path)
        << "\n";
  return 0;
}

// The campaign daemon.  Prints one {"type":"serving",...} line (flushed)
// before entering the accept loop so scripts can scrape the bound port —
// `--port 0` asks the kernel for an ephemeral one.
int cmd_serve(const Options& o, std::ostream& out, std::ostream& err) {
  service::ServerConfig config;
  if (auto it = o.flags.find("host"); it != o.flags.end()) config.host = it->second;
  const auto port = flag_unsigned(o, "port", 0u, err);
  if (!port) return 1;
  if (*port > 65535) {
    err << "error: --port must be 0..65535\n";
    return 1;
  }
  config.port = static_cast<std::uint16_t>(*port);
  if (auto it = o.flags.find("cache-dir"); it != o.flags.end()) config.cache_dir = it->second;
  const auto entries = flag_unsigned(o, "cache-entries", 256u, err);
  if (!entries) return 1;
  config.cache_entries = *entries;
  const auto max_clients = flag_unsigned(o, "max-clients", 32u, err);
  if (!max_clients || *max_clients == 0) {
    if (max_clients) err << "error: --max-clients must be at least 1\n";
    return 1;
  }
  config.max_clients = *max_clients;
  const auto idle = flag_unsigned(o, "idle-timeout-ms", 0u, err);
  if (!idle) return 1;
  config.idle_timeout_ms = *idle;

  service::ServiceServer server(std::move(config));
  const std::uint16_t bound = server.start();
  out << "{\"type\":\"serving\",\"host\":" << api::json_quote(o.flags.count("host") ?
                                                             o.flags.at("host") : "127.0.0.1")
      << ",\"port\":" << bound
      << ",\"engine\":" << api::json_quote(std::string(api::engine_revision())) << "}"
      << std::endl;  // flush: launchers block on this line
  server.serve_forever();
  return 0;
}

// How one request/response exchange with the daemon ended.
enum class Drain {
  kOk,              // terminator frame received
  kRetryableError,  // server sent an error frame with retryable:true
  kFatalError,      // server sent a non-retryable error frame
  kLost,            // connection dropped mid-exchange
};

// Reads the daemon's response lines for one request, echoing each, until
// the frame that ends the exchange.  Error frames carry the server's typed
// verdict (protocol.h error_frame); their retryable bit drives the submit
// retry loop.  Connection-loss reporting is left to the caller, which knows
// whether a retry follows.
Drain drain_response(service::LineClient& client, std::ostream& out) {
  while (true) {
    const auto line = client.recv_line();
    if (!line) return Drain::kLost;
    out << *line << "\n";
    if (const auto info = service::parse_error_frame(*line))
      return info->retryable ? Drain::kRetryableError : Drain::kFatalError;
    try {
      const api::JsonValue doc = api::json_parse(*line);
      const api::JsonValue* type = doc.is_object() ? doc.find("type") : nullptr;
      if (!type || !type->is_string()) continue;
      const std::string& t = type->as_string();
      if (t == "campaign_stats" || t == "pong" || t == "stats" || t == "bye") return Drain::kOk;
    } catch (const api::JsonParseError&) {
      // Echoed verbatim above; keep draining.
    }
  }
}

// Jittered exponential backoff: attempt k (0-based) sleeps uniformly in
// [base*2^k / 2, base*2^k], capped at 30 s.  The half-floor keeps retries
// spaced out; the jitter decorrelates a fleet of clients hammering a
// recovering daemon.
unsigned retry_delay_ms(unsigned backoff_ms, unsigned attempt, Rng& rng) {
  std::uint64_t d = static_cast<std::uint64_t>(backoff_ms) << std::min(attempt, 20u);
  d = std::min<std::uint64_t>(d, 30'000);
  const std::uint64_t lo = d / 2;
  return static_cast<unsigned>(lo + rng.next_below(d - lo + 1));
}

// Sends one frame and drains its response, retrying on connect failures,
// dropped connections, and error frames the server marked retryable —
// non-retryable errors (bad spec, protocol misuse) fail immediately.  A
// retried submit re-runs the campaign from the top; the daemon's result
// cache makes that cheap and the record stream verdict-identical, though
// the client's echoed output contains both attempts.
bool exchange_with_retry(service::LineClient& client, const std::string& frame,
                         const std::string& host, std::uint16_t port, unsigned retries,
                         unsigned backoff_ms, Rng& rng, std::ostream& out, std::ostream& err) {
  for (unsigned attempt = 0;; ++attempt) {
    std::string why;
    Drain result = Drain::kLost;
    if (!client.connected()) {
      std::string connect_error;
      if (!client.connect(host, port, &connect_error)) why = "connect failed: " + connect_error;
    }
    if (client.connected()) {
      if (!client.send_line(frame)) {
        why = "server closed the connection";
      } else {
        result = drain_response(client, out);
        why = result == Drain::kLost ? "server closed the connection"
                                     : "server reported a retryable error";
      }
    }
    if (result == Drain::kOk) return true;
    if (result == Drain::kFatalError) return false;  // typed verdict already echoed
    if (attempt >= retries) {
      if (result == Drain::kLost) err << "error: " << why << "\n";
      return false;
    }
    const unsigned delay = retry_delay_ms(backoff_ms, attempt, rng);
    err << "warning: " << why << "; retrying in " << delay << " ms (attempt " << (attempt + 2)
        << "/" << (retries + 1) << ")\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

// Client of the daemon: submits the spec(s) in a file and tails the result
// stream; --stats and --shutdown send the corresponding control frames;
// --retries/--backoff-ms wrap every exchange in the retry loop above.
int cmd_submit(const Options& o, std::ostream& out, std::ostream& err) {
  const bool want_stats = o.flags.count("stats") != 0;
  const bool want_shutdown = o.flags.count("shutdown") != 0;
  if (o.positional.size() < 2 && !want_stats && !want_shutdown) {
    err << "usage: submit <spec.json> [--host H] [--port P] [--retries N] [--backoff-ms B] "
           "[--stats] [--shutdown]\n";
    return 1;
  }
  std::string host = "127.0.0.1";
  if (auto it = o.flags.find("host"); it != o.flags.end()) host = it->second;
  const auto port = flag_unsigned(o, "port", std::nullopt, err);
  if (!port) return 1;
  if (*port == 0 || *port > 65535) {
    err << "error: --port must be 1..65535\n";
    return 1;
  }
  const auto retries = flag_unsigned(o, "retries", 0u, err);
  if (!retries) return 1;
  const auto backoff = flag_unsigned(o, "backoff-ms", 100u, err);
  if (!backoff || *backoff == 0) {
    if (backoff) err << "error: --backoff-ms must be at least 1\n";
    return 1;
  }

  std::vector<api::CampaignSpec> specs;
  if (o.positional.size() >= 2) {
    const std::string& path = o.positional[1];
    std::ifstream in(path);
    if (!in) {
      err << "error: cannot read spec file '" << path << "'\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      specs = api::specs_from_json(text.str());
    } catch (const api::SpecValidationError& e) {
      for (const api::SpecError& se : e.errors())
        err << "error: " << path << ": " << api::to_string(se) << "\n";
      return 1;
    } catch (const api::JsonParseError& e) {
      err << "error: " << path << ": " << e.what() << "\n";
      return 1;
    }
    if (specs.empty()) {
      err << "error: " << path << ": batch contains no specs\n";
      return 1;
    }
  }

  service::LineClient client;
  const std::uint16_t port16 = static_cast<std::uint16_t>(*port);
  // Jitter source: wall-clock seeded so concurrent clients desynchronize;
  // determinism matters for campaigns, not for backoff spacing.
  Rng rng(static_cast<std::uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()) |
          1u);
  const auto exchange = [&](const std::string& frame) {
    return exchange_with_retry(client, frame, host, port16, *retries, *backoff, rng, out, err);
  };

  bool ok = true;
  for (const api::CampaignSpec& spec : specs) {
    ok = exchange(service::submit_frame(spec)) && ok;
    // Retries exhausted with no connection left: later frames can't fare
    // better — bail instead of burning the whole backoff schedule per spec.
    if (!ok && !client.connected()) return 1;
  }
  if (want_stats) ok = exchange(service::stats_frame()) && ok;
  if (want_shutdown) ok = exchange(service::shutdown_frame()) && ok;
  return ok ? 0 : 1;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  const auto usage = [&err] {
    err << "usage: twm_cli <list|show|transform|complexity|simulate|coverage|spec|run|"
           "explore|simd|serve|submit> ...\n"
           "see src/cli/cli.h for the full synopsis\n";
    return 1;
  };
  const auto opts = parse_args(args, err);
  if (!opts) return 1;
  // Global chaos switch, valid before any command: installs the failpoint
  // spec in this process's registry (equivalent to TWM_FAILPOINTS for
  // every static-lib site; the wide-backend .so self-configures from the
  // environment only — see util/failpoint.h).
  if (auto it = opts->flags.find("failpoints"); it != opts->flags.end()) {
    std::string fperr;
    if (!util::failpoints_configure(it->second, &fperr)) {
      err << "error: --failpoints: " << fperr << "\n";
      return 1;
    }
  }
  if (opts->positional.empty()) return usage();
  const std::string& cmd = opts->positional[0];
  if (!command_flags().count(cmd)) return usage();
  if (!flags_known(*opts, cmd, err)) return 1;
  try {
    if (cmd == "list") return cmd_list(out);
    if (cmd == "show") return cmd_show(*opts, out, err);
    if (cmd == "transform") return cmd_transform(*opts, out, err);
    if (cmd == "complexity") return cmd_complexity(*opts, out, err);
    if (cmd == "simulate") return cmd_simulate(*opts, out, err);
    if (cmd == "coverage") return cmd_coverage(*opts, out, err);
    if (cmd == "spec") return cmd_spec(*opts, out, err);
    if (cmd == "run") return cmd_run(*opts, out, err);
    if (cmd == "explore") return cmd_explore(*opts, out, err);
    if (cmd == "simd") return cmd_simd(*opts, out);
    if (cmd == "serve") return cmd_serve(*opts, out, err);
    if (cmd == "submit") return cmd_submit(*opts, out, err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

}  // namespace twm
