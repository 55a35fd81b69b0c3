#include "explore/explore.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/json.h"
#include "api/runner.h"
#include "core/symmetric.h"
#include "core/twm_ta.h"
#include "march/library.h"
#include "march/parser.h"
#include "march/printer.h"
#include "march/word_expand.h"
#include "service/cache.h"
#include "util/rng.h"

namespace twm::explore {

using api::JsonValue;

namespace {

// ---- candidates ---------------------------------------------------------

std::vector<std::string> canonical_ops(const MarchTest& t) {
  std::vector<std::string> out;
  out.reserve(t.elements.size());
  for (const MarchElement& e : t.elements) out.push_back(twm::to_string(e));
  return out;
}

// Dedup / tie-break key: the canonical march body.
std::string ops_key(const std::vector<std::string>& ops) {
  std::string out;
  for (const std::string& op : ops) {
    if (!out.empty()) out += "; ";
    out += op;
  }
  return out;
}

// Measured complexity of one candidate under the objective scheme.  The
// reference schemes have no transparent/prediction split — their cost is
// the march itself.
SchemeComplexity complexity_for(SchemeKind scheme, const MarchTest& march, unsigned width) {
  switch (scheme) {
    case SchemeKind::ProposedExact:
    case SchemeKind::ProposedMisr:
    case SchemeKind::TsmarchOnly:
      return measured_proposed(march, width);
    case SchemeKind::ProposedSymmetricXor: {
      const TwmResult r = twm_transform(march, width);
      return {symmetrize(r.twmarch, width).test.op_count(), 0};
    }
    case SchemeKind::Scheme1Exact:
      return measured_scheme1(march, width);
    case SchemeKind::NontransparentReference:
      return {march.op_count(), 0};
    case SchemeKind::WordOrientedMarch:
      return {word_oriented_march(march, width).op_count(), 0};
    case SchemeKind::TomtModel:
      return measured_tomt(width);  // validate() rejects; keep total anyway
  }
  return {};
}

// The scoring campaign a candidate denotes: one inline-march spec over the
// objective's scheme x class cells.  Identical candidates produce identical
// specs, hence identical PR 6 cell identities — the shared result cache
// makes re-encounters free.
api::CampaignSpec scoring_spec(const ExploreSpec& spec, const std::vector<std::string>& ops) {
  api::CampaignSpec cs;
  cs.words = spec.words;
  cs.width = spec.width;
  cs.march_ops = ops;
  cs.schemes = {spec.scheme};
  for (const ObjectiveClass& oc : spec.objective) cs.classes.push_back(oc.sel);
  cs.seeds = spec.seeds;
  cs.backend = spec.backend;
  cs.threads = spec.threads;
  cs.simd = spec.simd;
  return cs;
}

struct EvalCounters {
  std::size_t evaluations = 0;
  std::size_t cells_simulated = 0;
  std::size_t cells_cached = 0;
};

Candidate evaluate(const ExploreSpec& spec, const MarchTest& march, std::string origin,
                   api::CellCache& cache, EvalCounters& counters) {
  Candidate c;
  c.ops = canonical_ops(march);
  c.origin = std::move(origin);
  c.complexity = complexity_for(spec.scheme, march, spec.width);
  c.weighted = std::size_t{spec.tcm_weight} * c.complexity.tcm +
               std::size_t{spec.tcp_weight} * c.complexity.tcp;

  api::CacheStats stats;
  const api::CampaignSummary summary =
      api::run_campaign(scoring_spec(spec, c.ops), nullptr, &cache, &stats);
  counters.evaluations += 1;
  counters.cells_simulated += stats.cells_simulated;
  counters.cells_cached += stats.cells_cached;

  c.feasible = true;
  for (std::size_t i = 0; i < spec.objective.size(); ++i) {
    const CoverageOutcome& outcome = summary.cells[i].outcome;
    c.detected.push_back(outcome.detected_all);
    c.totals.push_back(outcome.total);
    // Integer floor check: detected/total >= floor/100.
    if (outcome.detected_all * 100 < std::size_t{spec.objective[i].floor_pct} * outcome.total)
      c.feasible = false;
  }
  return c;
}

// Scaled shortfall below the coverage floors (0 = feasible): the
// coverage-guided selection pressure.
std::size_t floor_deficit(const ExploreSpec& spec, const Candidate& c) {
  std::size_t deficit = 0;
  for (std::size_t i = 0; i < c.detected.size(); ++i) {
    const std::size_t need = std::size_t{spec.objective[i].floor_pct} * c.totals[i];
    const std::size_t have = c.detected[i] * 100;
    if (have < need) deficit += need - have;
  }
  return deficit;
}

// ---- Pareto archive -----------------------------------------------------

bool equal_objectives(const Candidate& a, const Candidate& b) {
  return a.weighted == b.weighted && a.detected == b.detected;
}

// Folds one scored candidate into the nondominated archive.  Ties on every
// axis keep the lexicographically smaller canonical body — the
// deterministic tie-break that makes fronts byte-comparable across runs.
void fold_into_front(std::vector<Candidate>& front, const Candidate& c) {
  const std::string key = ops_key(c.ops);
  for (const Candidate& f : front) {
    if (ops_key(f.ops) == key) return;  // already archived
    if (dominates(f, c)) return;
    if (equal_objectives(f, c) && ops_key(f.ops) <= key) return;
  }
  front.erase(std::remove_if(front.begin(), front.end(),
                             [&](const Candidate& f) {
                               return dominates(c, f) ||
                                      (equal_objectives(c, f) && key < ops_key(f.ops));
                             }),
              front.end());
  front.push_back(c);
}

void sort_front(std::vector<Candidate>& front) {
  std::sort(front.begin(), front.end(), [](const Candidate& a, const Candidate& b) {
    if (a.weighted != b.weighted) return a.weighted < b.weighted;
    std::size_t cov_a = 0, cov_b = 0;
    for (std::size_t d : a.detected) cov_a += d;
    for (std::size_t d : b.detected) cov_b += d;
    if (cov_a != cov_b) return cov_a > cov_b;
    return ops_key(a.ops) < ops_key(b.ops);
  });
}

// ---- search state (checkpoint) ------------------------------------------

struct SearchState {
  unsigned round = 0;  // rounds completed
  Rng rng{0};
  std::vector<Candidate> population;
  std::vector<Candidate> front;
  std::vector<Candidate> baselines;
  EvalCounters counters;
};

JsonValue candidate_to_value(const Candidate& c) {
  JsonValue v = JsonValue::object();
  JsonValue ops = JsonValue::array();
  for (const std::string& op : c.ops) ops.push_back(JsonValue::string(op));
  v.set("ops", std::move(ops));
  v.set("origin", JsonValue::string(c.origin));
  v.set("tcm", JsonValue::number(c.complexity.tcm));
  v.set("tcp", JsonValue::number(c.complexity.tcp));
  v.set("weighted", JsonValue::number(c.weighted));
  JsonValue detected = JsonValue::array();
  for (std::size_t d : c.detected) detected.push_back(JsonValue::number(d));
  v.set("detected", std::move(detected));
  JsonValue totals = JsonValue::array();
  for (std::size_t t : c.totals) totals.push_back(JsonValue::number(t));
  v.set("totals", std::move(totals));
  v.set("feasible", JsonValue::boolean(c.feasible));
  return v;
}

[[noreturn]] void reject_state(const std::string& path, const std::string& why) {
  throw std::runtime_error("explore: " + path + ": " + why +
                           " (not a search state for this spec — delete the file or "
                           "fix --resume)");
}

Candidate candidate_from_value(const std::string& path, const JsonValue& v) {
  if (!v.is_object()) reject_state(path, "malformed candidate");
  Candidate c;
  const JsonValue* ops = v.find("ops");
  const JsonValue* origin = v.find("origin");
  const JsonValue* tcm = v.find("tcm");
  const JsonValue* tcp = v.find("tcp");
  const JsonValue* weighted = v.find("weighted");
  const JsonValue* detected = v.find("detected");
  const JsonValue* totals = v.find("totals");
  const JsonValue* feasible = v.find("feasible");
  if (!ops || !ops->is_array() || !origin || !origin->is_string() || !tcm || !tcp ||
      !weighted || !detected || !detected->is_array() || !totals || !totals->is_array() ||
      !feasible || !feasible->is_bool())
    reject_state(path, "malformed candidate");
  for (const JsonValue& op : ops->items()) {
    if (!op.is_string()) reject_state(path, "malformed candidate");
    c.ops.push_back(op.as_string());
  }
  c.origin = origin->as_string();
  const auto u = [&](const JsonValue* n) {
    const auto value = n->as_u64();
    if (!value) reject_state(path, "malformed candidate");
    return static_cast<std::size_t>(*value);
  };
  c.complexity.tcm = u(tcm);
  c.complexity.tcp = u(tcp);
  c.weighted = u(weighted);
  for (const JsonValue& d : detected->items()) c.detected.push_back(u(&d));
  for (const JsonValue& t : totals->items()) c.totals.push_back(u(&t));
  c.feasible = feasible->as_bool();
  return c;
}

void save_state(const std::string& path, const ExploreSpec& spec, const SearchState& st) {
  JsonValue v = JsonValue::object();
  v.set("explore_state", JsonValue::number(1));
  v.set("identity", JsonValue::string(explore_identity_json(spec)));
  v.set("round", JsonValue::number(st.round));
  v.set("rng", JsonValue::string(st.rng.state()));
  v.set("evaluations", JsonValue::number(st.counters.evaluations));
  v.set("cells_simulated", JsonValue::number(st.counters.cells_simulated));
  v.set("cells_cached", JsonValue::number(st.counters.cells_cached));
  JsonValue population = JsonValue::array();
  for (const Candidate& c : st.population) population.push_back(candidate_to_value(c));
  v.set("population", std::move(population));
  JsonValue front = JsonValue::array();
  for (const Candidate& c : st.front) front.push_back(candidate_to_value(c));
  v.set("front", std::move(front));
  JsonValue baselines = JsonValue::array();
  for (const Candidate& c : st.baselines) baselines.push_back(candidate_to_value(c));
  v.set("baselines", std::move(baselines));

  // Atomic publish (api/checkpoint.h idiom): a kill mid-write leaves the
  // previous state intact, never a torn file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << api::json_write(v, /*pretty=*/false) << "\n";
    if (!out) throw std::runtime_error("explore: cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("explore: cannot rename " + tmp + " to " + path);
}

// Loads a search state.  Missing file = fresh start (false).  Anything
// else that is not a bit-exact match for this spec and engine revision is
// rejected loudly — unlike campaign checkpoints (which silently degrade to
// a fresh run), resuming the wrong SEARCH would silently explore a
// different trajectory, so the foreign-file contract here is an error.
bool load_state(const std::string& path, const ExploreSpec& spec, SearchState& st) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue v;
  try {
    v = api::json_parse(buffer.str());
  } catch (const std::exception&) {
    reject_state(path, "malformed JSON");
  }
  if (!v.is_object()) reject_state(path, "malformed JSON");
  const JsonValue* version = v.find("explore_state");
  if (!version || !version->as_u64()) reject_state(path, "missing explore_state version");
  if (*version->as_u64() != 1)
    reject_state(path, "unsupported explore_state version " +
                           std::to_string(*version->as_u64()));
  const JsonValue* identity = v.find("identity");
  if (!identity || !identity->is_string()) reject_state(path, "missing identity");
  if (identity->as_string() != explore_identity_json(spec))
    reject_state(path, "identity mismatch (different spec, seed or engine revision)");

  const JsonValue* round = v.find("round");
  const JsonValue* rng = v.find("rng");
  if (!round || !round->as_u64() || !rng || !rng->is_string())
    reject_state(path, "missing round/rng");
  st.round = static_cast<unsigned>(*round->as_u64());
  if (!st.rng.set_state(rng->as_string())) reject_state(path, "malformed rng state");

  const auto read_counter = [&](const char* key, std::size_t& out) {
    const JsonValue* n = v.find(key);
    if (!n || !n->as_u64()) reject_state(path, std::string("missing ") + key);
    out = static_cast<std::size_t>(*n->as_u64());
  };
  read_counter("evaluations", st.counters.evaluations);
  read_counter("cells_simulated", st.counters.cells_simulated);
  read_counter("cells_cached", st.counters.cells_cached);

  const auto read_candidates = [&](const char* key, std::vector<Candidate>& out) {
    const JsonValue* list = v.find(key);
    if (!list || !list->is_array()) reject_state(path, std::string("missing ") + key);
    for (const JsonValue& item : list->items())
      out.push_back(candidate_from_value(path, item));
  };
  read_candidates("population", st.population);
  read_candidates("front", st.front);
  read_candidates("baselines", st.baselines);
  if (st.population.empty()) reject_state(path, "empty population");
  return true;
}

// ---- the search loop ----------------------------------------------------

// Draws one offspring operator index: 0..kMutationKinds-1 = mutation,
// kMutationKinds = splice.
std::size_t draw_operator(Rng& rng, const ExploreSpec& spec) {
  std::uint64_t total = spec.splice_weight;
  for (unsigned w : spec.mutation_weights) total += w;
  std::uint64_t pick = rng.next_below(total);
  for (std::size_t i = 0; i < spec.mutation_weights.size(); ++i) {
    if (pick < spec.mutation_weights[i]) return i;
    pick -= spec.mutation_weights[i];
  }
  return kMutationKinds;
}

MarchTest march_of(const Candidate& c) {
  return parse_march("{ " + ops_key(c.ops) + " }");
}

// Next generation: pool = population + offspring, deduplicated on the
// canonical body (first occurrence wins), ranked coverage-deficit first,
// then cheapest weighted complexity, then canonical text — all total
// orders, so selection is deterministic.
std::vector<Candidate> select_population(const ExploreSpec& spec,
                                         const std::vector<Candidate>& population,
                                         const std::vector<Candidate>& offspring) {
  std::vector<Candidate> pool;
  std::vector<std::string> seen;
  for (const auto* source : {&population, &offspring})
    for (const Candidate& c : *source) {
      const std::string key = ops_key(c.ops);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      pool.push_back(c);
    }
  std::stable_sort(pool.begin(), pool.end(), [&](const Candidate& a, const Candidate& b) {
    const std::size_t da = floor_deficit(spec, a), db = floor_deficit(spec, b);
    if (da != db) return da < db;
    if (a.weighted != b.weighted) return a.weighted < b.weighted;
    return ops_key(a.ops) < ops_key(b.ops);
  });
  if (pool.size() > spec.population) pool.resize(spec.population);
  return pool;
}

}  // namespace

bool dominates(const Candidate& a, const Candidate& b) {
  if (a.weighted > b.weighted) return false;
  bool strict = a.weighted < b.weighted;
  for (std::size_t i = 0; i < a.detected.size() && i < b.detected.size(); ++i) {
    if (a.detected[i] < b.detected[i]) return false;
    if (a.detected[i] > b.detected[i]) strict = true;
  }
  return strict;
}

ExploreResult run_explore(const ExploreSpec& spec, ExploreObserver* observer,
                          const std::string& state_path) {
  require_valid(spec);

  // One shared scoring cache for the whole search, keyed by the inline-
  // march cell identity: every candidate re-encountered across rounds (or
  // after a resume with a warm disk cache) replays instead of simulating.
  service::ResultCache cache({/*dir=*/"", /*memory_entries=*/4096});

  SearchState st;
  bool resumed = false;
  if (!state_path.empty()) resumed = load_state(state_path, spec, st);
  if (!resumed) {
    st.rng = Rng(spec.search_seed);
    // Round 0: every catalog march is scored as a baseline; the first
    // `population` of them seed the population, random marches fill the
    // rest.  Everything scored — baselines included — feeds the front.
    for (const std::string& name : march_names()) {
      const Candidate c =
          evaluate(spec, march_by_name(name), "catalog:" + name, cache, st.counters);
      st.baselines.push_back(c);
      fold_into_front(st.front, c);
      if (st.population.size() < spec.population) st.population.push_back(c);
    }
    while (st.population.size() < spec.population) {
      const MarchTest m = random_march(st.rng);
      const Candidate c = evaluate(spec, m, "random", cache, st.counters);
      fold_into_front(st.front, c);
      st.population.push_back(c);
    }
    sort_front(st.front);
    if (!state_path.empty()) save_state(state_path, spec, st);
  }

  if (observer) observer->on_search_begin(spec, resumed);

  ExploreResult result;
  unsigned round = st.round;
  while (round < spec.rounds) {
    if (observer && observer->cancelled()) {
      result.cancelled = true;
      break;
    }
    const EvalCounters before = st.counters;

    std::vector<Candidate> offspring;
    for (unsigned i = 0; i < spec.population; ++i) {
      const std::size_t op = draw_operator(st.rng, spec);
      MarchTest child;
      std::string origin;
      if (op == kMutationKinds) {
        const Candidate& a = st.population[st.rng.next_below(st.population.size())];
        const Candidate& b = st.population[st.rng.next_below(st.population.size())];
        child = splice_marches(st.rng, march_of(a), march_of(b));
        origin = "splice";
      } else {
        const MarchMutation m = kAllMarchMutations[op];
        const Candidate& parent = st.population[st.rng.next_below(st.population.size())];
        child = mutate_march(st.rng, march_of(parent), m);
        origin = "mutate:" + twm::to_string(m);
      }
      const Candidate c = evaluate(spec, child, origin, cache, st.counters);
      fold_into_front(st.front, c);
      offspring.push_back(c);
    }

    st.population = select_population(spec, st.population, offspring);
    sort_front(st.front);
    st.round = ++round;
    if (!state_path.empty()) save_state(state_path, spec, st);

    if (observer) {
      RoundSummary summary;
      summary.round = round;
      summary.rounds = spec.rounds;
      summary.evaluations = st.counters.evaluations - before.evaluations;
      summary.cells_cached = st.counters.cells_cached - before.cells_cached;
      summary.front_size = st.front.size();
      for (const Candidate& c : st.front)
        if (c.feasible && (summary.best_feasible == 0 || c.weighted < summary.best_feasible))
          summary.best_feasible = c.weighted;
      observer->on_round(summary);
    }
  }

  result.front = st.front;
  result.baselines = st.baselines;
  result.rounds_run = st.round;
  result.evaluations = st.counters.evaluations;
  result.cells_simulated = st.counters.cells_simulated;
  result.cells_cached = st.counters.cells_cached;
  return result;
}

std::string result_to_json(const ExploreSpec& spec, const ExploreResult& result,
                           bool pretty) {
  JsonValue v = JsonValue::object();
  v.set("name", JsonValue::string(spec.name));
  v.set("identity", JsonValue::string(explore_identity_json(spec)));
  // Cache-effectiveness counters are deliberately NOT in the report: a
  // resumed run restarts with a cold memory cache, and the report must be
  // byte-identical across threads and kill/resume (the determinism the CI
  // explore-gate diffs for).  They stream on stdout instead.
  v.set("rounds_run", JsonValue::number(result.rounds_run));
  v.set("evaluations", JsonValue::number(result.evaluations));
  v.set("cancelled", JsonValue::boolean(result.cancelled));

  const auto render = [&](const std::vector<Candidate>& list) {
    JsonValue out = JsonValue::array();
    for (const Candidate& c : list) {
      JsonValue item = candidate_to_value(c);
      // Display extras on top of the state shape: the pasteable march body
      // and the per-class labels.
      item.set("march", JsonValue::string("{ " + ops_key(c.ops) + " }"));
      JsonValue coverage = JsonValue::array();
      for (std::size_t i = 0; i < c.detected.size(); ++i) {
        JsonValue cls = JsonValue::object();
        cls.set("class", JsonValue::string(i < spec.objective.size()
                                               ? api::to_string(spec.objective[i].sel)
                                               : std::string("?")));
        cls.set("detected", JsonValue::number(c.detected[i]));
        cls.set("total", JsonValue::number(c.totals[i]));
        coverage.push_back(std::move(cls));
      }
      item.set("coverage", std::move(coverage));
      out.push_back(std::move(item));
    }
    return out;
  };
  v.set("front", render(result.front));
  v.set("baselines", render(result.baselines));
  return api::json_write(v, pretty);
}

}  // namespace twm::explore
