#include "explore/spec.h"

#include <algorithm>

#include "api/json.h"

namespace twm::explore {

using api::SpecError;
using api::SpecValidationError;

std::vector<SpecError> validate(const ExploreSpec& spec) {
  std::vector<SpecError> errors;
  if (spec.words == 0) errors.push_back({"memory.words", "must be at least 1"});
  if (auto e = api::words_limit_error(spec.words)) errors.push_back(*e);
  if (spec.width == 0) {
    errors.push_back({"memory.width", "must be at least 1"});
  } else if ((spec.width & (spec.width - 1)) != 0) {
    // The TWM transformation scoring runs through requires it.
    errors.push_back({"memory.width", "must be a power of two"});
  }
  if (spec.scheme == SchemeKind::TomtModel)
    errors.push_back({"objective.scheme",
                      "tomt complexity is march-independent — nothing to search"});
  if (spec.objective.empty()) {
    errors.push_back({"objective.classes", "at least one fault class is required"});
  } else {
    for (std::size_t i = 0; i < spec.objective.size(); ++i) {
      const ObjectiveClass& oc = spec.objective[i];
      const std::string path = "objective.classes[" + std::to_string(i) + "]";
      if (oc.floor_pct > 100) errors.push_back({path + ".floor", "must be 0..100"});
      if (auto e = api::class_size_error(oc.sel, spec.words, spec.width, path))
        errors.push_back(*e);
      for (std::size_t j = 0; j < i; ++j)
        if (spec.objective[j].sel == oc.sel) {
          errors.push_back({path, "duplicate fault class '" + to_string(oc.sel) + "'"});
          break;
        }
    }
  }
  if (spec.tcm_weight == 0 && spec.tcp_weight == 0)
    errors.push_back({"objective.weights", "tcm and tcp weights cannot both be zero"});
  if (spec.seeds.empty()) errors.push_back({"seeds", "at least one content seed is required"});
  if (spec.population < 2)
    errors.push_back({"search.population", "must be at least 2 (splice needs two parents)"});
  if (spec.rounds == 0) errors.push_back({"search.rounds", "must be at least 1"});
  if (spec.mutation_weights.size() != kMutationKinds) {
    errors.push_back({"search.mutations", "must weight each of the " +
                                              std::to_string(kMutationKinds) +
                                              " mutation operators"});
  } else {
    unsigned total = spec.splice_weight;
    for (unsigned w : spec.mutation_weights) total += w;
    if (total == 0)
      errors.push_back({"search.mutations", "at least one operator weight must be non-zero"});
  }
  if (spec.threads == 0) errors.push_back({"run.threads", "must be at least 1"});
  return errors;
}

void require_valid(const ExploreSpec& spec) {
  auto errors = validate(spec);
  if (!errors.empty()) throw SpecValidationError(std::move(errors));
}

// ---- JSON ---------------------------------------------------------------

namespace {

using api::JsonValue;

bool default_mutation_mix(const ExploreSpec& s) {
  if (s.splice_weight != 1) return false;
  return std::all_of(s.mutation_weights.begin(), s.mutation_weights.end(),
                     [](unsigned w) { return w == 1; });
}

JsonValue spec_to_value(const ExploreSpec& s) {
  JsonValue memory = JsonValue::object();
  memory.set("words", JsonValue::number(s.words));
  memory.set("width", JsonValue::number(s.width));

  JsonValue classes = JsonValue::array();
  for (const ObjectiveClass& oc : s.objective) {
    if (oc.floor_pct == 100) {
      classes.push_back(JsonValue::string(api::to_string(oc.sel)));
    } else {
      JsonValue item = JsonValue::object();
      item.set("class", JsonValue::string(api::to_string(oc.sel)));
      item.set("floor", JsonValue::number(oc.floor_pct));
      classes.push_back(std::move(item));
    }
  }
  JsonValue objective = JsonValue::object();
  objective.set("scheme", JsonValue::string(api::scheme_id(s.scheme)));
  objective.set("classes", std::move(classes));
  // All-default weights are the canonical omission, like run.regions == 1.
  if (s.tcm_weight != 1 || s.tcp_weight != 1) {
    JsonValue weights = JsonValue::object();
    weights.set("tcm", JsonValue::number(s.tcm_weight));
    weights.set("tcp", JsonValue::number(s.tcp_weight));
    objective.set("weights", std::move(weights));
  }

  JsonValue seeds = JsonValue::array();
  for (std::uint64_t seed : s.seeds) seeds.push_back(JsonValue::number(seed));

  JsonValue search = JsonValue::object();
  search.set("population", JsonValue::number(s.population));
  search.set("rounds", JsonValue::number(s.rounds));
  search.set("seed", JsonValue::number(s.search_seed));
  if (!default_mutation_mix(s) && s.mutation_weights.size() == kMutationKinds) {
    JsonValue mix = JsonValue::object();
    for (std::size_t i = 0; i < kMutationKinds; ++i)
      mix.set(twm::to_string(kAllMarchMutations[i]), JsonValue::number(s.mutation_weights[i]));
    mix.set("splice", JsonValue::number(s.splice_weight));
    search.set("mutations", std::move(mix));
  }

  JsonValue run = JsonValue::object();
  run.set("backend", JsonValue::string(to_string(s.backend)));
  run.set("threads", JsonValue::number(s.threads));
  run.set("simd", JsonValue::string(simd::to_string(s.simd)));

  JsonValue v = JsonValue::object();
  v.set("name", JsonValue::string(s.name));
  v.set("memory", std::move(memory));
  v.set("objective", std::move(objective));
  v.set("seeds", std::move(seeds));
  v.set("search", std::move(search));
  v.set("run", std::move(run));
  return v;
}

// Collects structural errors instead of stopping at the first, the
// api::SpecReader contract.
class ExploreReader {
 public:
  ExploreSpec read(const JsonValue& v) {
    ExploreSpec s;
    if (!v.is_object()) {
      fail("", "explore spec must be a JSON object");
      throw SpecValidationError(std::move(errors_));
    }
    require_known(v, "", {"name", "memory", "objective", "seeds", "search", "run"});

    if (const JsonValue* name = v.find("name")) {
      if (name->is_string())
        s.name = name->as_string();
      else
        fail("name", "must be a string");
    }
    if (const JsonValue* memory = v.find("memory")) {
      if (memory->is_object()) {
        require_known(*memory, "memory.", {"words", "width"});
        s.words = read_count(*memory, "memory", "words");
        const std::size_t width = read_count(*memory, "memory", "width");
        if (width > UINT32_MAX)
          fail("memory.width", "must fit an unsigned 32-bit integer");
        else
          s.width = static_cast<unsigned>(width);
      } else {
        fail("memory", "must be an object {\"words\": N, \"width\": B}");
      }
    } else {
      fail("memory", "is required");
    }

    if (const JsonValue* objective = v.find("objective")) {
      if (objective->is_object())
        read_objective(*objective, s);
      else
        fail("objective", "must be an object {\"scheme\": ..., \"classes\": [...]}");
    } else {
      fail("objective", "is required");
    }

    if (const JsonValue* seeds = v.find("seeds")) {
      if (seeds->is_array()) {
        std::size_t i = 0;
        for (const JsonValue& item : seeds->items()) {
          const auto seed = item.as_u64();
          if (seed)
            s.seeds.push_back(*seed);
          else
            fail("seeds[" + std::to_string(i) + "]", "must be an unsigned 64-bit integer");
          ++i;
        }
      } else {
        fail("seeds", "must be an array");
      }
    } else {
      fail("seeds", "is required");
    }

    if (const JsonValue* search = v.find("search")) {
      if (search->is_object())
        read_search(*search, s);
      else
        fail("search", "must be an object");
    }
    if (const JsonValue* run = v.find("run")) {
      if (run->is_object())
        read_run(*run, s);
      else
        fail("run", "must be an object");
    }

    if (!errors_.empty()) throw SpecValidationError(std::move(errors_));
    return s;
  }

 private:
  void read_objective(const JsonValue& v, ExploreSpec& s) {
    require_known(v, "objective.", {"scheme", "classes", "weights"});
    if (const JsonValue* scheme = v.find("scheme")) {
      const auto k =
          scheme->is_string() ? api::parse_scheme(scheme->as_string()) : std::nullopt;
      if (k)
        s.scheme = *k;
      else
        fail("objective.scheme",
             "unknown scheme (want ref|womarch|twm|twm-misr|sym|tsmarch|s1|tomt)");
    }
    if (const JsonValue* classes = v.find("classes")) {
      if (classes->is_array()) {
        std::size_t i = 0;
        for (const JsonValue& item : classes->items())
          read_objective_class(item, "objective.classes[" + std::to_string(i++) + "]", s);
      } else {
        fail("objective.classes", "must be an array");
      }
    } else {
      fail("objective.classes", "is required");
    }
    if (const JsonValue* weights = v.find("weights")) {
      if (weights->is_object()) {
        require_known(*weights, "objective.weights.", {"tcm", "tcp"});
        read_unsigned(*weights, "objective.weights", "tcm", s.tcm_weight);
        read_unsigned(*weights, "objective.weights", "tcp", s.tcp_weight);
      } else {
        fail("objective.weights", "must be an object {\"tcm\": W, \"tcp\": W}");
      }
    }
  }

  void read_objective_class(const JsonValue& item, const std::string& path, ExploreSpec& s) {
    ObjectiveClass oc;
    const JsonValue* cls = &item;
    if (item.is_object()) {
      require_known(item, path + ".", {"class", "floor"});
      cls = item.find("class");
      if (!cls) return fail(path + ".class", "is required");
      if (const JsonValue* floor = item.find("floor")) {
        const auto f = floor->as_u64();
        if (f && *f <= 100)
          oc.floor_pct = static_cast<unsigned>(*f);
        else
          return fail(path + ".floor", "must be an integer percentage 0..100");
      }
    }
    if (!cls->is_string())
      return fail(path, "must be a fault-class string or {\"class\": ..., \"floor\": P}");
    const auto sel = api::parse_class(cls->as_string());
    if (!sel)
      return fail(path, "unknown fault class '" + cls->as_string() +
                            "' (want saf|tf|ret|cfst|cfid|cfin|af, CFs optionally "
                            ":inter|:intra)");
    oc.sel = *sel;
    s.objective.push_back(oc);
  }

  void read_search(const JsonValue& v, ExploreSpec& s) {
    require_known(v, "search.", {"population", "rounds", "seed", "mutations"});
    read_unsigned(v, "search", "population", s.population);
    read_unsigned(v, "search", "rounds", s.rounds);
    if (const JsonValue* seed = v.find("seed")) {
      const auto n = seed->as_u64();
      if (n)
        s.search_seed = *n;
      else
        fail("search.seed", "must be an unsigned 64-bit integer");
    }
    if (const JsonValue* mix = v.find("mutations")) {
      if (!mix->is_object()) return fail("search.mutations", "must be an object");
      for (const auto& [key, member] : mix->members()) {
        const auto n = member.as_u64();
        unsigned* slot = nullptr;
        if (key == "splice") {
          slot = &s.splice_weight;
        } else if (const auto m = parse_mutation(key)) {
          slot = &s.mutation_weights[static_cast<std::size_t>(*m)];
        } else {
          fail("search.mutations." + key,
               "unknown operator (want insert-element|delete-element|clone-element|"
               "flip-order|append-read|insert-op|delete-op|splice)");
          continue;
        }
        if (n && *n <= UINT32_MAX)
          *slot = static_cast<unsigned>(*n);
        else
          fail("search.mutations." + key, "must be an unsigned integer weight");
      }
    }
  }

  void read_run(const JsonValue& v, ExploreSpec& s) {
    require_known(v, "run.", {"backend", "threads", "simd", "schedule", "collapse"});
    api::read_shared_run_keys(v, "", s.backend, s.threads, s.simd, errors_);
  }

  void require_known(const JsonValue& v, const std::string& prefix,
                     std::initializer_list<const char*> known) {
    for (const auto& [key, member] : v.members()) {
      (void)member;
      if (std::find_if(known.begin(), known.end(),
                       [&key = key](const char* k) { return key == k; }) == known.end())
        fail(prefix + key, "unknown field");
    }
  }

  void read_unsigned(const JsonValue& obj, const std::string& parent, const char* key,
                     unsigned& out) {
    const JsonValue* member = obj.find(key);
    if (!member) return;
    const auto n = member->as_u64();
    if (n && *n <= UINT32_MAX)
      out = static_cast<unsigned>(*n);
    else
      fail(parent + "." + key, "must be an unsigned integer");
  }

  std::size_t read_count(const JsonValue& obj, const std::string& parent, const char* key) {
    const JsonValue* member = obj.find(key);
    const std::string path = parent + "." + key;
    if (!member) {
      fail(path, "is required");
      return 0;
    }
    const auto n = member->as_u64();
    if (!n) {
      fail(path, "must be an unsigned integer");
      return 0;
    }
    return *n;
  }

  void fail(const std::string& path, const std::string& message) {
    errors_.push_back({path, message});
  }

  std::vector<SpecError> errors_;
};

}  // namespace

std::string to_json(const ExploreSpec& spec, bool pretty) {
  return api::json_write(spec_to_value(spec), pretty);
}

ExploreSpec explore_from_json(const std::string& text) {
  return ExploreReader().read(api::json_parse(text));
}

std::string explore_identity_json(const ExploreSpec& spec) {
  JsonValue v = JsonValue::object();
  v.set("engine", JsonValue::string(std::string(api::engine_revision())));
  v.set("words", JsonValue::number(spec.words));
  v.set("width", JsonValue::number(spec.width));
  v.set("scheme", JsonValue::string(api::scheme_id(spec.scheme)));
  JsonValue classes = JsonValue::array();
  for (const ObjectiveClass& oc : spec.objective) {
    JsonValue item = JsonValue::object();
    item.set("class", JsonValue::string(api::to_string(oc.sel)));
    item.set("floor", JsonValue::number(oc.floor_pct));
    classes.push_back(std::move(item));
  }
  v.set("classes", std::move(classes));
  JsonValue weights = JsonValue::array();
  weights.push_back(JsonValue::number(spec.tcm_weight));
  weights.push_back(JsonValue::number(spec.tcp_weight));
  v.set("weights", std::move(weights));
  JsonValue seeds = JsonValue::array();
  for (std::uint64_t seed : spec.seeds) seeds.push_back(JsonValue::number(seed));
  v.set("seeds", std::move(seeds));
  v.set("population", JsonValue::number(spec.population));
  v.set("seed", JsonValue::number(spec.search_seed));
  JsonValue mix = JsonValue::array();
  for (unsigned w : spec.mutation_weights) mix.push_back(JsonValue::number(w));
  mix.push_back(JsonValue::number(spec.splice_weight));
  v.set("mutations", std::move(mix));
  return api::json_write(v, /*pretty=*/false);
}

}  // namespace twm::explore
