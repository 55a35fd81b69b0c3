// twm::explore — coverage-guided design-space exploration over march tests.
//
// An ExploreSpec is a *value* describing one search, the way a CampaignSpec
// describes one campaign: memory geometry, the objective (one scheme, per
// fault-class coverage floors, complexity weights), the content seeds the
// coverage is measured under, and the search budget (population size, round
// count, RNG seed, mutation operator mix).  Specs are validated field by
// field (structured SpecErrors, same contract as api::validate), serialized
// to JSON round-trip exact, and executed by explore::run_explore
// (explore/explore.h).
//
// JSON grammar (examples/specs/dse_demo.json):
//   {
//     "name": "demo",
//     "memory": {"words": 8, "width": 8},
//     "objective": {
//       "scheme": "twm",                    // default "twm"
//       "classes": ["saf", {"class": "tf", "floor": 95}],  // floor % (def 100)
//       "weights": {"tcm": 1, "tcp": 1}     // weighted complexity (def 1/1)
//     },
//     "seeds": [0, 1],
//     "search": {
//       "population": 12, "rounds": 6, "seed": 1,
//       "mutations": {"insert-op": 2, "splice": 1}   // relative weights (def 1)
//     },
//     "run": {"backend": "packed", "threads": 4}     // scoring execution
//   }
#ifndef TWM_EXPLORE_SPEC_H
#define TWM_EXPLORE_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/spec.h"
#include "march/generator.h"

namespace twm::explore {

// One coverage objective: a fault-class selector plus the minimum
// detected-under-every-content percentage (integer 0..100) a candidate
// must reach on it to count as feasible.
struct ObjectiveClass {
  api::ClassSel sel;
  unsigned floor_pct = 100;

  friend bool operator==(const ObjectiveClass&, const ObjectiveClass&) = default;
};

inline constexpr std::size_t kMutationKinds =
    sizeof(kAllMarchMutations) / sizeof(kAllMarchMutations[0]);

struct ExploreSpec {
  std::string name;  // optional label, carried into reports

  // Memory geometry (JSON: "memory").  Width must be a power of two — the
  // TWM transformation the objective scheme scores under requires it.
  std::size_t words = 0;
  unsigned width = 0;

  // Objective (JSON: "objective").  One scheme; candidates are scored as
  //   weighted = tcm_weight * TCM + tcp_weight * TCP   (minimize)
  // subject to per-class coverage floors (maximize coverage; the Pareto
  // front keeps every nondominated trade-off, floors decide feasibility).
  SchemeKind scheme = SchemeKind::ProposedExact;
  std::vector<ObjectiveClass> objective;
  unsigned tcm_weight = 1;
  unsigned tcp_weight = 1;

  std::vector<std::uint64_t> seeds;  // contents coverage is measured under

  // Search budget (JSON: "search").
  unsigned population = 12;
  unsigned rounds = 6;
  std::uint64_t search_seed = 1;
  // Relative draw weight per mutation operator (parallel to
  // kAllMarchMutations) plus the splice crossover; all-1 by default.
  std::vector<unsigned> mutation_weights = std::vector<unsigned>(kMutationKinds, 1);
  unsigned splice_weight = 1;

  // Execution of the scoring campaigns (JSON: "run", CampaignSpec grammar).
  // Deliberately NOT part of the search identity: verdicts are thread- and
  // backend-independent, so these only move wall-clock time.
  CoverageBackend backend = CoverageBackend::Packed;
  unsigned threads = 1;
  simd::Request simd = simd::Request::Auto;

  friend bool operator==(const ExploreSpec&, const ExploreSpec&) = default;
};

// Field-by-field validation (api::SpecError paths in the JSON grammar's
// coordinates); empty result means the search is runnable.
std::vector<api::SpecError> validate(const ExploreSpec& spec);

// Throws api::SpecValidationError when validate() is non-empty.
void require_valid(const ExploreSpec& spec);

// Canonical serialization (member order fixed; round-trip exact:
// explore_from_json(to_json(s)) == s).
std::string to_json(const ExploreSpec& spec, bool pretty = true);

// Parses one ExploreSpec object.  Malformed JSON throws JsonParseError;
// structural problems throw SpecValidationError naming the offending
// paths.  Parsing does NOT run validate().
ExploreSpec explore_from_json(const std::string& text);

// Canonical compact JSON of exactly the fields that determine the search
// TRAJECTORY (engine revision, geometry, scheme, objective, weights,
// seeds, population, search seed, mutation mix).  The round budget and the
// whole run request are deliberately excluded: a checkpoint can resume
// with more rounds or different threads and still continue the same
// deterministic trajectory.
std::string explore_identity_json(const ExploreSpec& spec);

}  // namespace twm::explore

#endif  // TWM_EXPLORE_SPEC_H
