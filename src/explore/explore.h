// The coverage-guided evolutionary search loop (ROADMAP item 3).
//
// run_explore seeds a population from the march catalog plus random
// marches, then repeats for the spec's round budget: draw offspring with
// the validity-preserving operators from march/generator.h, score each
// candidate by running the campaign engine over the objective's
// scheme x class cells (an inline-march CampaignSpec through
// api::run_campaign, so scoring inherits every engine optimization), fold
// every scored candidate into a Pareto archive over
// (weighted complexity DOWN, per-class coverage UP), and select the next
// population coverage-deficit first.  Re-encountered candidates cost zero
// simulation: scoring shares one content-addressed result cache
// (service::ResultCache) keyed by the PR 6 cell identity, which for inline
// marches is derived from the canonical printed march body.
//
// Determinism: verdicts are thread-count-independent by engine
// construction, candidates are drawn and folded in a fixed order, and no
// wall-clock feeds any decision — the same spec and seed produce the same
// front whether run with 1 thread or N, straight through or killed and
// resumed (tests/explore_test.cpp pins both).
#ifndef TWM_EXPLORE_EXPLORE_H
#define TWM_EXPLORE_EXPLORE_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/complexity.h"
#include "explore/spec.h"

namespace twm::explore {

// One scored candidate.  `ops` is the canonical printed element list — the
// same strings CampaignSpec accepts as inline "march_ops", so any front
// entry can be pasted straight into a campaign.
struct Candidate {
  std::vector<std::string> ops;
  // Provenance: "catalog:<name>", "random", "mutate:<operator>", "splice".
  std::string origin;
  SchemeComplexity complexity;   // measured under the objective scheme
  std::size_t weighted = 0;      // tcm_weight*tcm + tcp_weight*tcp
  std::vector<std::size_t> detected;  // detected_all per objective class
  std::vector<std::size_t> totals;    // fault total per objective class
  bool feasible = false;         // every coverage floor met

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

// a dominates b: no worse on every axis (weighted complexity, each class's
// coverage), strictly better on at least one.
bool dominates(const Candidate& a, const Candidate& b);

struct RoundSummary {
  unsigned round = 0;            // just-completed round (1-based; 0 = seeding)
  unsigned rounds = 0;           // the spec's budget
  std::size_t evaluations = 0;   // candidates scored this round
  std::size_t cells_cached = 0;  // scheme x class cells replayed, this round
  std::size_t front_size = 0;
  // Lowest weighted complexity among feasible front members (0: none yet).
  std::size_t best_feasible = 0;
};

struct ExploreResult {
  // The Pareto archive over every candidate scored, sorted by (weighted
  // complexity, total coverage desc, canonical text).
  std::vector<Candidate> front;
  // Every catalog march scored under the same objective — the reference
  // row the front is judged against (reports and the CI gate).
  std::vector<Candidate> baselines;
  unsigned rounds_run = 0;
  std::size_t evaluations = 0;      // candidates scored, seeding included
  std::size_t cells_simulated = 0;  // scheme x class cells run live
  std::size_t cells_cached = 0;     // ... vs replayed from the result cache
  bool cancelled = false;           // observer stopped the search early
};

// Streaming observer, the ResultSink idiom of api/sink.h: round summaries
// arrive as they settle, and cancelled() is polled between rounds —
// returning true ends the search after the checkpoint of the round that
// just completed (--stop-after and Ctrl-C both ride on it).
class ExploreObserver {
 public:
  virtual ~ExploreObserver() = default;

  virtual void on_search_begin(const ExploreSpec& spec, bool resumed) {
    (void)spec;
    (void)resumed;
  }
  virtual void on_round(const RoundSummary& summary) { (void)summary; }
  virtual void on_search_end(const ExploreResult& result) { (void)result; }
  virtual bool cancelled() const { return false; }
};

// Runs the search a spec denotes.  With a non-empty `state_path` the full
// search state (round counter, RNG state, population, front, baselines) is
// persisted there after seeding and after every round (atomic tmp +
// rename, util/fs.h), and an existing file resumes: the interrupted
// trajectory continues bit-identically, so kill + resume ends
// on the same front as an uninterrupted run.  A state file written by a
// different spec, engine revision or tool is rejected with
// std::runtime_error — search state is too easy to cross-wire silently.
// Throws api::SpecValidationError on an invalid spec.
ExploreResult run_explore(const ExploreSpec& spec, ExploreObserver* observer = nullptr,
                          const std::string& state_path = {});

// Canonical report of a finished search (the CLI's --out file): spec name,
// budget counters, the front and the catalog baselines.  Integer-only, so
// byte-identical fronts produce byte-identical reports.
std::string result_to_json(const ExploreSpec& spec, const ExploreResult& result,
                           bool pretty = true);

}  // namespace twm::explore

#endif  // TWM_EXPLORE_EXPLORE_H
