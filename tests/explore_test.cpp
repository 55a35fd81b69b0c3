// Tests for the design-space exploration subsystem (src/explore): spec
// validation and JSON round-trips, the determinism contracts the CLI and CI
// gate rely on (threads 1 vs N, kill + resume), strict state-file
// rejection, and the acceptance property from the issue — the demo search
// finds a feasible march strictly cheaper than the March C- baseline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "explore/explore.h"
#include "explore/spec.h"

namespace twm::explore {
namespace {

// Small enough to score in milliseconds, rich enough to move the front.
ExploreSpec small_spec() {
  ExploreSpec s;
  s.name = "unit-dse";
  s.words = 4;
  s.width = 4;
  s.objective = {{{api::ClassKind::Saf, CfScope::Both}, 100},
                 {{api::ClassKind::Tf, CfScope::Both}, 100}};
  s.seeds = {0, 1};
  s.population = 8;
  s.rounds = 3;
  s.search_seed = 7;
  s.threads = 2;
  return s;
}

bool has_error_at(const std::vector<api::SpecError>& errors, const std::string& path) {
  for (const api::SpecError& e : errors)
    if (e.path == path) return true;
  return false;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "twm_explore_" + name;
}

// ---- spec validation ----------------------------------------------------

TEST(ExploreSpecValidate, SmallSpecIsValid) { EXPECT_TRUE(validate(small_spec()).empty()); }

TEST(ExploreSpecValidate, RejectsBadGeometry) {
  auto s = small_spec();
  s.words = 0;
  EXPECT_TRUE(has_error_at(validate(s), "memory.words"));
  s = small_spec();
  s.width = 12;  // not a power of two
  EXPECT_TRUE(has_error_at(validate(s), "memory.width"));
}

// The 32-bit limits the campaign spec enforces (api::validate) hold here too.
TEST(ExploreSpecValidate, RejectsWordsAndClassesPast32Bits) {
  auto s = small_spec();
  s.words = std::size_t{1} << 32;
  s.objective = {{{api::ClassKind::Saf, CfScope::Both, 512}, 100}};
  EXPECT_TRUE(validate(s).empty());
  s.words += 1;
  EXPECT_TRUE(has_error_at(validate(s), "memory.words"));
  s = small_spec();
  s.words = 8192;
  s.width = 8;
  s.objective.push_back({{api::ClassKind::CFid, CfScope::Both}, 100});
  const auto errors = validate(s);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].path, "objective.classes[2]");
  EXPECT_NE(errors[0].message.find("'cfid@100000'"), std::string::npos) << errors[0].message;
}

TEST(ExploreSpecValidate, RejectsMarchIndependentScheme) {
  auto s = small_spec();
  s.scheme = SchemeKind::TomtModel;
  const auto errors = validate(s);
  ASSERT_TRUE(has_error_at(errors, "objective.scheme"));
  EXPECT_NE(errors[0].message.find("march-independent"), std::string::npos);
}

TEST(ExploreSpecValidate, RejectsEmptyAndDuplicateObjective) {
  auto s = small_spec();
  s.objective.clear();
  EXPECT_TRUE(has_error_at(validate(s), "objective.classes"));
  s = small_spec();
  s.objective.push_back(s.objective[0]);
  EXPECT_TRUE(has_error_at(validate(s), "objective.classes[2]"));
}

TEST(ExploreSpecValidate, RejectsFloorAbove100AndZeroWeights) {
  auto s = small_spec();
  s.objective[0].floor_pct = 101;
  EXPECT_TRUE(has_error_at(validate(s), "objective.classes[0].floor"));
  s = small_spec();
  s.tcm_weight = 0;
  s.tcp_weight = 0;
  EXPECT_TRUE(has_error_at(validate(s), "objective.weights"));
}

TEST(ExploreSpecValidate, RejectsDegenerateSearchBudget) {
  auto s = small_spec();
  s.population = 1;
  EXPECT_TRUE(has_error_at(validate(s), "search.population"));
  s = small_spec();
  s.rounds = 0;
  EXPECT_TRUE(has_error_at(validate(s), "search.rounds"));
  s = small_spec();
  s.mutation_weights.assign(kMutationKinds, 0);
  s.splice_weight = 0;
  EXPECT_TRUE(has_error_at(validate(s), "search.mutations"));
  s = small_spec();
  s.seeds.clear();
  EXPECT_TRUE(has_error_at(validate(s), "seeds"));
}

// ---- JSON ---------------------------------------------------------------

TEST(ExploreSpecJson, RoundTripsExactly) {
  auto s = small_spec();
  EXPECT_EQ(explore_from_json(to_json(s)), s);
  // Non-default everything still round-trips.
  s.scheme = SchemeKind::ProposedSymmetricXor;
  s.objective[1].floor_pct = 95;
  s.tcm_weight = 2;
  s.tcp_weight = 3;
  s.mutation_weights[2] = 5;
  s.splice_weight = 4;
  s.backend = CoverageBackend::Scalar;
  s.simd = simd::Request::Tiled4096;
  EXPECT_EQ(explore_from_json(to_json(s)), s);
}

// "schedule":"repack" and "collapse":true|false (older files) are read and
// dropped; any other value, like the removed "dense" scheduler or the
// removed 32768-lane tile, is a SpecError at its path.
TEST(ExploreSpecJson, ScheduleAndCollapseAreAcceptedAndDropped) {
  const std::string head =
      R"({"memory":{"words":4,"width":4},"objective":{"classes":["saf"]},"seeds":[0],"run":)";
  const ExploreSpec parsed = explore_from_json(head + R"({"schedule":"repack"}})");
  EXPECT_EQ(to_json(parsed).find("schedule"), std::string::npos);
  for (const char* run : {R"({"collapse":true})", R"({"collapse":false})"}) {
    EXPECT_EQ(explore_from_json(head + run + "}"), parsed) << run;
    EXPECT_EQ(to_json(explore_from_json(head + run + "}")).find("collapse"), std::string::npos);
  }
  for (const auto& [run, path] :
       {std::pair<std::string, std::string>{R"({"schedule":"dense"})", "run.schedule"},
        {R"({"simd":"tiled:32768"})", "run.simd"},
        {R"({"collapse":"yes"})", "run.collapse"}}) {
    try {
      explore_from_json(head + run + "}");
      FAIL() << "expected SpecValidationError for " << run;
    } catch (const api::SpecValidationError& e) {
      EXPECT_TRUE(has_error_at(e.errors(), path)) << run;
    }
  }
}

TEST(ExploreSpecJson, DefaultsAreOptionalInTheFile) {
  const ExploreSpec parsed = explore_from_json(
      R"({"memory":{"words":4,"width":4},"objective":{"classes":["saf"]},"seeds":[0]})");
  EXPECT_EQ(parsed.scheme, SchemeKind::ProposedExact);
  EXPECT_EQ(parsed.population, 12u);
  EXPECT_EQ(parsed.rounds, 6u);
  EXPECT_EQ(parsed.mutation_weights, std::vector<unsigned>(kMutationKinds, 1));
  EXPECT_TRUE(validate(parsed).empty());
}

TEST(ExploreSpecJson, StructuralErrorsNameTheirPaths) {
  try {
    explore_from_json(
        R"({"memory":{"words":4,"width":4},"objective":{"classes":["warp"]},
            "seeds":[0],"search":{"mutations":{"teleport":1}},"surprise":1})");
    FAIL() << "expected SpecValidationError";
  } catch (const api::SpecValidationError& e) {
    EXPECT_TRUE(has_error_at(e.errors(), "objective.classes[0]"));
    EXPECT_TRUE(has_error_at(e.errors(), "search.mutations.teleport"));
    EXPECT_TRUE(has_error_at(e.errors(), "surprise"));
  }
}

TEST(ExploreSpecJson, IdentityExcludesRoundsAndRun) {
  auto a = small_spec();
  auto b = small_spec();
  b.rounds = 99;
  b.threads = 16;
  b.backend = CoverageBackend::Scalar;
  b.simd = simd::Request::W64;
  EXPECT_EQ(explore_identity_json(a), explore_identity_json(b));
  b = small_spec();
  b.search_seed = 8;
  EXPECT_NE(explore_identity_json(a), explore_identity_json(b));
}

// ---- determinism --------------------------------------------------------

TEST(Explore, ThreadCountDoesNotChangeTheFront) {
  auto s1 = small_spec();
  s1.threads = 1;
  auto s4 = small_spec();
  s4.threads = 4;
  const ExploreResult r1 = run_explore(s1);
  const ExploreResult r4 = run_explore(s4);
  EXPECT_EQ(r1.front, r4.front);
  EXPECT_EQ(r1.baselines, r4.baselines);
  EXPECT_EQ(r1.evaluations, r4.evaluations);
  // The canonical report is byte-identical (cache counters are kept out of
  // it for exactly this reason).
  EXPECT_EQ(result_to_json(s1, r1), result_to_json(s4, r4));
}

// An observer that cancels the search after K completed rounds.
class StopAfter : public ExploreObserver {
 public:
  explicit StopAfter(unsigned k) : k_(k) {}
  void on_round(const RoundSummary&) override { ++seen_; }
  bool cancelled() const override { return seen_ >= k_; }

 private:
  unsigned k_;
  unsigned seen_ = 0;
};

TEST(Explore, KillAndResumeReproducesTheUninterruptedFront) {
  const ExploreSpec spec = small_spec();
  const std::string state = temp_path("resume_state.json");
  std::remove(state.c_str());

  const ExploreResult straight = run_explore(spec);

  // Interrupt after round 1, then resume to completion — same state file.
  StopAfter stop(1);
  const ExploreResult partial = run_explore(spec, &stop, state);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_EQ(partial.rounds_run, 1u);
  const ExploreResult resumed = run_explore(spec, nullptr, state);
  EXPECT_FALSE(resumed.cancelled);
  EXPECT_EQ(resumed.rounds_run, spec.rounds);

  EXPECT_EQ(resumed.front, straight.front);
  EXPECT_EQ(resumed.baselines, straight.baselines);
  EXPECT_EQ(result_to_json(spec, resumed), result_to_json(spec, straight));

  // A finished state resumes as a no-op with the same front.
  const ExploreResult again = run_explore(spec, nullptr, state);
  EXPECT_EQ(again.front, straight.front);
  std::remove(state.c_str());
}

TEST(Explore, ResumeCanExtendTheRoundBudget) {
  const std::string state = temp_path("extend_state.json");
  std::remove(state.c_str());
  auto spec = small_spec();
  spec.rounds = 2;
  run_explore(spec, nullptr, state);
  // More rounds, same identity: continues past round 2 instead of rejecting.
  spec.rounds = 4;
  const ExploreResult extended = run_explore(spec, nullptr, state);
  EXPECT_EQ(extended.rounds_run, 4u);

  auto straight_spec = small_spec();
  straight_spec.rounds = 4;
  const ExploreResult straight = run_explore(straight_spec);
  EXPECT_EQ(extended.front, straight.front);
  std::remove(state.c_str());
}

TEST(Explore, RejectsForeignAndMalformedStateFiles) {
  const ExploreSpec spec = small_spec();
  const std::string state = temp_path("bad_state.json");

  std::ofstream(state) << "}{ not json";
  EXPECT_THROW(run_explore(spec, nullptr, state), std::runtime_error);

  std::ofstream(state) << R"({"some":"other tool's file"})";
  EXPECT_THROW(run_explore(spec, nullptr, state), std::runtime_error);

  // A state written by a DIFFERENT search must not silently seed this one.
  const std::string other_state = temp_path("other_state.json");
  std::remove(other_state.c_str());
  auto other = small_spec();
  other.search_seed = 99;
  run_explore(other, nullptr, other_state);
  try {
    run_explore(spec, nullptr, other_state);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("identity mismatch"), std::string::npos);
  }
  std::remove(state.c_str());
  std::remove(other_state.c_str());
}

// ---- search quality -----------------------------------------------------

// The issue's acceptance property, in-process on the demo geometry: the
// front is nonempty, every member is consistent input for a campaign, the
// catalog baselines are folded in, and some feasible member is strictly
// cheaper than the March C- baseline at equal-or-better coverage.
TEST(Explore, DemoSearchBeatsTheMarchCMinusBaseline) {
  ExploreSpec s;
  s.name = "demo";
  s.words = 8;
  s.width = 8;
  s.objective = {{{api::ClassKind::Saf, CfScope::Both}, 100},
                 {{api::ClassKind::Tf, CfScope::Both}, 100}};
  s.seeds = {0, 1};
  s.population = 12;
  s.rounds = 5;
  s.search_seed = 1;
  s.threads = 2;

  const ExploreResult r = run_explore(s);
  ASSERT_FALSE(r.front.empty());
  ASSERT_FALSE(r.baselines.empty());

  const Candidate* c_minus = nullptr;
  for (const Candidate& b : r.baselines)
    if (b.origin == "catalog:March C-") c_minus = &b;
  ASSERT_NE(c_minus, nullptr);

  bool beats_baseline = false;
  for (const Candidate& c : r.front) {
    if (!c.feasible || c.weighted >= c_minus->weighted) continue;
    bool covers = true;
    for (std::size_t i = 0; i < c.detected.size(); ++i)
      covers = covers && c.detected[i] >= c_minus->detected[i];
    beats_baseline = beats_baseline || covers;
  }
  EXPECT_TRUE(beats_baseline) << result_to_json(s, r);

  // The front is mutually nondominated and sorted by weighted complexity.
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    for (std::size_t j = 0; j < r.front.size(); ++j)
      if (i != j) {
        EXPECT_FALSE(dominates(r.front[i], r.front[j])) << i << " vs " << j;
      }
    if (i) {
      EXPECT_LE(r.front[i - 1].weighted, r.front[i].weighted);
    }
  }
}

}  // namespace
}  // namespace twm::explore
