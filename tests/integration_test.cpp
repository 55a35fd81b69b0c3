// Cross-module integration scenarios: a periodic-scrub life-time simulation
// driven through the TBIST controller, and a multi-core complexity audit —
// the situations the paper's introduction motivates.
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "bist/engine.h"
#include "bist/tbist.h"
#include "core/complexity.h"
#include "core/twm_ta.h"
#include "march/library.h"
#include "march/word_expand.h"
#include "util/rng.h"

namespace twm {
namespace {

// A lifetime of alternating system activity and idle-time transparent test
// sessions.  A transition fault appears mid-life; the next *completed*
// session must flag it, and all functional data must stay coherent
// throughout.
TEST(Integration, PeriodicScrubLifetime) {
  const std::size_t kWords = 32;
  const unsigned kWidth = 8;
  Rng rng(99);
  Memory mem(kWords, kWidth);
  mem.fill_random(rng);

  const TwmResult r = twm_transform(march_by_name("March C-"), kWidth);
  TbistController ctrl(mem, {r.twmarch, r.prediction, 0});

  // Shadow model of what the system believes the memory holds.
  std::vector<BitVec> shadow(kWords, BitVec::zeros(kWidth));
  for (std::size_t a = 0; a < kWords; ++a) shadow[a] = ctrl.functional_read(a);

  bool fault_live = false;
  bool detected = false;
  int completed_after_fault = 0;

  for (int epoch = 0; epoch < 40 && !detected; ++epoch) {
    // Idle window: try to run a session, but system traffic may intervene.
    ctrl.start_session();
    const bool interrupted = (epoch % 5 == 2);
    int steps = 0;
    while (ctrl.step()) {
      ++steps;
      if (interrupted && steps == 37) {
        const std::size_t a = rng.next_below(kWords);
        const BitVec d = rng.next_word(kWidth);
        ctrl.functional_write(a, d);  // aborts the session
        shadow[a] = d;
        break;
      }
    }
    if (ctrl.state() == TbistController::State::Done) {
      if (fault_live) {
        ++completed_after_fault;
        detected = ctrl.last_session_failed();
      } else {
        EXPECT_FALSE(ctrl.last_session_failed()) << "false alarm at epoch " << epoch;
      }
    }

    // Activity burst: random functional traffic, verified against shadow.
    for (int t = 0; t < 20; ++t) {
      const std::size_t a = rng.next_below(kWords);
      if (rng.next_bool()) {
        const BitVec d = rng.next_word(kWidth);
        ctrl.functional_write(a, d);
        shadow[a] = d;
      } else if (!fault_live) {
        // (The faulty cell may legitimately disagree with the shadow.)
        EXPECT_EQ(ctrl.functional_read(a), shadow[a]);
      }
    }

    if (epoch == 10) {
      mem.inject(Fault::tf({11, 3}, Transition::Up));
      fault_live = true;
    }
  }

  EXPECT_TRUE(detected) << "fault never detected across the lifetime";
  EXPECT_LE(completed_after_fault, 3) << "detection latency unexpectedly high";
  EXPECT_GT(ctrl.stats().sessions_aborted, 0u);
}

// Choosing a scheme by cycle budget.  Totals: proposed = S+Q+7*log2(B),
// scheme 1 = (S+Q)*(1+log2(B)), so the proposed scheme wins exactly when
// S+Q > 7 — true for every march with full CF coverage, false for the
// short MATS-family tests (a crossover worth knowing when budgeting).
TEST(Integration, ComplexityGuidesSchemeChoice) {
  for (const auto& info : march_catalog()) {
    for (unsigned b : {16u, 32u, 64u}) {
      const auto p = formula_proposed(info.ops, info.reads, b);
      const auto s1 = formula_scheme1(info.ops, info.reads, b);
      if (info.ops + info.reads > 7)
        EXPECT_LT(p.total(), s1.total()) << info.name << " B=" << b;
      else
        EXPECT_GE(p.total(), s1.total()) << info.name << " B=" << b;
    }
  }
  // Every full-CF-coverage march clears the crossover.
  for (const auto& info : march_catalog()) {
    if (info.full_cf_coverage) {
      EXPECT_GT(info.ops + info.reads, 7u) << info.name;
    }
  }
}

// End-to-end: generate, execute, and verify coverage on a non-default
// geometry (wider words, more words) to guard against hidden size coupling.
TEST(Integration, WiderGeometrySmoke) {
  const std::size_t kWords = 6;
  const unsigned kWidth = 16;
  const CampaignRunner eval(kWords, kWidth);
  const MarchTest march = march_by_name("March U");

  const auto safs = all_safs(kWords, kWidth);
  const auto out = eval.evaluate(SchemeKind::ProposedExact, march, safs, {0, 5});
  EXPECT_EQ(out.detected_all, out.total);

  Rng rng(1);
  auto cfs = sampled_cfs(kWords, kWidth, FaultClass::CFid, CfScope::Both, 60, rng);
  const auto ref = eval.per_fault(SchemeKind::NontransparentReference, march, cfs, {0});
  const auto prop = eval.per_fault(SchemeKind::ProposedExact, march, cfs, {0});
  EXPECT_EQ(ref, prop);
}

// Diagnosis workflow: a nontransparent run pinpoints the failing word; the
// transparent session confirms; the fault list generator reproduces it.
TEST(Integration, DiagnosisRoundTrip) {
  Memory mem(16, 8);
  mem.inject(Fault::saf({9, 4}, true));

  MarchRunner runner(mem);
  const auto direct = runner.run_direct(solid_march(march_by_name("March C-")));
  ASSERT_TRUE(direct.mismatch);
  EXPECT_EQ(direct.fail_addr, 9u);
  EXPECT_EQ(direct.actual ^ direct.expected, BitVec::from_uint(8, 1u << 4));
}

}  // namespace
}  // namespace twm
