// Reproduces the Sec. 5 fault-coverage analysis as an empirical campaign:
// per fault class, the coverage of the proposed TWMarch (exact and MISR
// checked) against the nontransparent SMarch+AMarch reference, the full
// word-oriented march, Scheme 1 [12], the TOMT model [13], and the ablated
// TSMarch-only test.
//
// "all" = detected under every evaluated initial content (what the paper's
// theorem speaks about), "any" = under at least one.
//
// The campaign is a declarative api::CampaignSpec (every scheme x every
// fault class, coupling faults split :inter / :intra as the paper tabulates
// them) executed by api::run_campaign with the human table sink — exactly
// what `twm_cli run` would do for the same spec file.  Flags select the
// backend (--backend=scalar|packed) and worker count (--threads=N).  The
// bench then times the scalar reference and the 64-lane packed backend on a
// production-shaped high-detection fault list; a second "settling" workload
// (RET + SAF over several contents, most verdicts final after the first
// seed round) exercises survivor repacking.  Lane occupancy, session-element
// and address-walk counters are emitted so the scheduler gains stay
// attributable.  Writes everything to
// BENCH_coverage.json (--json=PATH overrides) and exits non-zero if ANY
// pair — backend or region count — disagrees verdict-for-verdict.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "api/runner.h"
#include "api/sink.h"
#include "bench_common.h"
#include "march/library.h"
#include "memsim/memory.h"
#include "memsim/packed_memory.h"

int main(int argc, char** argv) {
  using namespace twm;
  bench::BenchArgs args = bench::parse_bench_args(argc, argv, "BENCH_coverage.json");

  // The Sec. 5 campaign, as a value.
  api::CampaignSpec spec = args.spec;
  spec.name = "sec5-coverage";
  spec.words = 4;
  spec.width = 4;
  spec.march = "March C-";
  spec.schemes.assign(std::begin(kAllSchemes), std::end(kAllSchemes));
  spec.classes = *api::parse_classes(
      "saf,tf,cfst:inter,cfst:intra,cfid:inter,cfid:intra,cfin:inter,cfin:intra,af");
  spec.seeds = {0, 1, 2};  // 0 = all-zero contents

  std::cout << "== Sec. 5: empirical fault coverage (spec '" << spec.name
            << "', contents: zero + 2 random) ==\n\n";
  api::TableSink table(std::cout);
  api::run_campaign(spec, &table);

  // The theorem check: per-fault verdict equality at the reference content.
  const CampaignRunner runner(spec.words, spec.width, spec.options());
  const MarchTest march = march_by_name(spec.march);
  std::vector<Fault> everything;
  for (const api::ClassSel& cls : spec.classes)
    for (const Fault& f : api::build_fault_list(cls, spec.words, spec.width))
      everything.push_back(f);
  const auto ref =
      runner.per_fault(SchemeKind::NontransparentReference, march, everything, {0});
  const auto prop = runner.per_fault(SchemeKind::ProposedExact, march, everything, {0});
  // The theorem speaks about ACTIVATED faults.  A fault "rests visible"
  // when injecting it alone distorts the zero contents (e.g. CFst<0;1>
  // with its aggressor resting at 0): the reference's golden-data compare
  // sees that outright, while a transparent test takes whatever it first
  // reads as the reference and sees the fault only if the march activates
  // it (tests/coverage_test.cpp pins the same split).
  const auto rests_visible = [&](const Fault& f) {
    Memory m(spec.words, spec.width);
    m.inject(f);
    for (std::size_t a = 0; a < spec.words; ++a)
      if (!m.peek(a).all_zero()) return true;
    return false;
  };
  std::size_t agree = 0, activated = 0, activated_agree = 0, resting_agree = 0;
  for (std::size_t i = 0; i < everything.size(); ++i) {
    const bool same = ref[i] == prop[i];
    agree += same;
    if (rests_visible(everything[i])) {
      resting_agree += same;
    } else {
      ++activated;
      activated_agree += same;
    }
  }
  const std::size_t resting = everything.size() - activated;
  std::printf("\ntheorem (Sec. 5): per-fault verdicts TWMarch vs SMarch+AMarch at zero "
              "content: %zu/%zu agree\n"
              "  activated faults:       %zu/%zu agree (the theorem's scope)\n"
              "  resting-visible faults: %zu/%zu agree (injection alone distorts the zero "
              "contents; the reference sees that, a transparent test only once the march "
              "activates the fault)\n",
              agree, everything.size(), activated_agree, activated, resting_agree, resting);

  // Backend throughput: a production-shaped campaign (a 256 x 4 memory,
  // every SAF/TF plus neighbour AFs and sampled coupling faults — large
  // enough that per-unit overheads amortize over real session work) on the
  // scalar reference and the packed backend, both with the requested
  // thread count.  Timed on the zero-content slice so every unit runs
  // exactly one session and batch granularity cannot skew the comparison
  // via the per-seed early exit.  The scalar backend is timed on a fixed
  // slice of the list (its per-fault cost is uniform, and the full list
  // would take seconds); the packed backend runs the full list and must
  // agree verdict-for-verdict with the scalar reference on the slice.
  const std::size_t kBenchWords = 256;
  const unsigned kBenchWidth = 4;
  const std::size_t kScalarSlice = 256;
  const std::vector<std::uint64_t> bench_seeds{0};
  Rng cf_rng(7);
  std::vector<Fault> workload;
  for (auto& f : all_safs(kBenchWords, kBenchWidth)) workload.push_back(f);
  for (auto& f : all_tfs(kBenchWords, kBenchWidth)) workload.push_back(f);
  for (std::size_t w = 0; w < kBenchWords; ++w) {
    workload.push_back(Fault::af_no_access(w));
    workload.push_back(Fault::af_alias(w, (w + 1) % kBenchWords));
  }
  for (FaultClass cls : {FaultClass::CFst, FaultClass::CFid, FaultClass::CFin})
    for (auto& f : sampled_cfs(kBenchWords, kBenchWidth, cls, CfScope::Both, 1024, cf_rng))
      workload.push_back(f);
  const std::vector<Fault> scalar_slice(workload.begin(), workload.begin() + kScalarSlice);

  const unsigned threads = args.spec.threads;
  const CampaignRunner scalar_runner(kBenchWords, kBenchWidth,
                                     {.backend = CoverageBackend::Scalar, .threads = threads});
  const CampaignRunner packed_runner(kBenchWords, kBenchWidth,
                                     {.backend = CoverageBackend::Packed, .threads = threads});
  const auto per_fault_stats = [&](const CampaignRunner& r, const std::vector<Fault>& faults,
                                   const std::vector<std::uint64_t>& seeds,
                                   CampaignStats* stats) {
    return r.per_fault(SchemeKind::ProposedExact, march, faults, seeds, stats);
  };
  std::vector<bool> v_scalar, v_packed;
  CampaignStats packed_stats;
  // Both rows feed the CI gates (packed faults/s, and speedup = packed over
  // scalar), and one slow scheduling slice on a shared host could decide
  // either, so each is the fastest of several runs, interleaved so a slow
  // stretch hits both alike: packed every round (a few ms each), scalar
  // every third (~0.1 s each).
  const unsigned kRounds = 15, kScalarEvery = 3;
  double t_scalar = 0, t_packed = 0;
  for (unsigned rep = 0; rep < kRounds; ++rep) {
    if (rep % kScalarEvery == 0) {
      const double t = bench::time_seconds([&] {
        v_scalar = per_fault_stats(scalar_runner, scalar_slice, bench_seeds, nullptr);
      });
      t_scalar = rep == 0 ? t : std::min(t_scalar, t);
    }
    const double t = bench::time_seconds([&] {
      v_packed = per_fault_stats(packed_runner, workload, bench_seeds,
                                 rep == 0 ? &packed_stats : nullptr);
    });
    t_packed = rep == 0 ? t : std::min(t_packed, t);
  }
  const double fps_scalar = scalar_slice.size() / t_scalar;
  const double fps_packed = workload.size() / t_packed;
  const double speedup = fps_packed / fps_scalar;
  const double occupancy = packed_stats.mean_live_lanes() / (kPackedLanes - 1);
  const double elements_frac =
      packed_stats.elements_total.load()
          ? static_cast<double>(packed_stats.elements_executed.load()) /
                static_cast<double>(packed_stats.elements_total.load())
          : 1.0;
  const bool scalar_slice_equal = std::equal(v_scalar.begin(), v_scalar.end(), v_packed.begin());
  std::printf("\nbackend throughput (TWMarch exact, N=%zu, B=%u, %zu faults x %zu contents, "
              "%u threads; scalar timed on a %zu-fault slice):\n",
              kBenchWords, kBenchWidth, workload.size(), bench_seeds.size(), threads,
              scalar_slice.size());
  std::printf("  scalar:     %8.0f faults/s  (%.3fs)\n", fps_scalar, t_scalar);
  std::printf("  packed:     %8.0f faults/s  (%.3fs)  -> %.1fx over scalar (%.0f%% of march "
              "elements run)\n",
              fps_packed, t_packed, speedup, 100.0 * elements_frac);

  // The settling workload: most faults' verdicts settle in the first seed
  // round (RET faults are invisible to a Del-free March C-, so their "all"
  // verdict drops at seed 0), which is where survivor repacking pays —
  // later rounds shrink to the undecided tail.
  std::vector<Fault> settling = all_rets(kBenchWords, kBenchWidth, 1);
  for (auto& f : all_safs(kBenchWords, kBenchWidth)) settling.push_back(f);
  const std::vector<std::uint64_t> settling_seeds{1, 2, 3, 4};
  CampaignStats settling_stats;
  const double ts_packed = bench::time_seconds(
      [&] { per_fault_stats(packed_runner, settling, settling_seeds, &settling_stats); });
  const double fps_settling = settling.size() / ts_packed;
  const double settling_occupancy = settling_stats.mean_live_lanes() / (kPackedLanes - 1);
  std::printf("\nsettling workload (RET+SAF, %zu faults x %zu contents; RETs settle in seed "
              "round 0):\n",
              settling.size(), settling_seeds.size());
  std::printf("  packed:     %8.0f faults/s  (%.3fs, %.0f%% live lanes)\n", fps_settling,
              ts_packed, 100.0 * settling_occupancy);

  // Huge-memory workload: a 1M-word geometry with a footprint-bounded
  // sampled fault list ("@N" selectors — the only runnable shape at this
  // scale).  Exercises the footprint-grain slot store end to end: the
  // working set is the words the fault footprint touches, not `words`, and
  // the peak live slot count is the claim in one number.  Runs region-sharded (the
  // huge-memory scheduling mode) and unsharded; the merged verdicts must
  // be identical.
  const std::size_t kHugeWords = std::size_t{1} << 20;
  const unsigned kHugeWidth = 4;
  const unsigned kHugeRegions = 4;
  const std::vector<api::ClassSel> huge_classes =
      *api::parse_classes("saf@2048,tf@1024,cfid:inter@512");
  std::vector<Fault> huge;
  for (const api::ClassSel& cls : huge_classes)
    for (const Fault& f : api::build_fault_list(cls, kHugeWords, kHugeWidth))
      huge.push_back(f);
  const std::vector<std::uint64_t> huge_seeds{0};
  const CampaignRunner huge_runner(kHugeWords, kHugeWidth,
                                   {.backend = CoverageBackend::Packed,
                                    .threads = threads,
                                    .regions = kHugeRegions});
  const CampaignRunner huge_runner_r1(kHugeWords, kHugeWidth,
                                      {.backend = CoverageBackend::Packed, .threads = threads});
  CampaignStats huge_stats;
  std::vector<bool> vh_regions, vh_flat;
  const double t_huge = bench::time_seconds([&] {
    vh_regions = per_fault_stats(huge_runner, huge, huge_seeds, &huge_stats);
  });
  vh_flat = per_fault_stats(huge_runner_r1, huge, huge_seeds, nullptr);
  const double fps_huge = huge.size() / t_huge;
  const std::uint64_t huge_slots_peak = huge_stats.pages_peak.load();
  const bool huge_equal = vh_regions == vh_flat;
  std::printf("\nhuge-memory workload (N=%zu words, %zu sampled faults, %u regions):\n",
              kHugeWords, huge.size(), kHugeRegions);
  std::printf("  regions/%u:     %8.0f faults/s  (%.3fs; peak %llu of %zu words live "
              "= %.4f%% of the address space; %llu addresses walked)\n",
              kHugeRegions, fps_huge, t_huge,
              static_cast<unsigned long long>(huge_slots_peak), kHugeWords,
              100.0 * static_cast<double>(huge_slots_peak) / static_cast<double>(kHugeWords),
              static_cast<unsigned long long>(huge_stats.addresses_walked.load()));

  const bool verdicts_equal = scalar_slice_equal && huge_equal;
  std::printf("\n  verdict equality (scalar == packed, regions %u == 1 on huge): %s\n",
              kHugeRegions, verdicts_equal ? "EXACT" : "MISMATCH");

  if (!args.json.empty()) {
    std::ofstream js(args.json);
    js << "{\"bench\":\"coverage\",\"march\":\"March C-\",\"words\":" << kBenchWords
       << ",\"width\":" << kBenchWidth << ",\"faults\":" << workload.size()
       << ",\"seeds\":" << bench_seeds.size() << ",\"threads\":" << threads
       << ",\"scalar_faults_per_sec\":" << fps_scalar
       << ",\"packed_faults_per_sec\":" << fps_packed << ",\"speedup\":" << speedup
       << ",\"faults_simulated\":" << packed_stats.faults_simulated.load()
       << ",\"mean_live_lanes\":" << packed_stats.mean_live_lanes()
       << ",\"lane_occupancy\":" << occupancy
       << ",\"session_elements_total\":" << packed_stats.elements_total.load()
       << ",\"session_elements_executed\":" << packed_stats.elements_executed.load()
       << ",\"addresses_walked\":" << packed_stats.addresses_walked.load()
       << ",\"settling_faults\":" << settling.size()
       << ",\"settling_seeds\":" << settling_seeds.size()
       << ",\"settling_faults_per_sec\":" << fps_settling
       << ",\"settling_lane_occupancy\":" << settling_occupancy
       << ",\"huge_words\":" << kHugeWords << ",\"huge_faults\":" << huge.size()
       << ",\"huge_regions\":" << kHugeRegions
       << ",\"huge_faults_per_sec\":" << fps_huge
       << ",\"huge_slots_peak\":" << huge_slots_peak
       << ",\"huge_addresses_walked\":" << huge_stats.addresses_walked.load()
       << ",\"verdicts_equal\":" << (verdicts_equal ? "true" : "false")
       << ",\"theorem_agree\":" << agree << ",\"theorem_total\":" << everything.size()
       << ",\"theorem_activated_agree\":" << activated_agree
       << ",\"theorem_activated_total\":" << activated
       << ",\"theorem_resting_agree\":" << resting_agree
       << ",\"theorem_resting_total\":" << resting << "}\n";
    std::printf("  wrote %s\n", args.json.c_str());
  }
  return verdicts_equal ? 0 : 1;
}
