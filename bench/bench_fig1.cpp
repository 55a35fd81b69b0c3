// Reproduces Figure 1.
//
// (a) Two arbitrary cells under the transparent solid march of March C-:
//     the joint state walks all four states in 18 steps (the paper numbers
//     them 1..18); we print the executed sequence.
// (b) Two bits within a word: the solid part only produces both-bits-flip
//     events; the ATMarch checkerboard sweeps add the flip-and-hold events
//     — printed as a per-condition coverage matrix with and without
//     ATMarch.
#include <cstdio>
#include <iostream>

#include "analysis/campaign.h"
#include "analysis/pair_trace.h"
#include "bench_common.h"
#include "bist/engine.h"
#include "core/nicolaidis.h"
#include "core/twm_ta.h"
#include "march/library.h"
#include "march/printer.h"
#include "march/word_expand.h"
#include "util/table.h"

namespace {
using namespace twm;

void figure_1a() {
  std::cout << "== Figure 1(a): state traversal of two cells, TSMarch(March C-) ==\n\n";
  Memory mem(2, 1);
  mem.load({BitVec::from_string("0"), BitVec::from_string("0")});

  const MarchTest ts = nicolaidis_transparent(solid_march(march_by_name("March C-")));
  std::cout << to_string(ts) << "\n\n";

  PairStateTrace trace(mem, {0, 0}, {1, 0});
  MarchRunner runner(mem);
  runner.set_observer(&trace);
  StreamRecorder sink;
  runner.run_test(ts, sink);

  Table t({"step", "op", "cell", "state (Di Dj)"});
  std::size_t step = 1;
  for (const auto& ev : trace.events()) {
    t.add_row({std::to_string(step++), ev.kind == OpKind::Read ? "r" : "w",
               ev.addr == 0 ? "i" : "j",
               std::string(ev.after_i ? "1" : "0") + " " + (ev.after_j ? "1" : "0")});
  }
  t.print(std::cout);
  std::printf("steps: %zu (paper: sequence 1..18)   distinct joint states: %zu/4\n\n",
              trace.step_count(), trace.states_visited().size());
}

IntraPairConditions run_pair(const MarchTest& test, unsigned width, unsigned agg, unsigned vic) {
  Memory mem(1, width);
  PairStateTrace trace(mem, {0, agg}, {0, vic});
  MarchRunner runner(mem);
  runner.set_observer(&trace);
  StreamRecorder sink;
  runner.run_test(test, sink);
  return analyze_intra_pair(trace.events());
}

void figure_1b(unsigned threads) {
  const unsigned width = 8;
  std::cout << "== Figure 1(b): intra-word bit-pair write conditions (B=8) ==\n"
            << "condition key: dir ^ / v = aggressor up/down; hold / flip = victim "
               "behaviour during the write (followed by a read)\n\n";

  const TwmResult r = twm_transform(march_by_name("March C-"), width);

  Table t({"aggressor,victim", "test", "^hold", "vhold", "^flip", "vflip"});
  const auto fmt = [](bool b) { return b ? std::string("yes") : std::string("-"); };
  for (auto [agg, vic] : {std::pair<unsigned, unsigned>{0, 1}, {1, 0}, {0, 4}, {2, 5}}) {
    const auto solo = run_pair(r.tsmarch, width, agg, vic);
    const auto full = run_pair(r.twmarch, width, agg, vic);
    const std::string cells =
        std::string("b").append(std::to_string(agg)).append(",b").append(std::to_string(vic));
    t.add_row({cells, "TSMarch only", fmt(solo.covered[0][0]), fmt(solo.covered[1][0]),
               fmt(solo.covered[0][1]), fmt(solo.covered[1][1])});
    t.add_row({"", "TWMarch (+ATMarch)", fmt(full.covered[0][0]), fmt(full.covered[1][0]),
               fmt(full.covered[0][1]), fmt(full.covered[1][1])});
    t.add_rule();
  }
  t.print(std::cout);

  // Aggregate over all ordered pairs — each pair's two single-word sessions
  // are independent, so the sweep shards across the same worker pool the
  // coverage campaigns use (analysis/campaign.h).
  std::vector<std::pair<unsigned, unsigned>> pair_list;
  for (unsigned i = 0; i < width; ++i)
    for (unsigned j = 0; j < width; ++j)
      if (i != j) pair_list.emplace_back(i, j);
  struct PairVerdicts {
    bool solo_all = false, full_all = false, fliphold = false;
  };
  std::vector<PairVerdicts> verdicts(pair_list.size());
  WorkerPool(threads).for_each(pair_list.size(), [&](std::size_t p) {
    const auto [i, j] = pair_list[p];
    const auto solo = run_pair(r.tsmarch, width, i, j);
    const auto full = run_pair(r.twmarch, width, i, j);
    verdicts[p] = {solo.all(), full.all(), full.aggressor_flip_victim_holds_both_dirs()};
  });
  unsigned pairs = static_cast<unsigned>(pair_list.size());
  unsigned full_all = 0, solo_all = 0, full_fliphold = 0;
  for (const auto& v : verdicts) {
    solo_all += v.solo_all;
    full_all += v.full_all;
    full_fliphold += v.fliphold;
  }
  std::printf("\nordered pairs with all four conditions: TSMarch %u/%u, TWMarch %u/%u\n",
              solo_all, pairs, full_all, pairs);
  std::printf("ordered pairs with flip-and-hold both directions under TWMarch: %u/%u\n"
              "(every unordered pair is separated in exactly one orientation — the\n"
              " checkerboard family's structural property; see EXPERIMENTS.md)\n",
              full_fliphold, pairs);
}

}  // namespace

int main(int argc, char** argv) {
  const twm::bench::BenchArgs args = twm::bench::parse_bench_args(argc, argv);
  figure_1a();
  figure_1b(args.spec.threads);
  return 0;
}
