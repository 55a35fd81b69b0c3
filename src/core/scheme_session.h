// Lane-generic scheme execution core.
//
// The paper's Sec. 5 coverage analysis compares eight test schemes.  Each
// scheme's *session* — which marches run, in what order, and which checker
// fires the verdict — is implemented exactly once here, templated over the
// engine traits (core/engine_traits.h), so the scalar reference backend and
// the bit-parallel packed backend execute the same orchestration code and
// cannot drift.
//
// A session consumes a SchemePlan: every march transform the scheme needs
// (solid/word-oriented expansions, the TWM_TA transform, Scheme 1's
// T1'..T4', symmetrization, MISR widths, TOMT's per-word block) compiled
// ONCE per campaign by make_scheme_plan().  Plans are immutable and shared
// read-only across campaign worker threads; compiling them up front
// amortizes the transform cost over every fault x seed the campaign
// evaluates.  The plan's packed op masks (PlanOpMasks) are compiled once
// per campaign the same way, and each campaign worker keeps one
// SessionScratch for the buffers its sessions need, so a packed unit
// allocates nothing in steady state.
//
//   SchemePlan plan = make_scheme_plan(scheme, bit_march, width);
//   Verdict v = run_campaign_unit<PackedEngine>(plan, words, faults, 63, seed);
//
// The sharding / thread-pool / golden-lane machinery that drives many units
// lives one layer up, in analysis/campaign.h.  That layer also decides the
// address set a unit's session walks (a packed unit its fault footprint,
// licensed by the golden certificate in analysis/campaign_exec.h; a scalar
// unit every word); the sessions here take it as an AddressList.
#ifndef TWM_CORE_SCHEME_SESSION_H
#define TWM_CORE_SCHEME_SESSION_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine_traits.h"
#include "core/symmetric.h"
#include "core/tomt.h"
#include "march/test.h"
#include "memsim/fault.h"

namespace twm {

enum class SchemeKind {
  NontransparentReference,
  WordOrientedMarch,
  ProposedExact,
  ProposedMisr,
  ProposedSymmetricXor,  // symmetrized TWMarch, XOR accumulator, TCP = 0
  TsmarchOnly,
  Scheme1Exact,
  TomtModel,
};

std::string to_string(SchemeKind k);

// Every SchemeKind, in the paper's presentation order (handy for sweeps).
inline constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::NontransparentReference, SchemeKind::WordOrientedMarch,
    SchemeKind::ProposedExact,           SchemeKind::ProposedMisr,
    SchemeKind::ProposedSymmetricXor,    SchemeKind::TsmarchOnly,
    SchemeKind::Scheme1Exact,            SchemeKind::TomtModel,
};

// Scheme artifacts compiled once per campaign.  Which members are populated
// depends on the scheme; the others stay empty.
struct SchemePlan {
  SchemeKind scheme = SchemeKind::ProposedExact;
  unsigned width = 0;
  MarchTest direct_a, direct_b;  // nontransparent passes (b may be empty)
  MarchTest trans, prediction;   // transparent session passes
  MisrJumps misr;                // compactor polynomial: its width and taps, and the
                                 // x^k mod p tables it skips zero runs with
  SymmetricTest sym;
  MarchTest tomt;                // TOMT's per-word block, tomt_test(width)
};

// The broadcast op masks (bist/packed_engine.h) of every march a plan's
// sessions sweep, TOMT's block included, compiled from the plan as it
// stands: a plan edited afterwards needs new masks.  The campaign
// scheduler compiles them once per campaign and hands them to every unit,
// so a packed pass allocates no masks; the scalar engine ignores them.
struct PlanOpMasks {
  explicit PlanOpMasks(const SchemePlan& plan)
      : direct_a(plan.direct_a, plan.width),
        direct_b(plan.direct_b, plan.width),
        trans(plan.trans, plan.width),
        prediction(plan.prediction, plan.width),
        sym(plan.sym.test, plan.width),
        tomt(plan.tomt, plan.width) {}

  PackedOpMasks direct_a, direct_b, trans, prediction, sym, tomt;
};

// One campaign worker's session buffers, reused unit after unit so that a
// packed unit allocates nothing once they have grown to the largest unit:
// the unit's fault footprint, the TOMT ledger and working words, the
// symmetric session's XOR accumulator and the packed runner's prediction
// snapshots, registers and MISR (PackedSessionScratch).  Every session resets
// what it uses, so a scratch carries capacity from one unit to the next,
// never state.  It lives in the scheduler's WorkerState
// (analysis/campaign_exec.h); callers without one (run_campaign_unit, the
// golden certificate, tests) build a local one.  One session at a time.
template <class Engine>
struct SessionScratch {
  std::vector<std::size_t> footprint;  // the unit's walk (packed units)
  std::vector<bool> tomt_ledger;       // [i] -> parity of listed word i
  TomtRegisters<Engine> tomt;
  typename Engine::Accumulator xor_acc;
  typename Engine::Scratch runner;
};

// Throws std::logic_error unless every transparent session pass pair of the
// plan is walk-aligned (transparent_passes_aligned).
SchemePlan make_scheme_plan(SchemeKind scheme, const MarchTest& bit_march, unsigned width);

// True when `test` and `prediction` walk their read-bearing elements in the
// same address order (Any counts as Up) with the same read count per
// element, so their read streams pair up by (element, address, read) on
// any address list.  Every built plan satisfies it; the packed campaign
// engine refuses a hand-built plan that does not (its golden certificate
// fails).
bool transparent_passes_aligned(const MarchTest& test, const MarchTest& prediction);

// Number of make_scheme_plan() calls since process start.  Campaign code is
// expected to compile one plan per campaign, not one per fault x seed;
// tests pin that amortization contract with this counter.
std::uint64_t scheme_plan_build_count();

// March elements a full-length session of this plan executes (the unit the
// settle-exit savings counters are denominated in; TOMT's single-element
// per-word sweep counts as 1).
std::size_t plan_session_elements(const SchemePlan& plan);

// Runs one scheme session on an already-prepared memory (contents loaded,
// faults injected) over the words in `list` and returns the engine's
// detection verdict.  This is THE implementation of the Sec. 5 sessions —
// both backends dispatch through here.  `tomt_ledger` ([i] -> parity of
// word list[i]) is consulted only by SchemeKind::TomtModel and must have
// been captured before fault injection.  `masks` must be compiled from
// `plan`; the session's buffers come from `scratch`.
template <class Engine>
typename Engine::Verdict run_scheme_session(typename Engine::Memory& mem, const SchemePlan& plan,
                                            const std::vector<bool>& tomt_ledger,
                                            typename Engine::Brake* brake, AddressList list,
                                            const PlanOpMasks& masks,
                                            SessionScratch<Engine>& scratch) {
  typename Engine::Runner runner = Engine::make_runner(mem, list, scratch.runner);
  switch (plan.scheme) {
    case SchemeKind::NontransparentReference: {
      // AMarch reads the solid base SMarch leaves behind: the two passes
      // must be sequenced, not folded into one (unsequenced) expression.
      const typename Engine::Verdict d1 =
          Engine::run_direct(runner, plan.direct_a, brake, &masks.direct_a);
      // The second pass cannot change an already-settled batch verdict.
      if (brake && brake->should_stop(d1)) return d1;
      if (brake) brake->already = brake->already | d1;
      const typename Engine::Verdict d2 =
          Engine::run_direct(runner, plan.direct_b, brake, &masks.direct_b);
      return d1 | d2;
    }
    case SchemeKind::WordOrientedMarch:
      return Engine::run_direct(runner, plan.direct_a, brake, &masks.direct_a);
    case SchemeKind::ProposedExact:
    case SchemeKind::TsmarchOnly:
    case SchemeKind::Scheme1Exact: {
      // Exact-compare verdict only; an armed brake both aborts the test
      // pass once every lane mismatched and skips the (unconsumed) MISR
      // compaction entirely.
      const bool exact_only = brake && brake->exit_enabled;
      return Engine::run_transparent(runner, plan.trans, plan.prediction, plan.misr, brake,
                                     /*want_misr=*/!exact_only, &masks.trans, &masks.prediction)
          .exact;
    }
    case SchemeKind::ProposedMisr: {
      // MISR verdicts are not final until session end — never arm the
      // exit.  The caller's arming is restored so a reused brake keeps its
      // configuration.
      const bool armed = brake && brake->exit_enabled;
      if (brake) brake->exit_enabled = false;
      const typename Engine::Verdict v =
          Engine::run_transparent(runner, plan.trans, plan.prediction, plan.misr, brake,
                                  /*want_misr=*/true, &masks.trans, &masks.prediction)
              .misr;
      if (brake) brake->exit_enabled = armed;
      return v;
    }
    case SchemeKind::ProposedSymmetricXor:
      // XOR-accumulator mismatches can cancel (aliasing): no settle-exit.
      return run_symmetric_session_t<Engine>(runner, plan.sym, list, scratch.xor_acc, &masks.sym);
    case SchemeKind::TomtModel:
      return run_tomt_session<Engine>(mem, plan.tomt, &masks.tomt, tomt_ledger, brake, list,
                                      scratch.tomt)
          .detected;
  }
  throw std::logic_error("run_scheme_session: unknown scheme");
}

// The whole-memory session, compiling its own op masks into a scratch of
// its own.
template <class Engine>
typename Engine::Verdict run_scheme_session(typename Engine::Memory& mem, const SchemePlan& plan,
                                            const std::vector<bool>& tomt_ledger,
                                            typename Engine::Brake* brake = nullptr) {
  SessionScratch<Engine> scratch;
  return run_scheme_session<Engine>(mem, plan, tomt_ledger, brake,
                                    AddressList::all(mem.num_words()), PlanOpMasks(plan), scratch);
}

// One campaign unit under one seed: builds a fresh memory (seed 0 = all-zero
// contents, the nontransparent reference's base), captures the TOMT parity
// ledger while the memory is healthy, injects `count` faults (scalar: the
// single fault; packed: lanes 1..count, lane 0 golden), and runs the
// session.  No scheduler, no reused state: the scheduler-free reference
// every campaign mode is tested against (tests/oracle.h).
template <class Engine>
typename Engine::Verdict run_campaign_unit(const SchemePlan& plan, std::size_t words,
                                           const Fault* faults, unsigned count,
                                           std::uint64_t seed) {
  typename Engine::Memory mem(words, plan.width);
  if (seed != 0) mem.fill_seeded(seed);

  // TOMT's parity protection was established while the memory was healthy.
  std::vector<bool> ledger;
  if (plan.scheme == SchemeKind::TomtModel)
    fill_parity_ledger<Engine>(mem, AddressList::all(words), ledger);

  for (unsigned i = 0; i < count; ++i) Engine::inject(mem, faults[i], i);

  return run_scheme_session<Engine>(mem, plan, ledger);
}

// run_campaign_unit against a caller-owned memory, reset in place to the
// seed's table `limbs` (seeded_limbs, memsim/limb_bits.h; null for seed 0),
// with the session walking `list`: the repack scheduler keeps one memory
// and one session scratch per worker, generates each seed's table once per
// campaign and re-seeds the memory from it per unit, so the slot store, the
// fault masks and buckets and the session buffers keep their allocations
// across the thousands of units a campaign shards: a packed unit allocates
// nothing in steady state.  `list` is every word (scalar) or the batch's
// fault_footprint() (packed, usually held in scratch.footprint); `masks`
// are the plan's, compiled once per campaign.
template <class Engine>
typename Engine::Verdict run_campaign_unit_in(typename Engine::Memory& mem,
                                              const SchemePlan& plan, const PlanOpMasks& masks,
                                              SessionScratch<Engine>& scratch,
                                              const Fault* faults, unsigned count,
                                              const std::uint64_t* limbs,
                                              typename Engine::Brake* brake, AddressList list) {
  mem.clear_faults();
  // A packed refill borrows the table and costs O(live slots), not
  // O(words); the scalar reference copies it, as it walks every word anyway.
  mem.fill_limbs(limbs);

  // The listed words' ledger bits, read from the pre-injection background.
  if (plan.scheme == SchemeKind::TomtModel)
    fill_parity_ledger<Engine>(mem, list, scratch.tomt_ledger);

  for (unsigned i = 0; i < count; ++i) Engine::inject(mem, faults[i], i);

  return run_scheme_session<Engine>(mem, plan, scratch.tomt_ledger, brake, list, masks, scratch);
}

}  // namespace twm

#endif  // TWM_CORE_SCHEME_SESSION_H
