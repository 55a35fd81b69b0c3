// Fault-list generation for coverage campaigns.
//
// Exhaustive generators enumerate every single fault of a class in an
// N x B memory; the coupling-fault space is quadratic in the cell count, so
// sampled generators are provided for larger geometries.
#ifndef TWM_ANALYSIS_FAULT_LIST_H
#define TWM_ANALYSIS_FAULT_LIST_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "memsim/fault.h"
#include "util/rng.h"

namespace twm {

enum class CfScope { IntraWord, InterWord, Both };

std::vector<Fault> all_safs(std::size_t words, unsigned width);
std::vector<Fault> all_tfs(std::size_t words, unsigned width);

// Every data-retention fault decaying to 0 and to 1 after `hold_units`
// pause units (detected only by marches with Del elements, e.g. March G).
std::vector<Fault> all_rets(std::size_t words, unsigned width, unsigned hold_units);

// Every address-decoder fault: one AFna per address plus one AFaw per
// ordered address pair (word-level; no bit dimension).
std::vector<Fault> all_afs(std::size_t words);

// Every coupling fault of class `cls` (CFst: 4 variants per ordered cell
// pair, CFid: 4, CFin: 2) whose aggressor/victim placement matches `scope`.
std::vector<Fault> all_cfs(std::size_t words, unsigned width, FaultClass cls, CfScope scope);

// `count` coupling faults of class `cls` drawn uniformly (with replacement)
// from the scope's ordered cell pairs and variants.
std::vector<Fault> sampled_cfs(std::size_t words, unsigned width, FaultClass cls, CfScope scope,
                               std::size_t count, Rng& rng);

// ---- structural fault collapsing (analysis only) ------------------------
//
// Not on the run path: every campaign dispatches its whole fault list.
// Since the packed engine walks only a unit's fault footprint, a simulated
// fault costs about two words of walk, and bucketing the list cost more
// than the faults it saved (on the twmbench workloads it saved none).
// collapse_faults stays as a pure analysis of a list's structural
// redundancy; twmbench's traced driver reports its ratio.

struct SchemePlan;  // core/scheme_session.h

// A collapsed fault list: one representative per bucket of faults that are
// provably verdict-equivalent for THIS campaign (scheme plan + content
// seeds), plus the map back to the original list.
struct FaultCollapse {
  std::vector<Fault> representatives;  // one per bucket, stable order
  std::vector<std::uint32_t> bucket_of;  // [original index] -> rep index
};

// True when every fault universe of this plan is invariant under bit
// relabeling: all march data the plan's sessions write is SOLID (every
// op's data mask is all-zeros or all-ones, so under lane-uniform solid
// contents every bit of a word sees the same waveform) and the scheme's
// checker is bit-symmetric (exact compare / XOR parity / TOMT's parity
// ledger — anything that only asks "does SOME bit differ".  The MISR
// folds read bits by position and the TOMT per-word block flips
// individual bits, so those schemes report false).
bool plan_bit_symmetric(const SchemePlan& plan);

// Buckets the faults of one campaign by structural equivalence and picks
// the first member of each bucket as its representative.  Applied rules,
// each only when its precondition provably holds:
//
//  * duplicate elimination — identical Fault values (always sound),
//  * SAF/TF equivalence under all-zero contents (every seed == 0): a cell
//    that starts at 0 and cannot rise (TF up) is exactly a cell stuck at 0
//    (SAF0) — the two universes' state trajectories are identical under
//    every operation sequence,
//  * bit-address collapsing when plan_bit_symmetric(plan) AND every seed
//    is 0: the verdict of a SAF/TF/RET/CF depends only on the word-level
//    address structure and the class variant, not on which bit inside the
//    word carries it (address-symmetric pairs under solid backgrounds), so
//    one (word, variant) — or (aggressor word, victim word, variant) —
//    representative covers every bit placement.
//
// Decoder faults (AFna/AFaw) address whole words and only deduplicate.
// With no rule applicable the result is the identity mapping.
// tests/scheduler_test.cpp checks each rule's buckets against the
// scheduler-free oracle: members of one bucket share a verdict row.
FaultCollapse collapse_faults(const std::vector<Fault>& faults, const SchemePlan& plan,
                              const std::vector<std::uint64_t>& seeds);

}  // namespace twm

#endif  // TWM_ANALYSIS_FAULT_LIST_H
