// Fault localization from transparent test sessions.
//
// A comparator-based transparent BIST (instead of — or alongside — the
// MISR) can record where the observed read stream first deviates from the
// prediction.  Because march execution order is deterministic, the stream
// index maps back to (element, operation, address), which localizes the
// fault to a word, and the XOR of predicted and observed data gives the
// failing bit syndrome.  Combined with spare words (memsim/repair.h) this
// yields the classic BIST + BISR flow: detect -> diagnose -> remap ->
// retest clean.
#ifndef TWM_ANALYSIS_DIAGNOSIS_H
#define TWM_ANALYSIS_DIAGNOSIS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "march/test.h"
#include "memsim/fault.h"
#include "memsim/memory.h"

namespace twm {

struct OpLocation {
  std::size_t element = 0;
  std::size_t op_index = 0;     // Read index *within* the element
  std::size_t addr = 0;
  std::size_t stream_index = 0;  // position in the read stream
};

struct Diagnosis {
  bool fault_found = false;
  std::size_t suspect_word = 0;  // address whose read first deviated
  BitVec bit_syndrome;           // predicted XOR observed at that read
  OpLocation location;
  std::size_t mismatch_count = 0;  // total deviating reads in the session
};

// Runs prediction + test on `mem` and maps the first stream mismatch back
// to its operation.  Uses the given transparent march and its prediction
// test (as produced by twm_transform()).
Diagnosis diagnose_transparent(MemoryIf& mem, const MarchTest& test, const MarchTest& prediction);

// Diagnosis campaign: one Diagnosis per fault, each obtained by injecting
// the fault into a fresh memory holding the seed's contents (one table,
// seeded_limbs, for every fault; seed 0 = all-zero) and
// running the TWMarch transparent session compiled once into a SchemePlan.
// Faults are sharded across `threads` workers with the same pool the
// coverage campaigns use (analysis/campaign.h).
std::vector<Diagnosis> diagnose_campaign(const MarchTest& bit_march, std::size_t words,
                                         unsigned width, const std::vector<Fault>& faults,
                                         std::uint64_t seed, unsigned threads = 1);

// Maps a read-stream position to (element, in-element read index, address)
// for a march executed on `num_words` words.  Throws std::out_of_range if
// the index exceeds the stream length.
OpLocation locate_read(const MarchTest& test, std::size_t stream_index, std::size_t num_words);

}  // namespace twm

#endif  // TWM_ANALYSIS_DIAGNOSIS_H
