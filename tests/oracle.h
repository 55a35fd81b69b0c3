// Scheduler-free reference verdicts for differential tests.
//
// Every (fault, seed) pair runs alone through run_campaign_unit<ScalarEngine>
// on a fresh scalar memory: no scheduler, no threads, no reused worker
// state.  Every campaign mode — backend, lane width, region count — must
// reproduce this matrix byte for byte.
#ifndef TWM_TESTS_ORACLE_H
#define TWM_TESTS_ORACLE_H

#include <cstdint>
#include <vector>

#include "analysis/campaign.h"
#include "core/scheme_session.h"

namespace twm {

inline VerdictMatrix oracle_matrix(SchemeKind scheme, const MarchTest& march, std::size_t words,
                                   unsigned width, const std::vector<Fault>& faults,
                                   const std::vector<std::uint64_t>& seeds) {
  const SchemePlan plan = make_scheme_plan(scheme, march, width);
  VerdictMatrix m;
  m.num_faults = faults.size();
  m.num_seeds = seeds.size();
  m.bits.reserve(faults.size() * seeds.size());
  for (const Fault& f : faults)
    for (const std::uint64_t seed : seeds)
      m.bits.push_back(
          static_cast<char>(run_campaign_unit<ScalarEngine>(plan, words, &f, 1, seed)));
  return m;
}

// Per-fault "detected under every seed" — the per_fault() shape.
inline std::vector<bool> oracle_per_fault(SchemeKind scheme, const MarchTest& march,
                                          std::size_t words, unsigned width,
                                          const std::vector<Fault>& faults,
                                          const std::vector<std::uint64_t>& seeds) {
  const VerdictMatrix m = oracle_matrix(scheme, march, words, width, faults, seeds);
  std::vector<bool> all(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) all[i] = m.detected_all(i);
  return all;
}

}  // namespace twm

#endif  // TWM_TESTS_ORACLE_H
