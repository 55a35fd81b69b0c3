#include "analysis/diagnosis.h"

#include <stdexcept>

#include "analysis/campaign.h"
#include "bist/address_gen.h"
#include "bist/engine.h"
#include "memsim/limb_bits.h"

namespace twm {

OpLocation locate_read(const MarchTest& test, std::size_t stream_index, std::size_t num_words) {
  std::size_t remaining = stream_index;
  for (std::size_t e = 0; e < test.elements.size(); ++e) {
    const MarchElement& elem = test.elements[e];
    const std::size_t reads_per_word = elem.read_count();
    if (reads_per_word == 0) continue;
    const std::size_t reads_in_element = reads_per_word * num_words;
    if (remaining >= reads_in_element) {
      remaining -= reads_in_element;
      continue;
    }
    const std::size_t word_pos = remaining / reads_per_word;
    const std::size_t read_in_word = remaining % reads_per_word;
    const auto seq = AddressGen::sequence(elem.order, num_words);
    // Map the read ordinal to the op index.
    std::size_t seen = 0;
    for (std::size_t i = 0; i < elem.ops.size(); ++i) {
      if (!elem.ops[i].is_read()) continue;
      if (seen == read_in_word)
        return {e, i, seq[word_pos], stream_index};
      ++seen;
    }
  }
  throw std::out_of_range("locate_read: stream index beyond test length");
}

Diagnosis diagnose_transparent(MemoryIf& mem, const MarchTest& test, const MarchTest& prediction) {
  MarchRunner runner(mem);

  StreamRecorder pred;
  runner.run_prediction(prediction, pred);
  StreamRecorder obs;
  runner.run_test(test, obs);

  Diagnosis d;
  if (pred.stream().size() != obs.stream().size())
    throw std::logic_error("diagnose_transparent: prediction/test read counts differ");

  for (std::size_t i = 0; i < pred.stream().size(); ++i) {
    if (pred.stream()[i] == obs.stream()[i]) continue;
    if (!d.fault_found) {
      d.fault_found = true;
      d.location = locate_read(test, i, mem.num_words());
      d.suspect_word = d.location.addr;
      d.bit_syndrome = pred.stream()[i] ^ obs.stream()[i];
    }
    ++d.mismatch_count;
  }
  return d;
}

std::vector<Diagnosis> diagnose_campaign(const MarchTest& bit_march, std::size_t words,
                                         unsigned width, const std::vector<Fault>& faults,
                                         std::uint64_t seed, unsigned threads) {
  // One plan for the whole campaign; only its transparent session passes
  // are consulted.
  const SchemePlan plan = make_scheme_plan(SchemeKind::ProposedExact, bit_march, width);

  // The seed's contents, generated once and copied into each fault's memory.
  const std::vector<std::uint64_t> limbs = seeded_limbs(words, width, seed);
  std::vector<Diagnosis> out(faults.size());
  WorkerPool(threads).for_each(faults.size(), [&](std::size_t i) {
    Memory mem(words, width);
    mem.fill_limbs(seed != 0 ? limbs.data() : nullptr);
    mem.inject(faults[i]);
    out[i] = diagnose_transparent(mem, plan.trans, plan.prediction);
  });
  return out;
}

}  // namespace twm
