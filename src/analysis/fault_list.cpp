#include "analysis/fault_list.h"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "core/scheme_session.h"

namespace twm {
namespace {

// A word of a list's loop as a CellAddr word: every word a valid geometry
// enumerates fits its 32 bits (kMaxWords, fault.h).
std::uint32_t word_index(std::size_t word) { return static_cast<std::uint32_t>(word); }

bool scope_ok(const CellAddr& agg, const CellAddr& vic, CfScope scope) {
  switch (scope) {
    case CfScope::IntraWord: return agg.word == vic.word;
    case CfScope::InterWord: return agg.word != vic.word;
    case CfScope::Both: return true;
  }
  return false;
}

// All class variants of a coupling fault between a fixed cell pair.
void push_variants(std::vector<Fault>& out, FaultClass cls, CellAddr agg, CellAddr vic) {
  switch (cls) {
    case FaultClass::CFst:
      for (bool s : {false, true})
        for (bool v : {false, true}) out.push_back(Fault::cfst(agg, s, vic, v));
      break;
    case FaultClass::CFid:
      for (Transition t : {Transition::Up, Transition::Down})
        for (bool v : {false, true}) out.push_back(Fault::cfid(agg, t, vic, v));
      break;
    case FaultClass::CFin:
      for (Transition t : {Transition::Up, Transition::Down})
        out.push_back(Fault::cfin(agg, t, vic));
      break;
    default:
      throw std::invalid_argument("push_variants: not a coupling fault class");
  }
}

}  // namespace

std::vector<Fault> all_safs(std::size_t words, unsigned width) {
  std::vector<Fault> out;
  out.reserve(words * width * 2);
  for (std::size_t w = 0; w < words; ++w)
    for (unsigned b = 0; b < width; ++b)
      for (bool v : {false, true}) out.push_back(Fault::saf({word_index(w), b}, v));
  return out;
}

std::vector<Fault> all_tfs(std::size_t words, unsigned width) {
  std::vector<Fault> out;
  out.reserve(words * width * 2);
  for (std::size_t w = 0; w < words; ++w)
    for (unsigned b = 0; b < width; ++b)
      for (Transition t : {Transition::Up, Transition::Down})
        out.push_back(Fault::tf({word_index(w), b}, t));
  return out;
}

std::vector<Fault> all_rets(std::size_t words, unsigned width, unsigned hold_units) {
  std::vector<Fault> out;
  out.reserve(words * width * 2);
  for (std::size_t w = 0; w < words; ++w)
    for (unsigned b = 0; b < width; ++b)
      for (bool v : {false, true}) out.push_back(Fault::ret({word_index(w), b}, v, hold_units));
  return out;
}

std::vector<Fault> all_afs(std::size_t words) {
  std::vector<Fault> out;
  out.reserve(words * words);
  for (std::size_t w = 0; w < words; ++w) out.push_back(Fault::af_no_access(word_index(w)));
  for (std::size_t w = 0; w < words; ++w)
    for (std::size_t also = 0; also < words; ++also)
      if (also != w) out.push_back(Fault::af_alias(word_index(w), word_index(also)));
  return out;
}

std::vector<Fault> all_cfs(std::size_t words, unsigned width, FaultClass cls, CfScope scope) {
  std::vector<Fault> out;
  for (std::size_t aw = 0; aw < words; ++aw)
    for (unsigned ab = 0; ab < width; ++ab)
      for (std::size_t vw = 0; vw < words; ++vw)
        for (unsigned vb = 0; vb < width; ++vb) {
          const CellAddr agg{word_index(aw), ab};
          const CellAddr vic{word_index(vw), vb};
          if (agg == vic || !scope_ok(agg, vic, scope)) continue;
          push_variants(out, cls, agg, vic);
        }
  return out;
}

// ---- structural fault collapsing ----------------------------------------

namespace {

// All bits of the mask equal: the op writes (or expects) solid data.
bool solid_mask(const BitVec& mask) {
  for (unsigned j = 1; j < mask.width(); ++j)
    if (mask.get(j) != mask.get(0)) return false;
  return true;
}

bool all_ops_solid(const MarchTest& test, unsigned width) {
  for (const MarchElement& elem : test.elements)
    for (const Op& op : elem.ops)
      if (!solid_mask(op.data.mask(width))) return false;
  return true;
}

// The canonical bucket key: every field that can influence the verdict
// under the active collapsing rules.  kNoBit erases a bit index the rules
// proved irrelevant.
constexpr std::uint64_t kNoBit = ~0ull;
using BucketKey = std::array<std::uint64_t, 8>;

BucketKey bucket_key(const Fault& f, bool zero_contents, bool bit_symmetric) {
  Fault c = f;  // canonical form
  // SAF/TF equivalence: a cell that starts at 0 and cannot rise IS a cell
  // stuck at 0 (and, symmetrically in the model, a cell that cannot fall
  // from an initial 1 would be stuck at 1 — unreachable from all-zero
  // contents, so only the TF-up fold applies here).
  if (zero_contents && c.cls == FaultClass::TF && c.trans == Transition::Up) {
    c.cls = FaultClass::SAF;
    c.value = false;
    c.trans = Transition::Up;
  }
  std::uint64_t vbit = c.is_decoder() ? kNoBit : c.victim.bit;
  std::uint64_t abit = c.is_coupling() ? c.aggressor.bit : kNoBit;
  if (bit_symmetric && !c.is_decoder()) {
    vbit = kNoBit;
    abit = kNoBit;
  }
  return {static_cast<std::uint64_t>(c.cls),
          c.victim.word,
          vbit,
          c.is_coupling() || c.cls == FaultClass::AFaw ? c.aggressor.word : kNoBit,
          abit,
          static_cast<std::uint64_t>(c.value),
          (static_cast<std::uint64_t>(c.trans) << 1) | static_cast<std::uint64_t>(c.state),
          c.cls == FaultClass::RET ? c.retention : 0};
}

}  // namespace

bool plan_bit_symmetric(const SchemePlan& plan) {
  switch (plan.scheme) {
    case SchemeKind::ProposedMisr: return false;   // MISR folds bits by position
    case SchemeKind::TomtModel: return false;      // per-bit flip blocks
    case SchemeKind::NontransparentReference:
      return all_ops_solid(plan.direct_a, plan.width) &&
             all_ops_solid(plan.direct_b, plan.width);
    case SchemeKind::WordOrientedMarch:
      return all_ops_solid(plan.direct_a, plan.width);  // false: D backgrounds
    case SchemeKind::ProposedExact:
    case SchemeKind::TsmarchOnly:
    case SchemeKind::Scheme1Exact:
      return all_ops_solid(plan.trans, plan.width) &&
             all_ops_solid(plan.prediction, plan.width);
    case SchemeKind::ProposedSymmetricXor:
      return all_ops_solid(plan.sym.test, plan.width);
  }
  return false;
}

FaultCollapse collapse_faults(const std::vector<Fault>& faults, const SchemePlan& plan,
                              const std::vector<std::uint64_t>& seeds) {
  const bool zero_contents =
      std::all_of(seeds.begin(), seeds.end(), [](std::uint64_t s) { return s == 0; });
  const bool bit_symmetric = zero_contents && plan_bit_symmetric(plan);

  FaultCollapse fc;
  fc.bucket_of.resize(faults.size());
  std::map<BucketKey, std::uint32_t> buckets;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const BucketKey key = bucket_key(faults[i], zero_contents, bit_symmetric);
    const auto [it, inserted] =
        buckets.emplace(key, static_cast<std::uint32_t>(fc.representatives.size()));
    if (inserted) fc.representatives.push_back(faults[i]);
    fc.bucket_of[i] = it->second;
  }
  return fc;
}

std::vector<Fault> sampled_cfs(std::size_t words, unsigned width, FaultClass cls, CfScope scope,
                               std::size_t count, Rng& rng) {
  std::vector<Fault> out;
  out.reserve(count + 3);  // room for one pair's variants past the last draw
  while (out.size() < count) {
    // Braced lists draw left to right: aggressor word, bit, victim word, bit.
    const CellAddr agg{static_cast<std::uint32_t>(rng.next_below(words)),
                       static_cast<std::uint32_t>(rng.next_below(width))};
    const CellAddr vic{static_cast<std::uint32_t>(rng.next_below(words)),
                       static_cast<std::uint32_t>(rng.next_below(width))};
    if (agg == vic || !scope_ok(agg, vic, scope)) continue;
    // The pair's variants go to the tail of `out`; the drawn one stays.
    const std::size_t first = out.size();
    push_variants(out, cls, agg, vic);
    out[first] = out[first + rng.next_below(out.size() - first)];
    out.resize(first + 1);
  }
  return out;
}

}  // namespace twm
