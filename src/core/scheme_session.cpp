#include "core/scheme_session.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "core/nicolaidis.h"
#include "core/scheme1.h"
#include "core/twm_ta.h"
#include "march/word_expand.h"

namespace twm {

std::string to_string(SchemeKind k) {
  switch (k) {
    case SchemeKind::NontransparentReference: return "SMarch+AMarch (nontransparent)";
    case SchemeKind::WordOrientedMarch: return "word-oriented march (nontransparent)";
    case SchemeKind::ProposedExact: return "TWMarch (exact compare)";
    case SchemeKind::ProposedMisr: return "TWMarch (MISR)";
    case SchemeKind::ProposedSymmetricXor: return "symmetric TWMarch (XOR acc, TCP=0)";
    case SchemeKind::TsmarchOnly: return "TSMarch only (no ATMarch)";
    case SchemeKind::Scheme1Exact: return "Scheme 1 [12] (exact compare)";
    case SchemeKind::TomtModel: return "TOMT model [13]";
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> g_plan_builds{0};
}  // namespace

std::uint64_t scheme_plan_build_count() { return g_plan_builds.load(); }

std::size_t plan_session_elements(const SchemePlan& plan) {
  switch (plan.scheme) {
    case SchemeKind::NontransparentReference:
      return plan.direct_a.elements.size() + plan.direct_b.elements.size();
    case SchemeKind::WordOrientedMarch: return plan.direct_a.elements.size();
    case SchemeKind::ProposedExact:
    case SchemeKind::ProposedMisr:
    case SchemeKind::TsmarchOnly:
    case SchemeKind::Scheme1Exact:
      return plan.trans.elements.size() + plan.prediction.elements.size();
    case SchemeKind::ProposedSymmetricXor: return plan.sym.test.elements.size();
    case SchemeKind::TomtModel: return 1;  // single-element per-word sweep
  }
  return 0;
}

SchemePlan make_scheme_plan(SchemeKind scheme, const MarchTest& bit_march, unsigned width) {
  g_plan_builds.fetch_add(1, std::memory_order_relaxed);
  SchemePlan p;
  p.scheme = scheme;
  p.width = width;
  switch (scheme) {
    case SchemeKind::NontransparentReference: {
      p.direct_a = solid_march(bit_march);
      const auto final_spec = p.direct_a.final_write_spec();
      const bool base_inv = final_spec.has_value() && final_spec->complement;
      p.direct_b = nontransparent_amarch(width, base_inv);
      break;
    }
    case SchemeKind::WordOrientedMarch:
      p.direct_a = word_oriented_march(bit_march, width);
      break;
    case SchemeKind::ProposedExact:
    case SchemeKind::ProposedMisr: {
      const TwmResult t = twm_transform(bit_march, width);
      p.trans = t.twmarch;
      p.prediction = t.prediction;
      // A practical transparent BIST sizes its MISR for a negligible
      // aliasing probability; 16 bits keeps aliasing (2^-16 per fault)
      // below a campaign's resolution even for narrow words.
      p.misr = MisrJumps::build(std::max(16u, width));
      break;
    }
    case SchemeKind::ProposedSymmetricXor: {
      const TwmResult t = twm_transform(bit_march, width);
      p.sym = symmetrize(t.twmarch, width);
      break;
    }
    case SchemeKind::TsmarchOnly: {
      const TwmResult t = twm_transform(bit_march, width);
      p.trans = t.tsmarch;
      p.prediction = prediction_test(t.tsmarch);
      p.misr = MisrJumps::build(width);
      break;
    }
    case SchemeKind::Scheme1Exact: {
      const Scheme1Result s = scheme1_transform(bit_march, width);
      p.trans = s.transparent;
      p.prediction = s.prediction;
      p.misr = MisrJumps::build(width);
      break;
    }
    case SchemeKind::TomtModel:
      p.tomt = tomt_test(width);
      break;
  }
  if (!transparent_passes_aligned(p.trans, p.prediction))
    throw std::logic_error("make_scheme_plan: " + to_string(scheme) +
                           " test and prediction passes are not walk-aligned");
  return p;
}

bool transparent_passes_aligned(const MarchTest& test, const MarchTest& prediction) {
  // (descending?, reads per address) of every element that reads.
  const auto shape = [](const MarchTest& t) {
    std::vector<std::pair<bool, std::size_t>> out;
    for (const MarchElement& e : t.elements)
      if (e.read_count()) out.emplace_back(e.order == AddrOrder::Down, e.read_count());
    return out;
  };
  return shape(test) == shape(prediction);
}

}  // namespace twm
