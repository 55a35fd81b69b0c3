#include "march/word_expand.h"

#include <stdexcept>

#include "util/backgrounds.h"

namespace twm {

MarchTest solid_march(const MarchTest& bit_march) {
  MarchTest t = bit_march;
  t.name = "S" + bit_march.name;
  for (auto& e : t.elements)
    for (auto& op : e.ops)
      if (op.data.relative || !op.data.pattern.empty())
        throw std::invalid_argument("solid_march: input must be a plain bit-oriented march");
  return t;
}

MarchTest word_oriented_march(const MarchTest& bit_march, unsigned width) {
  const auto backgrounds = standard_backgrounds(width);
  MarchTest t;
  t.name = "WO-" + bit_march.name;
  for (std::size_t k = 0; k < backgrounds.size(); ++k) {
    const BitVec& d = backgrounds[k];
    const std::string label = std::string("D").append(std::to_string(k));
    for (const auto& e : bit_march.elements) {
      MarchElement we;
      we.order = e.order;
      we.pause_before = e.pause_before;
      for (const auto& op : e.ops) {
        DataSpec spec;
        spec.relative = false;
        spec.complement = op.data.complement;
        // D0 is all-zero: keep the spec pattern-free so pass 0 is exactly
        // the solid march.
        if (!d.all_zero()) {
          spec.pattern = d;
          spec.label = label;
        }
        we.ops.push_back(Op{op.kind, spec});
      }
      t.elements.push_back(std::move(we));
    }
  }
  return t;
}

MarchTest nontransparent_amarch(unsigned width, bool base_complement) {
  MarchTest t;
  t.name = "AMarch";
  const DataSpec base{false, base_complement, {}, {}};
  const auto ds = checkerboard_backgrounds(width);
  for (std::size_t k = 0; k < ds.size(); ++k) {
    DataSpec flipped{false, base_complement, ds[k], std::string("D").append(std::to_string(k + 1))};
    MarchElement e;
    e.order = AddrOrder::Any;
    e.ops = {Op::read(base), Op::write(flipped), Op::read(flipped), Op::write(base),
             Op::read(base)};
    t.elements.push_back(std::move(e));
  }
  MarchElement last;
  last.order = AddrOrder::Any;
  last.ops = {Op::read(base)};
  t.elements.push_back(std::move(last));
  return t;
}

}  // namespace twm
