#include "core/twm_ta.h"

#include <stdexcept>

#include "core/nicolaidis.h"
#include "march/word_expand.h"
#include "util/backgrounds.h"

namespace twm {

MarchTest atmarch(unsigned width, bool base_inverted) {
  MarchTest t;
  t.name = "ATMarch";
  DataSpec base;
  base.relative = true;
  base.complement = base_inverted;

  const auto ds = checkerboard_backgrounds(width);
  for (std::size_t k = 0; k < ds.size(); ++k) {
    DataSpec flipped = base;
    flipped.pattern = ds[k];
    flipped.label = std::string("D").append(std::to_string(k + 1));
    MarchElement e;
    e.order = AddrOrder::Any;
    e.ops = {Op::read(base), Op::write(flipped), Op::read(flipped), Op::write(base),
             Op::read(base)};
    t.elements.push_back(std::move(e));
  }

  MarchElement closing;
  closing.order = AddrOrder::Any;
  if (base_inverted) {
    DataSpec initial;
    initial.relative = true;
    closing.ops = {Op::read(base), Op::write(initial)};  // restore a
  } else {
    closing.ops = {Op::read(base)};
  }
  t.elements.push_back(std::move(closing));
  return t;
}

TwmResult twm_transform(const MarchTest& bit_march, unsigned width) {
  if (bit_march.empty() || bit_march.op_count() == 0)
    throw std::invalid_argument("twm_transform: empty march test");  // Algorithm 1: Abort
  if (!is_power_of_two(width))
    throw std::invalid_argument("twm_transform: word width must be a power of two");

  TwmResult res;

  // Step 1: solid data backgrounds.
  res.smarch = solid_march(bit_march);

  // Step 2: a trailing Write would leave the final content unobserved.
  const Op* last = res.smarch.last_op();
  if (last != nullptr && last->is_write()) {
    Op read_back = Op::read(last->data);
    res.smarch.elements.back().ops.push_back(read_back);
  }

  // Step 3: transparency rules, restore deferred to ATMarch.
  res.tsmarch = nicolaidis_transparent(res.smarch, /*defer_restore=*/true);
  res.tsmarch.name = "TS" + bit_march.name;

  // Step 4: which content did TSMarch leave?
  const auto final_spec = res.tsmarch.final_write_spec();
  res.final_content_inverted = final_spec.has_value() && final_spec->complement;
  res.atmarch = atmarch(width, res.final_content_inverted);

  // Step 5: concatenate and derive the prediction test.
  res.twmarch.name = "TWM-" + bit_march.name + "-B" + std::to_string(width);
  res.twmarch.elements = res.tsmarch.elements;
  res.twmarch.elements.insert(res.twmarch.elements.end(), res.atmarch.elements.begin(),
                              res.atmarch.elements.end());
  res.prediction = prediction_test(res.twmarch);
  return res;
}

}  // namespace twm
