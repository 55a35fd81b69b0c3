#include "core/scheme1.h"

#include <stdexcept>

#include "core/nicolaidis.h"
#include "util/backgrounds.h"

namespace twm {

Scheme1Result scheme1_transform(const MarchTest& bit_march, unsigned width) {
  if (bit_march.empty() || bit_march.op_count() == 0)
    throw std::invalid_argument("scheme1_transform: empty march test");

  const auto backgrounds = standard_backgrounds(width);

  MarchTest t;
  t.name = "S1-" + bit_march.name + "-B" + std::to_string(width);

  // Content the memory holds entering the next pass, as an XOR mask from
  // the initial content.  Starts at `a` itself.
  DataSpec content;
  content.relative = true;

  // The dropped first-pass init element defines `a`: the initial content is
  // identified with the value it last wrote, so with any(w1) as init every
  // datum is taken relative to 1 (w1 -> w(a), w0 -> w(~a)), exactly as
  // nicolaidis_transparent does.
  bool init_complement = false;
  if (bit_march.elements.front().all_writes())
    for (const auto& op : bit_march.elements.front().ops) init_complement = op.data.complement;

  for (std::size_t k = 0; k < backgrounds.size(); ++k) {
    const BitVec& d = backgrounds[k];
    const std::string label = std::string("D").append(std::to_string(k));

    // Per-bit transparency: bits where Dk = 1 run the test with inverted
    // data, so w0/r0 carry mask Dk and w1/r1 carry mask ~Dk.
    auto map_spec = [&](const DataSpec& in) {
      DataSpec out;
      out.relative = true;
      out.complement = in.complement != init_complement;
      if (!d.all_zero()) {
        out.pattern = d;
        out.label = label;
      }
      return out;
    };

    for (std::size_t ei = 0; ei < bit_march.elements.size(); ++ei) {
      const MarchElement& e = bit_march.elements[ei];
      MarchElement te;
      te.order = e.order;
      te.pause_before = e.pause_before;
      for (const auto& op : e.ops) te.ops.push_back(Op{op.kind, map_spec(op.data)});

      const bool is_first_pass_init = (k == 0 && ei == 0 && e.all_writes());
      if (is_first_pass_init) continue;  // Step 1 of [12]: drop it entirely

      // Every element must begin with a Read of the *current* content.
      if (!te.begins_with_read()) te.ops.insert(te.ops.begin(), Op::read(content));
      for (const auto& op : te.ops)
        if (op.is_write()) content = op.data;
      t.elements.push_back(std::move(te));
    }
  }

  // T4': restore the initial content if the last pass displaced it.
  if (content.complement || !content.pattern.empty()) {
    DataSpec initial;
    initial.relative = true;
    MarchElement restore;
    restore.order = AddrOrder::Any;
    restore.ops = {Op::read(content), Op::write(initial)};
    t.elements.push_back(std::move(restore));
  }

  Scheme1Result res;
  res.prediction = prediction_test(t);
  res.transparent = std::move(t);
  return res;
}

}  // namespace twm
