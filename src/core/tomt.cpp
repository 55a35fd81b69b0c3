#include "core/tomt.h"

#include <stdexcept>

namespace twm {

MarchTest tomt_test(unsigned width) {
  if (width == 0) throw std::invalid_argument("tomt_test: zero width");
  MarchTest t;
  t.name = "TOMT-B" + std::to_string(width);

  DataSpec base;  // a
  base.relative = true;
  DataSpec inv;  // ~a
  inv.relative = true;
  inv.complement = true;

  MarchElement e;
  e.order = AddrOrder::Up;

  // Word-level prologue (5 ops): solid up/down transitions of all bits.
  e.ops = {Op::read(base), Op::write(inv), Op::read(inv), Op::write(base), Op::read(base)};

  // Per-bit block (8 ops): walk a single flipped bit against both solid
  // backgrounds; starts and ends at `a`.
  for (unsigned j = 0; j < width; ++j) {
    BitVec unit = BitVec::zeros(width);
    unit.set(j, true);
    DataSpec flip = base;
    flip.pattern = unit;
    flip.label = std::string("e").append(std::to_string(j));
    DataSpec flip_inv = inv;
    flip_inv.pattern = unit;
    flip_inv.label = flip.label;

    e.ops.push_back(Op::write(flip));
    e.ops.push_back(Op::read(flip));
    e.ops.push_back(Op::write(flip_inv));
    e.ops.push_back(Op::read(flip_inv));
    e.ops.push_back(Op::write(flip));
    e.ops.push_back(Op::read(flip));
    e.ops.push_back(Op::write(base));
    e.ops.push_back(Op::read(base));
  }

  // Epilogue (2 ops): parity re-verification reads.
  e.ops.push_back(Op::read(base));
  e.ops.push_back(Op::read(base));

  t.elements.push_back(std::move(e));
  return t;
}

std::vector<bool> make_parity_ledger(const Memory& mem) {
  std::vector<bool> ledger(mem.num_words());
  for (std::size_t i = 0; i < mem.num_words(); ++i) ledger[i] = mem.peek(i).parity();
  return ledger;
}

TomtResult run_tomt(Memory& mem, const std::vector<bool>& parity_ledger) {
  const auto s = run_tomt_session<ScalarEngine>(mem, parity_ledger);
  return {s.detected, s.fail_addr, s.operations};
}

}  // namespace twm
