#include "core/symmetric.h"

#include <stdexcept>

namespace twm {

bool is_symmetric(const MarchTest& transparent) {
  return transparent.read_count() % 2 == 0;
}

BitVec SymmetricTest::expected_signature(std::size_t num_words) const {
  return (num_words % 2 == 0) ? BitVec::zeros(mask_xor.width()) : mask_xor;
}

SymmetricTest symmetrize(const MarchTest& transparent, unsigned width) {
  if (!transparent.is_transparent())
    throw std::invalid_argument("symmetrize: input must be a transparent march");
  const auto final_spec = transparent.final_write_spec();
  if (final_spec.has_value() && !final_spec->mask(width).all_zero())
    throw std::invalid_argument("symmetrize: test must restore the initial content");

  SymmetricTest st;
  st.test = transparent;
  st.test.name = "Sym-" + transparent.name;

  if (!is_symmetric(st.test)) {
    DataSpec initial;
    initial.relative = true;
    MarchElement balance;
    balance.order = AddrOrder::Any;
    balance.ops = {Op::read(initial)};
    st.test.elements.push_back(std::move(balance));
  }

  st.mask_xor = BitVec::zeros(width);
  for (const auto& e : st.test.elements)
    for (const auto& op : e.ops)
      if (op.is_read()) st.mask_xor ^= op.data.mask(width);
  return st;
}

SymmetricOutcome run_symmetric_session(Memory& mem, const SymmetricTest& st) {
  MarchRunner runner(mem);
  XorAccumulator acc;
  const bool detected =
      run_symmetric_session_t<ScalarEngine>(runner, st, AddressList::all(mem.num_words()), acc);
  return {detected, acc.value()};
}

}  // namespace twm
