// Address sequence generator for march elements.
//
// AddrOrder::Any is executed ascending by convention (any consistent order
// is permitted by march semantics; using the same one keeps prediction and
// test passes aligned).
//
// AddressList names the set of words a packed march sweep visits: either
// every word of the memory or a sorted subset (a campaign unit's fault
// footprint, analysis/campaign_exec.h).  Either way the sweep walks it in
// element order — ascending for Up/Any, reversed for Down — so one sweep
// serves both address sets.
#ifndef TWM_BIST_ADDRESS_GEN_H
#define TWM_BIST_ADDRESS_GEN_H

#include <cstddef>
#include <vector>

#include "march/op.h"

namespace twm {

// Ascending word addresses: `addrs[0..size)` when `addrs` is set, else
// every word 0..size-1 (no list is materialized for the full walk).
struct AddressList {
  const std::size_t* addrs = nullptr;
  std::size_t size = 0;

  static AddressList all(std::size_t num_words) { return {nullptr, num_words}; }
  static AddressList of(const std::vector<std::size_t>& sorted) {
    return {sorted.data(), sorted.size()};
  }

  bool full() const { return addrs == nullptr; }
  std::size_t operator[](std::size_t i) const { return addrs ? addrs[i] : i; }
  // The i-th address visited by an element walked in `order`.
  std::size_t visit(AddrOrder order, std::size_t i) const {
    return (*this)[order == AddrOrder::Down ? size - 1 - i : i];
  }
};

class AddressGen {
 public:
  AddressGen(AddrOrder order, std::size_t num_words);

  bool done() const { return remaining_ == 0; }
  std::size_t current() const { return cur_; }
  void advance();
  void reset();

  std::size_t num_words() const { return n_; }

  // Convenience: the full sequence as a vector.
  static std::vector<std::size_t> sequence(AddrOrder order, std::size_t num_words);

 private:
  AddrOrder order_;
  std::size_t n_;
  std::size_t cur_ = 0;
  std::size_t remaining_ = 0;
};

}  // namespace twm

#endif  // TWM_BIST_ADDRESS_GEN_H
