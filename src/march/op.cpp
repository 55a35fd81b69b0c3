#include "march/op.h"

#include <stdexcept>

namespace twm {

BitVec DataSpec::mask(unsigned width) const {
  BitVec m = complement ? BitVec::ones(width) : BitVec::zeros(width);
  if (!pattern.empty()) {
    if (pattern.width() != width)
      throw std::invalid_argument("DataSpec::mask: pattern width mismatch");
    m ^= pattern;
  }
  return m;
}

BitVec DataSpec::value(unsigned width, const BitVec& initial) const {
  BitVec v = mask(width);
  if (relative) {
    if (initial.width() != width)
      throw std::invalid_argument("DataSpec::value: initial width mismatch");
    v ^= initial;
  }
  return v;
}

std::string DataSpec::to_string() const {
  const std::string pat = pattern.empty() ? std::string() : (label.empty() ? pattern.to_string() : label);
  if (relative) {
    std::string s = complement ? "~a" : "a";
    if (!pat.empty()) s += "^" + pat;
    return s;
  }
  if (pat.empty()) return complement ? "1" : "0";
  return (complement ? "~" : "") + pat;
}

std::string Op::to_string() const {
  return std::string(kind == OpKind::Read ? "r(" : "w(").append(data.to_string()).append(")");
}

std::string to_string(AddrOrder o) {
  switch (o) {
    case AddrOrder::Up: return "up";
    case AddrOrder::Down: return "down";
    case AddrOrder::Any: return "any";
  }
  return "?";
}

}  // namespace twm
