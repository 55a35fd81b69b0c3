#include "memsim/fault.h"

#include <algorithm>
#include <sstream>

namespace twm {

std::string to_string(FaultClass c) {
  switch (c) {
    case FaultClass::SAF: return "SAF";
    case FaultClass::TF: return "TF";
    case FaultClass::CFst: return "CFst";
    case FaultClass::CFid: return "CFid";
    case FaultClass::CFin: return "CFin";
    case FaultClass::RET: return "RET";
    case FaultClass::AFna: return "AFna";
    case FaultClass::AFaw: return "AFaw";
  }
  return "?";
}

namespace {
std::string cell_str(const CellAddr& c) {
  std::ostringstream os;
  os << "w" << c.word << ".b" << c.bit;
  return os.str();
}
std::string trans_str(Transition t) { return t == Transition::Up ? "^" : "v"; }
}  // namespace

std::string Fault::describe() const {
  std::ostringstream os;
  os << to_string(cls);
  switch (cls) {
    case FaultClass::SAF:
      os << "(" << (value ? 1 : 0) << ") @" << cell_str(victim);
      break;
    case FaultClass::TF:
      os << "(" << trans_str(trans) << ") @" << cell_str(victim);
      break;
    case FaultClass::CFst:
      os << "<" << (state ? 1 : 0) << ";" << (value ? 1 : 0) << "> " << cell_str(aggressor)
         << "->" << cell_str(victim);
      break;
    case FaultClass::CFid:
      os << "<" << trans_str(trans) << ";" << (value ? 1 : 0) << "> " << cell_str(aggressor)
         << "->" << cell_str(victim);
      break;
    case FaultClass::CFin:
      os << "<" << trans_str(trans) << "> " << cell_str(aggressor) << "->" << cell_str(victim);
      break;
    case FaultClass::RET:
      os << "(" << (value ? 1 : 0) << "," << retention << "u) @" << cell_str(victim);
      break;
    case FaultClass::AFna:
      os << " @w" << victim.word;
      break;
    case FaultClass::AFaw:
      os << " w" << victim.word << "~w" << aggressor.word;
      break;
  }
  if (is_coupling()) os << (intra_word() ? " [intra]" : " [inter]");
  return os.str();
}

Fault Fault::saf(CellAddr cell, bool stuck_value) {
  Fault f;
  f.cls = FaultClass::SAF;
  f.victim = cell;
  f.value = stuck_value;
  return f;
}

Fault Fault::tf(CellAddr cell, Transition failing) {
  Fault f;
  f.cls = FaultClass::TF;
  f.victim = cell;
  f.trans = failing;
  return f;
}

Fault Fault::cfst(CellAddr aggressor, bool aggressor_state, CellAddr victim, bool forced) {
  Fault f;
  f.cls = FaultClass::CFst;
  f.aggressor = aggressor;
  f.state = aggressor_state;
  f.victim = victim;
  f.value = forced;
  return f;
}

Fault Fault::cfid(CellAddr aggressor, Transition trigger, CellAddr victim, bool forced) {
  Fault f;
  f.cls = FaultClass::CFid;
  f.aggressor = aggressor;
  f.trans = trigger;
  f.victim = victim;
  f.value = forced;
  return f;
}

Fault Fault::cfin(CellAddr aggressor, Transition trigger, CellAddr victim) {
  Fault f;
  f.cls = FaultClass::CFin;
  f.aggressor = aggressor;
  f.trans = trigger;
  f.victim = victim;
  return f;
}

Fault Fault::ret(CellAddr cell, bool decay_value, unsigned hold_units) {
  Fault f;
  f.cls = FaultClass::RET;
  f.victim = cell;
  f.value = decay_value;
  f.retention = hold_units;
  return f;
}

Fault Fault::af_no_access(std::size_t word) {
  Fault f;
  f.cls = FaultClass::AFna;
  f.victim = {word, 0};
  return f;
}

Fault Fault::af_alias(std::size_t word, std::size_t also) {
  Fault f;
  f.cls = FaultClass::AFaw;
  f.victim = {word, 0};
  f.aggressor = {also, 0};
  return f;
}

std::vector<std::size_t> fault_footprint(const Fault* faults, std::size_t count) {
  std::vector<std::size_t> words;
  words.reserve(2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    const Fault& f = faults[i];
    words.push_back(f.victim.word);
    if (f.is_coupling() || f.cls == FaultClass::AFaw) words.push_back(f.aggressor.word);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

}  // namespace twm
