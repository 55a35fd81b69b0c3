#include "memsim/fault.h"

#include <algorithm>
#include <charconv>

namespace twm {

namespace {

const char* class_name(FaultClass c) {
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

void append_uint(std::string& out, std::size_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_cell(std::string& out, const CellAddr& c) {
  out += 'w';
  append_uint(out, c.word);
  out += ".b";
  append_uint(out, c.bit);
}

char trans_char(Transition t) { return t == Transition::Up ? '^' : 'v'; }
char bit_char(bool b) { return b ? '1' : '0'; }

}  // namespace

std::string to_string(FaultClass c) { return class_name(c); }

std::string Fault::describe() const {
  std::string out;
  append_describe(out);
  return out;
}

void Fault::append_describe(std::string& out) const {
  out += class_name(cls);
  switch (cls) {
    case FaultClass::SAF:
      out += '(';
      out += bit_char(value);
      out += ") @";
      append_cell(out, victim);
      break;
    case FaultClass::TF:
      out += '(';
      out += trans_char(trans);
      out += ") @";
      append_cell(out, victim);
      break;
    case FaultClass::CFst:
    case FaultClass::CFid:
    case FaultClass::CFin:
      out += '<';
      out += cls == FaultClass::CFst ? bit_char(state) : trans_char(trans);
      if (cls != FaultClass::CFin) {
        out += ';';
        out += bit_char(value);
      }
      out += "> ";
      append_cell(out, aggressor);
      out += "->";
      append_cell(out, victim);
      out += intra_word() ? " [intra]" : " [inter]";
      break;
    case FaultClass::RET:
      out += '(';
      out += bit_char(value);
      out += ',';
      append_uint(out, retention);
      out += "u) @";
      append_cell(out, victim);
      break;
    case FaultClass::AFna:
      out += " @w";
      append_uint(out, victim.word);
      break;
    case FaultClass::AFaw:
      out += " w";
      append_uint(out, victim.word);
      out += "~w";
      append_uint(out, aggressor.word);
      break;
  }
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

void fault_footprint(const Fault* faults, std::size_t count, std::vector<std::size_t>& words) {
  words.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const Fault& f = faults[i];
    words.push_back(f.victim.word);
    if (f.is_coupling() || f.cls == FaultClass::AFaw) words.push_back(f.aggressor.word);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
}

}  // namespace twm
