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

char* put(char* p, const char* text) {
  while (*text) *p++ = *text++;
  return p;
}

// Fault::kDescribeMax counts 10 digits for a word, a bit and a retention.
static_assert(sizeof(CellAddr::word) <= 4 && sizeof(CellAddr::bit) <= 4 &&
              sizeof(Fault::retention) <= 4);

char* put_uint(char* p, std::uint32_t v) { return std::to_chars(p, p + 10, v).ptr; }

char* put_cell(char* p, const CellAddr& c) {
  *p++ = 'w';
  p = put_uint(p, c.word);
  *p++ = '.';
  *p++ = 'b';
  return put_uint(p, c.bit);
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
  char buf[kDescribeMax];
  out.append(buf, static_cast<std::size_t>(write_describe(buf) - buf));
}

char* Fault::write_describe(char* p) const {
  p = put(p, class_name(cls));
  switch (cls) {
    case FaultClass::SAF:
      *p++ = '(';
      *p++ = bit_char(value);
      p = put(p, ") @");
      return put_cell(p, victim);
    case FaultClass::TF:
      *p++ = '(';
      *p++ = trans_char(trans);
      p = put(p, ") @");
      return put_cell(p, victim);
    case FaultClass::CFst:
    case FaultClass::CFid:
    case FaultClass::CFin:
      *p++ = '<';
      *p++ = cls == FaultClass::CFst ? bit_char(state) : trans_char(trans);
      if (cls != FaultClass::CFin) {
        *p++ = ';';
        *p++ = bit_char(value);
      }
      p = put(p, "> ");
      p = put_cell(p, aggressor);
      p = put(p, "->");
      p = put_cell(p, victim);
      return put(p, intra_word() ? " [intra]" : " [inter]");
    case FaultClass::RET:
      *p++ = '(';
      *p++ = bit_char(value);
      *p++ = ',';
      p = put_uint(p, retention);
      p = put(p, "u) @");
      return put_cell(p, victim);
    case FaultClass::AFna:
      p = put(p, " @w");
      return put_uint(p, victim.word);
    case FaultClass::AFaw:
      p = put(p, " w");
      p = put_uint(p, victim.word);
      p = put(p, "~w");
      return put_uint(p, aggressor.word);
  }
  return p;
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

Fault Fault::af_no_access(std::uint32_t word) {
  Fault f;
  f.cls = FaultClass::AFna;
  f.victim = {word, 0};
  return f;
}

Fault Fault::af_alias(std::uint32_t word, std::uint32_t also) {
  Fault f;
  f.cls = FaultClass::AFaw;
  f.victim = {word, 0};
  f.aggressor = {also, 0};
  return f;
}

void fault_footprint(const Fault* faults, std::size_t count, std::vector<std::size_t>& words) {
  words.clear();
  // Consecutive faults of an exhaustive list share a word: skipping a
  // repeat of the last word leaves a handful to sort instead of 63 or more.
  const auto add = [&](std::size_t w) {
    if (words.empty() || words.back() != w) words.push_back(w);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const Fault& f = faults[i];
    add(f.victim.word);
    if (f.is_coupling() || f.cls == FaultClass::AFaw) add(f.aggressor.word);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
}

}  // namespace twm
