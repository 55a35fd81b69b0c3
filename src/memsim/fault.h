// Functional fault models for RAM cells (Sec. 2 of the paper):
//
//   SAF   stuck-at fault: the cell permanently holds 0 (SAF0) or 1 (SAF1).
//   TF    transition fault: the cell fails the 0->1 (TF_UP) or the 1->0
//         (TF_DOWN) transition; the opposite transition still works.
//   CFst  state coupling fault <s; v>: while the aggressor cell holds state
//         s, the victim cell is forced to value v.
//   CFid  idempotent coupling fault <t; v>: when the aggressor undergoes
//         transition t (up or down), the victim is forced to value v.
//   CFin  inversion coupling fault <t>: when the aggressor undergoes
//         transition t, the victim's content is inverted.
//
//   AFna  address-decoder fault, no access: the address decodes to no cell —
//         writes are lost, reads return the floating bus (all zeros).
//   AFaw  address-decoder fault, alias write: the address additionally
//         decodes to a second word — writes raw-commit there too, reads
//         wired-AND merge both words.
//
// A cell is addressed by (word index, bit index); coupling faults between
// cells of the same word are the paper's intra-word CFs, between cells of
// different words its inter-word CFs.  AF faults address whole words: the
// victim word is the faulty address, the aggressor word (AFaw only) the
// alias target.  The paper's fault model stops at SAF/TF/CF; AFs are the
// standard companion model (van de Goor) — memsim/decoder_fault.h keeps the
// address-mapping wrapper form, these Fault-level variants put the same
// defects through the batched campaign backends.
#ifndef TWM_MEMSIM_FAULT_H
#define TWM_MEMSIM_FAULT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace twm {

// A word index is 32 bits: every front-end rejects a memory of more than
// 2^32 words (api::validate, explore::validate, CampaignRunner), so no
// runnable geometry truncates.  A bit index is 32 bits like the width.
struct CellAddr {
  std::uint32_t word = 0;
  std::uint32_t bit = 0;

  bool operator==(const CellAddr& o) const { return word == o.word && bit == o.bit; }
};

// The most words a CellAddr addresses (words 0 .. 2^32 - 1).
inline constexpr std::uint64_t kMaxWords = std::uint64_t{1} << 32;

enum class FaultClass : std::uint8_t { SAF, TF, CFst, CFid, CFin, RET, AFna, AFaw };

enum class Transition : std::uint8_t { Up, Down };  // 0->1 / 1->0

// 24 bytes, no padding: the two addresses lead, the one-byte fields
// follow.  A campaign's memory is its fault lists (2·N·B SAFs alone for
// an N-word, B-bit memory), so every byte here counts per fault.
struct Fault {
  CellAddr victim;        // the affected cell
  CellAddr aggressor;     // coupling faults only
  FaultClass cls = FaultClass::SAF;
  Transition trans = Transition::Up;  // TF: failing transition; CFid/CFin: trigger
  bool value = false;     // SAF: stuck value; CFst/CFid: forced value; RET: decay value
  bool state = false;     // CFst: aggressor state that activates the fault
  unsigned retention = 0;  // RET: pause units the cell holds data for

  bool is_coupling() const {
    return cls == FaultClass::CFst || cls == FaultClass::CFid || cls == FaultClass::CFin;
  }
  // Intra-word coupling: aggressor and victim share a word.
  bool intra_word() const { return is_coupling() && aggressor.word == victim.word; }
  // Address-decoder fault (word-level port distortion, no cell defect).
  bool is_decoder() const { return cls == FaultClass::AFna || cls == FaultClass::AFaw; }

  // "SAF(1) @w3.b0", "CFid<^;0> w0.b1->w2.b1 [inter]", ... — printable
  // ASCII without quotes or backslashes, so JSON and CSV writers embed it
  // unescaped.  write_describe is the one formatter: it writes the text at
  // `out` (no terminator) and returns the end; `out` must have room for
  // kDescribeMax chars, the length of a CFst/CFid with word and bit at
  // their type maxima.  describe() and append_describe (which appends to
  // `out`) wrap it.
  static constexpr std::size_t kDescribeMax = 66;
  std::string describe() const;
  void append_describe(std::string& out) const;
  char* write_describe(char* out) const;

  // Convenience constructors.
  static Fault saf(CellAddr cell, bool stuck_value);
  static Fault tf(CellAddr cell, Transition failing);
  static Fault cfst(CellAddr aggressor, bool aggressor_state, CellAddr victim, bool forced);
  static Fault cfid(CellAddr aggressor, Transition trigger, CellAddr victim, bool forced);
  static Fault cfin(CellAddr aggressor, Transition trigger, CellAddr victim);
  // Data-retention fault: after `hold_units` pause units without a write to
  // the cell, its content decays to `decay_value` (a leaky DRAM-like cell).
  static Fault ret(CellAddr cell, bool decay_value, unsigned hold_units);
  // AF1: `word` decodes to no cell.
  static Fault af_no_access(std::uint32_t word);
  // AF2: `word` additionally decodes to (aliases) word `also`.
  static Fault af_alias(std::uint32_t word, std::uint32_t also);
};

static_assert(sizeof(Fault) == 24, "Fault is stored once per fault of every list");

std::string to_string(FaultClass c);

// Sorted, unique words the faults touch: every victim word, plus the
// aggressor word of a coupling fault and the alias word of an AFaw.  In a
// memory carrying these faults (and no others), every other word holds
// fault-free data in every universe for the whole session.  Written into
// `words` (cleared first), so a reused vector keeps its capacity.
void fault_footprint(const Fault* faults, std::size_t count, std::vector<std::size_t>& words);

}  // namespace twm

#endif  // TWM_MEMSIM_FAULT_H
