// Word-oriented functional memory simulator with fault injection.
//
// The simulator models an N x B RAM at the functional level used by march
// test theory: a write presents a full word, faults distort how the stored
// state evolves, and a read returns the stored state.  Read-disturb faults
// are not part of the paper's model and are not simulated.
//
// Semantics of a write of `data` to word `addr`:
//   0. an AFna decoder fault on the address loses the write (the word keeps
//      its old value; retention clocks still refresh — the row strobe
//      happens);
//   1. per-bit transition faults may suppress 0->1 / 1->0 transitions;
//   2. the word state is committed;
//   3. CFid/CFin faults whose aggressor bit transitioned fire on their
//      victims (no recursive re-triggering — the standard first-order
//      simplification of march test analysis);
//   3.5. an AFaw decoder fault raw-copies the committed word to its alias
//      target (no TF/coupling interplay there);
//   4. CFst faults whose aggressor is in the activating state force their
//      victims;
//   5. stuck-at cells are re-forced to the stuck value (a SAF dominates any
//      other effect on the same cell).
// A read returns the stored word, distorted by any AF decoder fault on the
// address (AFna: floating bus zeros; AFaw: wired-AND of the decoded words).
//
// Storage is one dense bit array, cell (addr, bit) at position
// addr * width + bit (memsim/limb_bits.h).  The reference walks every word,
// so every word is live and a sparse store would only add indirection; the
// footprint-grain slot store belongs to PackedMemory, which walks fault
// footprints.
#ifndef TWM_MEMSIM_MEMORY_H
#define TWM_MEMSIM_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "memsim/fault.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace twm {

// Abstract single-port memory used by the march execution engine.
class MemoryIf {
 public:
  virtual ~MemoryIf() = default;
  virtual unsigned word_width() const = 0;
  virtual std::size_t num_words() const = 0;
  virtual BitVec read(std::size_t addr) = 0;
  virtual void write(std::size_t addr, const BitVec& data) = 0;
  // Advances simulated idle time (march "Del" pauses).  Only memories with
  // time-dependent defects (data-retention faults) react; default no-op.
  virtual void elapse(unsigned /*units*/) {}
};

class Memory : public MemoryIf {
 public:
  Memory(std::size_t num_words, unsigned word_width);

  unsigned word_width() const override { return width_; }
  std::size_t num_words() const override { return words_; }

  BitVec read(std::size_t addr) override;
  void write(std::size_t addr, const BitVec& data) override;
  void elapse(unsigned units) override;

  // --- fault management ------------------------------------------------
  void inject(const Fault& f);
  void clear_faults() {
    faults_.clear();
    ret_age_.clear();
    has_af_ = false;
  }
  const std::vector<Fault>& faults() const { return faults_; }

  // --- backdoor access (test/benchmark set-up, not a memory port) ------
  // Loads raw contents, then enforces static fault conditions (SAF, CFst)
  // so the state is consistent with the injected defects.
  void load(const std::vector<BitVec>& contents);
  void fill_random(Rng& rng);
  // Copies a limb table (memsim/limb_bits.h) in; null loads all zeros.
  void fill_limbs(const std::uint64_t* limbs);
  // fill_limbs of seeded_limbs(seed), generated afresh on every call: the
  // campaign unit contract for callers without a campaign's shared table.
  void fill_seeded(std::uint64_t seed);

  BitVec peek(std::size_t addr) const;
  std::vector<BitVec> snapshot() const;
  bool equals(const std::vector<BitVec>& snap) const;

  // Number of read + write port operations performed (test-length metering).
  std::uint64_t op_count() const { return ops_; }
  void reset_op_count() { ops_ = 0; }

 private:
  bool get_bit(const CellAddr& c) const;
  void set_bit(const CellAddr& c, bool v);
  BitVec word_at(std::size_t addr) const;
  void set_word(std::size_t addr, const BitVec& v);

  // Steps 4 and 5 of the write semantics; also run after load().
  void enforce_static_faults();

  std::size_t words_;
  unsigned width_;

  // [addr * width_ + bit] (memsim/limb_bits.h).
  std::vector<std::uint64_t> bits_;

  std::vector<Fault> faults_;
  // Pause units since the last write of each retention fault's cell;
  // parallel to the RET entries' order of appearance in faults_.
  std::vector<unsigned> ret_age_;
  bool has_af_ = false;  // any decoder fault injected (AF port distortion)
  std::uint64_t ops_ = 0;
};

// The distinct word values of the contents fill_limbs(limbs) loads into a
// `words` x `width` memory ({0} for null), in order of first appearance.
// Stops early once every value a width can hold has appeared.
std::vector<BitVec> seeded_word_values(std::size_t words, unsigned width,
                                       const std::uint64_t* limbs);

}  // namespace twm

#endif  // TWM_MEMSIM_MEMORY_H
