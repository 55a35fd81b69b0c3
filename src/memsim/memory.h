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
// Storage is paged like PackedMemory's (64-word pages over a lazy
// background — a broadcast pattern or a seeded/loaded per-word baseline),
// so a huge-geometry memory only allocates the pages a test actually
// touches instead of an O(words) vector<BitVec>; fill()/fill_seeded()
// reset in O(live pages) and recycle freed pages through a free-list.
#ifndef TWM_MEMSIM_MEMORY_H
#define TWM_MEMSIM_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
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
  void fill(const BitVec& pattern);
  void fill_random(Rng& rng);
  // Contents of fill_random(Rng(seed)) for seed != 0, fill(zeros) for seed
  // 0 — the campaign unit contract — with the generated baseline cached
  // per seed so repeated refills don't regenerate it.
  void fill_seeded(std::uint64_t seed);

  BitVec peek(std::size_t addr) const;
  std::vector<BitVec> snapshot() const;
  bool equals(const std::vector<BitVec>& snap) const;

  // Number of read + write port operations performed (test-length metering).
  std::uint64_t op_count() const { return ops_; }
  void reset_op_count() { ops_ = 0; }

  // --- page accounting (bench/stats surface) ----------------------------
  std::size_t pages_live() const { return materialized_.size(); }
  std::size_t pages_peak() const { return pages_peak_; }
  std::uint64_t page_allocations() const { return page_allocs_; }

 private:
  // One page: 64 words x width bits, i.e. width_ limbs.
  struct Page {
    std::vector<std::uint64_t> bits;
  };
  using Baseline = std::shared_ptr<const std::vector<std::uint64_t>>;

  static bool get_limb_bit(const std::uint64_t* limbs, std::size_t pos) {
    return (limbs[pos >> 6] >> (pos & 63)) & 1u;
  }
  static void set_limb_bit(std::uint64_t* limbs, std::size_t pos, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (pos & 63);
    if (v)
      limbs[pos >> 6] |= m;
    else
      limbs[pos >> 6] &= ~m;
  }

  bool cell_bit(std::size_t addr, unsigned j) const;
  bool get_bit(const CellAddr& c) const { return cell_bit(c.word, c.bit); }
  void set_bit(const CellAddr& c, bool v);
  BitVec word_at(std::size_t addr) const;
  void set_word(std::size_t addr, const BitVec& v);

  Page& page_for_write(std::size_t addr);
  void drop_pages();
  void set_background_bits(Baseline bits);
  Baseline generate_bits(Rng& rng) const;

  // Steps 4 and 5 of the write semantics; also run after load().
  void enforce_static_faults();

  std::size_t words_;
  unsigned width_;

  // [addr >> kMemPageShift (packed_memory.h)] -> page, or null while the
  // page reads as the background.
  std::vector<std::unique_ptr<Page>> table_;
  std::vector<std::unique_ptr<Page>> free_;
  std::vector<std::size_t> materialized_;
  std::size_t pages_peak_ = 0;
  std::uint64_t page_allocs_ = 0;

  // Background of unmaterialized pages: a broadcast pattern (one page of it
  // pre-expanded into pattern_limbs_) or a shared per-word bit baseline.
  std::vector<std::uint64_t> pattern_limbs_;
  BitVec bg_pattern_;
  Baseline bg_bits_;  // null -> pattern background
  std::map<std::uint64_t, Baseline> baselines_;

  std::vector<Fault> faults_;
  // Pause units since the last write of each retention fault's cell;
  // parallel to the RET entries' order of appearance in faults_.
  std::vector<unsigned> ret_age_;
  bool has_af_ = false;  // any decoder fault injected (AF port distortion)
  std::uint64_t ops_ = 0;
};

// The distinct word values of the contents fill_seeded(seed) loads into a
// `words` x `width` memory ({0} for seed 0), in order of first appearance.
// Consumes the generator exactly like fill_random; stops early once every
// value a width can hold has appeared.
std::vector<BitVec> seeded_word_values(std::size_t words, unsigned width, std::uint64_t seed);

}  // namespace twm

#endif  // TWM_MEMSIM_MEMORY_H
