// Bit-parallel batched fault simulator: one fault universe per lane of a
// 64-bit LaneMask (64 universes per machine pass).
//
// PackedMemory models the same N x B functional RAM as Memory (memory.h),
// but stores each cell (word, bit) as a LaneMask: bit k of it is the
// cell's value in universe k.  Faults are injected with a lane mask
// restricting them to a subset of lanes, so one memory simulates up to
// kPackedLanes different fault configurations — by convention lane 0 is
// kept fault-free (the golden universe batched coverage evaluation uses as
// a self-check).
//
// The write semantics are the documented five steps of Memory::write
// (transition suppression, commit, CFid/CFin aggressor-fire, CFst
// enforcement, SAF dominance) plus RET aging and the AF decoder-fault
// port distortions, each implemented as lane-masked bitwise operations
// instead of per-fault branches.  Each lane holds at most one fault (see
// the contract below), so every lane observes exactly the effect sequence
// the scalar simulator produces for that fault
// (tests/packed_memory_test.cpp proves this differentially).
//
// The contract: one fault per lane, the same faults from injection to the
// next clear_faults().  inject() throws std::invalid_argument when a
// fault's lanes overlap those of a fault injected since the last
// clear_faults() — one fault universe per lane, as the campaign packs
// them.  A fault may span several lanes.
//
// Storage is a SLOT STORE, grown to the fault footprint, not to `words`.
// A dense [addr * width + bit] lane-mask array costs words x width x
// sizeof(LaneMask) — 1 GiB for 16M words at width 8 — which caps workloads
// at toy geometries.  Instead each word is in one of two states:
//
//   * background — no slot at all; every cell reads as the background:
//     zero, or its bits in a limb table (memsim/limb_bits.h) — a campaign's
//     shared seeded table, or one this memory generated or loaded.  This is
//     what fill_limbs()/fill_seeded() leave behind: an O(live slots) reset
//     instead of an O(words) rewrite.  Reads and peeks of a background word
//     broadcast its value without giving it a slot.
//   * live — the word owns a slot: width lane masks in cells_ plus its
//     folded fault masks and fault buckets.  Every word in any injected fault's footprint
//     (victim, aggressor, alias target) gets a slot at inject() time and
//     keeps it until the next refill; a write to a background word gives it
//     one too.
//
// An open-addressing index maps each live word to its slot; it is sized to
// the slot capacity and cleared entry by entry, so a refill costs O(live
// slots).  Each injected fault caches its victim and aggressor/alias slots,
// so the fault paths index cells_ directly: only a port op's own address
// goes through the index, and inject remembers the last word it resolved
// (consecutive faults of an exhaustive list share a word).  The invariant
// that fault footprints always live keeps the read fast path sound: a
// background word carries no fault and the same value in every lane, so
// its read skips the fault machinery entirely.  A campaign unit walks only
// its fault footprint, so its memory holds exactly the footprint's words,
// and the store keeps its capacity across refills: the repack scheduler's
// clear_faults()/fill_limbs() round rebuild allocates nothing in steady
// state.  (The scalar Memory walks every word, so it keeps a dense bit
// array instead.)
//
// A batch carries up to 63 faults per memory, so the port operations must
// not scan the whole fault list.  Faults are indexed by word at injection
// time, in two forms:
//
//   * folded masks — SAF and TF are cell-local, so each slot keeps four
//     lane masks per bit: stuck-at-1 and stuck-at-0 lanes, rise-suppress
//     and fall-suppress lanes.  The TF fold is exact whatever the lanes:
//     a suppressed transition leaves no transition for any other TF of
//     the cell to act on, so the order of several TFs never matters.  The
//     SAF fold is exact because no two SAFs share a lane.
//   * buckets — per-slot lists, in injection order: the CFid/CFin faults
//     whose aggressor is in the word, the CFst faults whose aggressor or
//     victim is, and the RET and decoder faults on it.
//
// Static-fault enforcement after a write walks only the CFst faults whose
// aggressor or victim lives in the written word, and that word's SAF
// masks, once.  A coupling, decoder or RET fault moves other cells only in
// its own lanes, which hold no static fault, so every other static is
// still enforced from the previous operation; and no CFst chain exists to
// need a second pass.  A refill enforces every slot's statics.
//
// Port cost.  A write to a word that no coupling or decoder fault starts
// from is one O(width) pass — commit, TF suppression and SAF masks
// together — plus that word's CFst bucket and its RET refresh, with no
// scratch copies.  The SAF masks may apply before the CFst bucket, since
// no lane holds both.  Other writes take the general five-step path.
//
// The slot port.  read(addr)/write(addr) check the address and probe the
// index on every call.  A session that walks a fixed list of words
// resolves each word once (slot_of, kNoSlot while it reads as the
// background) and then calls read_slot/write_slot, which do neither;
// write_slot gives a background word its slot on its first write and
// updates the caller's copy, so a walk over every word still gives slots
// only to the words it writes.  read/write are thin wrappers over the same
// two bodies.
//
// A packed word is passed around as `const LaneMask*` / `LaneMask*` spanning
// word_width() entries; entry j is bit j of the word across all lanes.
// Data identical in every lane ("broadcast") represents fault-free inputs,
// e.g. absolute march write data.
//
// The whole implementation lives in this header: the port operations sit
// in the march engine's innermost loop, and the build has no LTO.
#ifndef TWM_MEMSIM_PACKED_MEMORY_H
#define TWM_MEMSIM_PACKED_MEMORY_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "memsim/fault.h"
#include "memsim/limb_bits.h"
#include "util/bitvec.h"
#include "util/failpoint.h"

namespace twm {

inline constexpr unsigned kPackedLanes = 64;

// Bit k set = the fault / event applies to (happened in) lane k.
using LaneMask = std::uint64_t;

// Lanes 1..count — the occupied fault lanes of a (possibly partial) batch.
// Lane 0 (golden) and the lanes past `count` stay clear, so a partial
// final batch can neither report phantom universes nor hide a golden-lane
// detection.
inline LaneMask used_lane_mask(unsigned count) {
  if (count >= kPackedLanes - 1) return ~LaneMask{1};
  return ((LaneMask{1} << count) - 1) << 1;
}

// Broadcasts a lane-uniform (fault-free) word into packed form: entry j is
// the all-ones or all-zero lane mask of the word's bit j.
inline std::vector<LaneMask> broadcast_word(const BitVec& word) {
  std::vector<LaneMask> out(word.width());
  for (unsigned j = 0; j < word.width(); ++j) out[j] = word.get(j) ? ~LaneMask{0} : LaneMask{};
  return out;
}

class PackedMemory {
 public:
  // slot_of's answer for a word that reads as the background.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  PackedMemory(std::size_t num_words, unsigned word_width)
      : words_(num_words),
        width_(word_width),
        old_(word_width),
        next_(word_width),
        read_buf_(word_width),
        peek_buf_(word_width) {
    if (num_words == 0 || word_width == 0)
      throw std::invalid_argument("PackedMemory: empty geometry");
  }

  // The background pointer may reference this object's own storage;
  // copying would leave the copy aliasing the original.  Nothing copies a
  // packed memory (workers construct their own), so forbid it outright.
  PackedMemory(const PackedMemory&) = delete;
  PackedMemory& operator=(const PackedMemory&) = delete;
  PackedMemory(PackedMemory&&) = default;
  PackedMemory& operator=(PackedMemory&&) = default;

  unsigned word_width() const { return width_; }
  std::size_t num_words() const { return words_; }

  // --- the memory port -------------------------------------------------
  // Returned pointer spans word_width() lane masks and stays valid until
  // the next port operation (read/write/elapse) or load to the memory.
  const LaneMask* read(std::size_t addr) {
    if (addr >= words_) throw std::out_of_range("PackedMemory::read");
    return read_slot(find_slot(addr), addr);
  }

  // `data` spans word_width() lane masks (per-lane write data).
  void write(std::size_t addr, const LaneMask* data) {
    if (addr >= words_) throw std::out_of_range("PackedMemory::write");
    std::uint32_t s = materialize(addr);
    write_slot(s, addr, data);
  }

  // --- the slot port (see the header comment) ----------------------------
  // The slot of word `addr`, or kNoSlot while it reads as the background.
  // Valid until the next fill or load; a write may give a background word
  // a slot (write_slot then updates the caller's copy).
  std::uint32_t slot_of(std::size_t addr) const {
    if (addr >= words_) throw std::out_of_range("PackedMemory::slot_of");
    return find_slot(addr);
  }

  // read(addr) for a word whose slot_of is `s`.
  const LaneMask* read_slot(std::uint32_t s, std::size_t addr) {
    ++ops_;
    if (s == kNoSlot) {
      // Fault footprints always own slots, so no decoder fault can distort
      // this port read — broadcast the background value.
      expand_background(addr, read_buf_.data());
      return read_buf_.data();
    }
    const LaneMask* word = slot_cells(s);
    if (!bucket_nonempty(s, kAf)) return word;
    // AF port distortion, per fault in injection order: AFna lanes see the
    // floating bus (zeros), AFaw lanes the wired-AND of every decoded cell.
    std::copy(word, word + width_, read_buf_.begin());
    for (const std::uint32_t i : bucket(s, kAf)) {
      const LaneFault& lf = faults_[i];
      const LaneMask keep = ~lf.lanes;
      if (lf.fault.cls == FaultClass::AFna) {
        for (unsigned j = 0; j < width_; ++j) read_buf_[j] &= keep;
      } else {
        const LaneMask* alias = slot_cells(lf.other_slot);
        for (unsigned j = 0; j < width_; ++j) read_buf_[j] &= keep | alias[j];
      }
    }
    return read_buf_.data();
  }

  // write(addr, data) for a word whose slot_of is `s`; a background word
  // gets its slot here, stored back into `s`.
  void write_slot(std::uint32_t& s, std::size_t addr, const LaneMask* data) {
    ++ops_;
    if (s == kNoSlot) s = materialize(addr);
    if ((kinds_[s] & (kind_bit(kDyn) | kind_bit(kAf))) != 0) {
      write_general(s, data);
      return;
    }
    LaneMask* word = slot_cells(s);
    const LaneMask* sa1 = fold(s, kSa1);
    const LaneMask* sa0 = fold(s, kSa0);
    const LaneMask* rise = fold(s, kRise);
    const LaneMask* fall = fold(s, kFall);
    // Steps 1, 2 and 5 in one pass (one fault per lane: see the header).
    for (unsigned j = 0; j < width_; ++j)
      word[j] = (suppress(word[j], data[j], rise[j], fall[j]) | sa1[j]) & ~sa0[j];
    refresh_retention(s);
    // Step 4, for the CFst faults of this word.
    if (bucket_nonempty(s, kCfst)) apply_cfsts(bucket(s, kCfst));
  }

  // A decay moves only its own lanes, which hold no static fault to
  // re-enforce.
  void elapse(unsigned units) {
    for (RetEntry& e : ret_entries_) {
      const LaneFault& lf = faults_[e.idx];
      e.age += units;
      if (e.age >= lf.fault.retention) force(victim_cell(lf), lf.fault.value, lf.lanes);
    }
  }

  // --- fault management ------------------------------------------------
  // Throws std::invalid_argument if `lanes` overlaps the lanes of a fault
  // injected since the last clear_faults() (the header's contract).
  void inject(const Fault& f, LaneMask lanes) {
    auto check = [this](const CellAddr& c) {
      if (c.word >= words_ || c.bit >= width_)
        throw std::out_of_range("PackedMemory::inject: cell outside memory");
    };
    if (f.is_decoder()) {
      if (f.victim.word >= words_ || (f.cls == FaultClass::AFaw && f.aggressor.word >= words_))
        throw std::out_of_range("PackedMemory::inject: address outside memory");
      if (f.cls == FaultClass::AFaw && f.aggressor.word == f.victim.word)
        throw std::invalid_argument("PackedMemory::inject: alias == address");
    } else {
      check(f.victim);
      if (f.is_coupling()) {
        check(f.aggressor);
        if (f.aggressor == f.victim)
          throw std::invalid_argument("PackedMemory::inject: aggressor == victim");
      }
    }
    if ((lanes & lanes_union_) != 0)
      throw std::invalid_argument("PackedMemory::inject: lane already holds a fault");
    lanes_union_ |= lanes;
    const std::uint32_t idx = static_cast<std::uint32_t>(faults_.size());
    faults_.push_back({f, lanes});
    // The fault's whole footprint must own slots before any of its effects
    // (or any port op near it) can be applied.
    materialize_footprint(faults_.back());
    if (f.cls == FaultClass::RET) {
      bucket_push(faults_[idx].victim_slot, kRet, static_cast<std::uint32_t>(ret_entries_.size()));
      ret_entries_.push_back({idx, 0});
    } else {
      index_fault(idx);
    }
    // Enforce the new fault's static condition.  Only the new fault itself
    // can be newly active (its lanes hold no other fault to chain with, and
    // it cannot disturb other lanes), so batch construction stays O(faults)
    // instead of the O(faults^2) a global re-enforcement per inject costs.
    if (f.cls == FaultClass::SAF) {
      force(victim_cell(faults_[idx]), f.value, lanes);
    } else if (f.cls == FaultClass::CFst) {
      apply_cfst(idx);
    }
  }

  void clear_faults() {
    faults_.clear();
    ret_entries_.clear();
    for (std::uint32_t s = 0; s < live_; ++s) clear_slot_faults(s);
    lanes_union_ = LaneMask{};
  }

  // --- backdoor access (broadcast: every lane gets the same contents) --
  void load(const std::vector<BitVec>& contents) {
    if (contents.size() != words_)
      throw std::invalid_argument("PackedMemory::load: word count mismatch");
    for (const auto& w : contents)
      if (w.width() != width_) throw std::invalid_argument("PackedMemory::load: width mismatch");
    loaded_bits_.assign(limb_count(words_, width_), 0);
    for (std::size_t a = 0; a < words_; ++a)
      for (unsigned j = 0; j < width_; ++j)
        set_limb_bit(loaded_bits_.data(), a * width_ + j, contents[a].get(j));
    fill_limbs(loaded_bits_.data());
  }

  // Makes a limb table (memsim/limb_bits.h) the background; null means all
  // zero.  The table is borrowed, not copied: it must outlive every read of
  // the background, up to the next fill.  The campaign scheduler hands
  // every worker memory the same table of a seed.
  void fill_limbs(const std::uint64_t* limbs) {
    bg_bits_ = limbs;
    reset_to_background();
  }

  // fill_limbs of seeded_limbs(seed), generated afresh into this memory's
  // own storage on every call: the campaign unit contract for callers
  // without a campaign's shared table.
  void fill_seeded(std::uint64_t seed) {
    loaded_bits_ = seeded_limbs(words_, width_, seed);
    fill_limbs(seed != 0 ? loaded_bits_.data() : nullptr);
  }

  // Lane extraction for differential checking against the scalar Memory.
  bool lane_bit(unsigned lane, std::size_t addr, unsigned bit) const {
    if (lane >= kPackedLanes) throw std::out_of_range("PackedMemory::lane_bit");
    if (addr >= words_ || bit >= width_) throw std::out_of_range("PackedMemory::lane_bit");
    const std::uint32_t s = find_slot(addr);
    if (s != kNoSlot) return (slot_cells(s)[bit] >> lane) & 1u;
    return background_bit(addr, bit);
  }
  BitVec lane_word(unsigned lane, std::size_t addr) const {
    BitVec v(width_);
    for (unsigned j = 0; j < width_; ++j) v.set(j, lane_bit(lane, addr, j));
    return v;
  }

  // Direct cell access (no port-op accounting, no AF port distortion).
  // Background words are expanded into an internal buffer, valid until the
  // next peek or port operation.
  const LaneMask* peek(std::size_t addr) const {
    if (addr >= words_) throw std::out_of_range("PackedMemory::peek");
    const std::uint32_t s = find_slot(addr);
    if (s != kNoSlot) return slot_cells(s);
    expand_background(addr, peek_buf_.data());
    return peek_buf_.data();
  }

  std::uint64_t op_count() const { return ops_; }
  void reset_op_count() { ops_ = 0; }

  // --- store accounting (bench/stats surface) ----------------------------
  // Words holding a slot.  A footprint walk keeps them bounded by the
  // batch's fault footprint, not by `words`: the memory-budget claim for
  // huge geometries in one number.
  std::size_t slots_live() const { return live_; }
  std::size_t slots_peak() const { return slots_peak_; }
  // Growth allocations of the store; stays flat across refill rounds once
  // the capacity covers the peak (the allocation-free repack contract).
  std::uint64_t store_growths() const { return store_growths_; }

 private:
  struct LaneFault {
    Fault fault;
    LaneMask lanes{};
    // Cached slots of the footprint, set whenever it is materialized: the
    // victim word, and the aggressor (couplings) or alias (AFaw) word —
    // the victim's own slot for every other class.
    std::uint32_t victim_slot = 0;
    std::uint32_t other_slot = 0;
  };
  struct RetEntry {
    std::uint32_t idx;  // into faults_
    unsigned age;       // pause units since the cell's last write
  };
  // Per-slot fault buckets, one per class kind.
  static constexpr unsigned kDyn = 0, kAf = 1, kRet = 2, kCfst = 3;
  static constexpr unsigned kBucketKinds = 4;
  static constexpr std::uint8_t kind_bit(unsigned kind) {
    return static_cast<std::uint8_t>(1u << kind);
  }
  // Per-slot folded masks, each `width` lane masks: stuck-at-1 and
  // stuck-at-0 lanes, rise- and fall-suppressing TF lanes.
  static constexpr unsigned kSa1 = 0, kSa0 = 1, kRise = 2, kFall = 3;
  static constexpr unsigned kFolds = 4;

  // One entry of the word -> slot index; `word == kNoWord` marks it free.
  struct IndexEntry {
    std::size_t word;
    std::uint32_t slot;
  };
  static constexpr std::size_t kNoWord = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 16;

  // The general write: the five steps of Memory::write over one-word
  // scratch copies, for words that start a coupling or decoder fault.
  void write_general(std::uint32_t s, const LaneMask* data) {
    LaneMask* word = slot_cells(s);
    const LaneMask* rise = fold(s, kRise);
    const LaneMask* fall = fold(s, kFall);
    std::copy(word, word + width_, old_.begin());
    std::copy(data, data + width_, next_.begin());

    // Step 0: an AFna address decodes to no cell — the write is lost in the
    // faulted lanes (the cells keep their old value, so the later steps see
    // no transitions there).
    const bool has_af = bucket_nonempty(s, kAf);
    if (has_af)
      for (const std::uint32_t i : bucket(s, kAf)) {
        const LaneFault& lf = faults_[i];
        if (lf.fault.cls != FaultClass::AFna) continue;
        for (unsigned j = 0; j < width_; ++j)
          next_[j] = (next_[j] & ~lf.lanes) | (old_[j] & lf.lanes);
      }

    // Steps 1 and 2: transition faults suppress the failing transition
    // (per lane), then commit.
    for (unsigned j = 0; j < width_; ++j) word[j] = suppress(old_[j], next_[j], rise[j], fall[j]);

    // Step 3: dynamic coupling faults triggered by aggressor transitions
    // caused by this write, sampled from the committed word.
    if (bucket_nonempty(s, kDyn))
      for (const std::uint32_t i : bucket(s, kDyn)) {
        const LaneFault& lf = faults_[i];
        const Fault& f = lf.fault;
        const LaneMask o = old_[f.aggressor.bit];
        const LaneMask n = aggressor_cell(lf);
        const LaneMask transitioning = f.trans == Transition::Up ? (~o & n) : (o & ~n);
        const LaneMask fired = transitioning & lf.lanes;
        if (f.cls == FaultClass::CFid)
          force(victim_cell(lf), f.value, fired);
        else
          victim_cell(lf) ^= fired;
      }

    // Step 3.5: an AFaw address additionally decodes to the alias word —
    // the committed value is raw-copied there in the faulted lanes (no
    // TF/coupling interplay at the target).
    if (has_af)
      for (const std::uint32_t i : bucket(s, kAf)) {
        const LaneFault& lf = faults_[i];
        if (lf.fault.cls != FaultClass::AFaw) continue;
        const LaneMask keep = ~lf.lanes;
        LaneMask* target = slot_cells(lf.other_slot);
        for (unsigned j = 0; j < width_; ++j)
          target[j] = (target[j] & keep) | (word[j] & lf.lanes);
      }

    refresh_retention(s);

    // Steps 4 and 5.  Steps 3 and 3.5 moved other words only in their own
    // faults' lanes, which hold no static fault: only this word needs them.
    enforce_statics(s);
  }

  // Step 1 of a write, one bit: the committed lanes of a cell holding `o`
  // written with `n`, where the `rise` lanes fail 0->1 and the `fall`
  // lanes fail 1->0 (the cell keeps `o` there).
  static LaneMask suppress(LaneMask o, LaneMask n, LaneMask rise, LaneMask fall) {
    return n ^ ((n ^ o) & ((n & rise) | (o & fall)));
  }

  // A write refreshes the retention clock of any leaky cell it targets
  // (the row strobe happens even when a decoder fault loses the data).
  // The refresh is lane-independent: every lane performs the same write.
  void refresh_retention(std::uint32_t s) {
    if (bucket_nonempty(s, kRet))
      for (const std::uint32_t e : bucket(s, kRet)) ret_entries_[e].age = 0;
  }

  // --- the slot store ----------------------------------------------------
  LaneMask* slot_cells(std::uint32_t s) { return &cells_[std::size_t{s} * width_]; }
  const LaneMask* slot_cells(std::uint32_t s) const { return &cells_[std::size_t{s} * width_]; }
  LaneMask* fold(std::uint32_t s, unsigned kind) {
    return &folds_[(std::size_t{s} * kFolds + kind) * width_];
  }

  // Home position of `word` in the index (Fibonacci hashing: the top bits
  // of the product spread consecutive addresses apart).
  std::size_t index_home(std::size_t word) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(word) * 0x9E3779B97F4A7C15ull) >>
                                    index_shift_);
  }

  // The slot of `word`, or kNoSlot while it reads as the background.  The
  // index is at most half full, so every probe run ends at a free entry.
  std::uint32_t find_slot(std::size_t word) const {
    if (index_.empty()) return kNoSlot;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = index_home(word);; i = (i + 1) & mask) {
      const IndexEntry& e = index_[i];
      if (e.word == word) return e.slot;
      if (e.word == kNoWord) return kNoSlot;
    }
  }

  // Enters live slot `s` into the index (its word must not be there yet).
  void place(std::uint32_t s) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = index_home(slot_word_[s]);
    while (index_[i].word != kNoWord) i = (i + 1) & mask;
    index_[i] = {slot_word_[s], s};
    index_pos_[s] = i;
  }

  // Doubles the slot capacity: every per-slot array grows, and the index is
  // rebuilt at twice the new capacity from the live slots (not from the old
  // index).  Per-slot buckets move with their capacity; new slots' masks
  // start clear.  A failed allocation leaves capacity_ and the index as
  // they were.
  void grow() {
    // Chaos hook for allocation exhaustion, same bad_alloc a genuine OOM
    // raises here.
    if (TWM_FAILPOINT("page.alloc")) throw std::bad_alloc();
    const std::size_t cap = std::max(kMinSlots, 2 * capacity_);
    cells_.resize(cap * width_);
    folds_.resize(cap * kFolds * width_);
    slot_word_.resize(cap);
    index_pos_.resize(cap);
    kinds_.resize(cap);
    buckets_.resize(cap * kBucketKinds);
    std::vector<IndexEntry> index(2 * cap, IndexEntry{kNoWord, 0});
    index_.swap(index);
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (std::uint32_t s = 0; s < live_; ++s) place(s);
    capacity_ = cap;
    ++store_growths_;
  }

  // The slot of `word`, given one (cells from the background) if it has
  // none yet.  The last word resolved is remembered: consecutive faults of
  // an exhaustive list share a word, and so do a fault's victim and
  // aggressor in intra-word classes.
  std::uint32_t materialize(std::size_t word) {
    return word == memo_word_ ? memo_slot_ : materialize_slow(word);
  }
  std::uint32_t materialize_slow(std::size_t word) {
    std::uint32_t s = find_slot(word);
    if (s == kNoSlot) {
      if (live_ == capacity_) grow();
      s = live_++;
      slot_word_[s] = word;
      place(s);
      expand_background(word, slot_cells(s));
      slots_peak_ = std::max<std::size_t>(slots_peak_, live_);
    }
    memo_word_ = word;
    memo_slot_ = s;
    return s;
  }

  // Releases every slot; the whole memory reads as the background
  // afterwards.  O(live slots): each slot clears its own index entry,
  // buckets and masks (capacity retained — no allocation on the next
  // round).
  void release_slots() {
    for (std::uint32_t s = 0; s < live_; ++s) {
      index_[index_pos_[s]].word = kNoWord;
      clear_slot_faults(s);
    }
    live_ = 0;
    memo_word_ = kNoWord;
  }

  // Bit j of a background word.
  bool background_bit(std::size_t addr, unsigned j) const {
    return bg_bits_ && get_limb_bit(bg_bits_, addr * width_ + j);
  }

  // Broadcasts a background word into `dst` (width_ lane masks).
  void expand_background(std::size_t addr, LaneMask* dst) const {
    for (unsigned j = 0; j < width_; ++j)
      dst[j] = background_bit(addr, j) ? ~LaneMask{0} : LaneMask{};
  }

  // After a background switch: every live fault footprint is
  // re-materialized and re-indexed (injection order preserved), then
  // statics re-enforced — the same result as the dense simulator's O(words)
  // broadcast fill.
  void reset_to_background() {
    release_slots();
    for (std::uint32_t i = 0; i < faults_.size(); ++i) {
      materialize_footprint(faults_[i]);
      if (faults_[i].fault.cls != FaultClass::RET) index_fault(i);
    }
    for (std::size_t e = 0; e < ret_entries_.size(); ++e)
      bucket_push(faults_[ret_entries_[e].idx].victim_slot, kRet, static_cast<std::uint32_t>(e));
    for (std::uint32_t s = 0; s < live_; ++s) enforce_statics(s);
  }

  void materialize_footprint(LaneFault& lf) {
    const Fault& f = lf.fault;
    lf.victim_slot = materialize(f.victim.word);
    lf.other_slot = f.is_coupling() || f.cls == FaultClass::AFaw ? materialize(f.aggressor.word)
                                                                 : lf.victim_slot;
  }

  // Folds a SAF or TF into its victim's masks, or registers any other
  // non-RET fault in its slots' buckets (RET buckets hold ret_entries_
  // positions and are handled by the callers).
  void index_fault(std::uint32_t idx) {
    const LaneFault& lf = faults_[idx];
    switch (lf.fault.cls) {
      case FaultClass::SAF:
      case FaultClass::TF: fold_cell(lf) |= lf.lanes; break;
      case FaultClass::CFst:
        bucket_push(lf.other_slot, kCfst, idx);
        if (lf.victim_slot != lf.other_slot) bucket_push(lf.victim_slot, kCfst, idx);
        break;
      case FaultClass::CFid:
      case FaultClass::CFin: bucket_push(lf.other_slot, kDyn, idx); break;
      case FaultClass::RET: break;
      case FaultClass::AFna:
      case FaultClass::AFaw: bucket_push(lf.victim_slot, kAf, idx); break;
    }
  }

  // The folded mask entry of a SAF or TF: its victim cell's stuck-at or
  // suppress lanes.
  LaneMask& fold_cell(const LaneFault& lf) {
    const Fault& f = lf.fault;
    const unsigned kind = f.cls == FaultClass::SAF ? (f.value ? kSa1 : kSa0)
                                                   : (f.trans == Transition::Up ? kRise : kFall);
    return fold(lf.victim_slot, kind)[f.victim.bit];
  }

  // kinds_[s] bit `kind` set <=> the slot's bucket of that kind is
  // non-empty.  The port hot paths test one resident byte instead of
  // chasing each bucket vector's heap header.
  bool bucket_nonempty(std::uint32_t s, unsigned kind) const { return (kinds_[s] >> kind) & 1u; }
  std::vector<std::uint32_t>& bucket(std::uint32_t s, unsigned kind) {
    return buckets_[std::size_t{s} * kBucketKinds + kind];
  }
  void bucket_push(std::uint32_t s, unsigned kind, std::uint32_t value) {
    bucket(s, kind).push_back(value);
    kinds_[s] |= kind_bit(kind);
  }
  // Empties a slot's buckets and clears its masks.
  void clear_slot_faults(std::uint32_t s) {
    for (unsigned k = 0; k < kBucketKinds; ++k)
      if (bucket_nonempty(s, k)) bucket(s, k).clear();
    kinds_[s] = 0;
    std::fill_n(fold(s, 0), kFolds * width_, LaneMask{});
  }

  // Cells of a fault's footprint (they own slots from inject() until the
  // next refill re-materializes them).
  LaneMask& victim_cell(const LaneFault& lf) {
    return slot_cells(lf.victim_slot)[lf.fault.victim.bit];
  }
  LaneMask& aggressor_cell(const LaneFault& lf) {
    return slot_cells(lf.other_slot)[lf.fault.aggressor.bit];
  }
  // Forces `value` into the cell for the lanes in `mask`, leaving the other
  // lanes untouched.
  static void force(LaneMask& cell, bool value, const LaneMask& mask) {
    cell = value ? (cell | mask) : (cell & ~mask);
  }

  // One CFst application (lane-masked); `i` indexes faults_.
  void apply_cfst(std::uint32_t i) {
    const LaneFault& lf = faults_[i];
    const Fault& f = lf.fault;
    const LaneMask agg = aggressor_cell(lf);
    const LaneMask active = (f.state ? agg : ~agg) & lf.lanes;
    force(victim_cell(lf), f.value, active);
  }

  // Step 4 for a list of CFst faults.  One pass reaches the fixpoint, in
  // any order, and a repeat is a no-op: no lane holds a second fault that
  // could move a CFst's aggressor.
  void apply_cfsts(const std::vector<std::uint32_t>& cfst) {
    for (const std::uint32_t i : cfst) apply_cfst(i);
  }

  // SAF dominance over one word, from its masks.
  void apply_saf_masks(std::uint32_t s) {
    LaneMask* word = slot_cells(s);
    const LaneMask* sa1 = fold(s, kSa1);
    const LaneMask* sa0 = fold(s, kSa0);
    for (unsigned j = 0; j < width_; ++j) word[j] = (word[j] | sa1[j]) & ~sa0[j];
  }

  // Steps 4 and 5 for the statics whose aggressor or victim lives in word
  // `s` (a CFst spanning two words runs twice, harmlessly).
  void enforce_statics(std::uint32_t s) {
    if (bucket_nonempty(s, kCfst)) apply_cfsts(bucket(s, kCfst));
    apply_saf_masks(s);
  }

  std::size_t words_;
  unsigned width_;

  // The slot store.  Slots 0..live_-1 are live; the per-slot arrays all
  // hold at least capacity_ slots, which only grows.  A slot past live_
  // has empty buckets and clear masks.
  std::vector<LaneMask> cells_;         // [slot * width + bit] lane masks
  std::vector<LaneMask> folds_;         // [(slot * kFolds + kind) * width + bit]
  std::vector<std::size_t> slot_word_;  // [slot] -> its word
  std::vector<std::size_t> index_pos_;  // [slot] -> its index position
  std::vector<std::uint8_t> kinds_;     // [slot] -> nonempty-bucket bitmap
  // [slot * kBucketKinds + kind] -> fault indexes, injection order.
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<IndexEntry> index_;  // word -> slot, linear probing, 2 x capacity
  unsigned index_shift_ = 64;      // 64 - log2(index size)
  std::size_t capacity_ = 0;
  std::uint32_t live_ = 0;
  std::size_t slots_peak_ = 0;
  std::uint64_t store_growths_ = 0;
  std::size_t memo_word_ = kNoWord;  // materialize's last word, and its slot
  std::uint32_t memo_slot_ = 0;

  // Background: what a word without a slot reads as — bit (addr, j) of
  // bg_bits_, or zero when it is null.  bg_bits_ is a borrowed table
  // (fill_limbs) or loaded_bits_ (load, fill_seeded), this object's own
  // storage, hence no copying.
  const std::uint64_t* bg_bits_ = nullptr;
  std::vector<std::uint64_t> loaded_bits_;

  std::vector<LaneFault> faults_;
  std::vector<RetEntry> ret_entries_;
  LaneMask lanes_union_{};  // OR of every injected lane mask

  std::vector<LaneMask> old_, next_;  // write_general scratch (one word each)
  std::vector<LaneMask> read_buf_;    // AF-merged / broadcast read scratch
  mutable std::vector<LaneMask> peek_buf_;   // peek() expansion scratch
  std::uint64_t ops_ = 0;
};

}  // namespace twm

#endif  // TWM_MEMSIM_PACKED_MEMORY_H
