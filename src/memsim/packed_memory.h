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
// instead of per-fault branches; faults are applied in injection order, so
// every lane observes exactly the effect sequence the scalar simulator
// would produce for its fault subset (tests/packed_memory_test.cpp proves
// this differentially).
//
// Storage is PAGED, not dense.  A dense [addr * width + bit] lane-mask
// array costs words x width x sizeof(LaneMask) — 1 GiB for 16M words at
// width 8 — which caps workloads at toy geometries.  Instead the address
// space is split into fixed pages of kMemPageWords (64) words, each in one
// of two states:
//
//   * background — no page object at all; every cell reads as the fill
//     background (a broadcast pattern, or one word of a seeded/loaded
//     per-word bit baseline).  This is what fill()/fill_seeded() leave
//     behind: an O(live pages) reset instead of an O(words) rewrite.
//     Reads of a background word broadcast its value.
//   * materialized — full lane masks plus the per-word fault index
//     buckets.  Every word in any injected fault's footprint (victim,
//     aggressor, alias target) is materialized at inject() time and stays
//     so until the next refill; a write to a background page materializes
//     it too.
//
// The invariant that fault footprints are always materialized keeps the
// read fast path sound: a background word carries no fault and the same
// value in every lane, so its read skips the fault machinery entirely.
// A campaign unit walks only its fault footprint, so its memory holds
// exactly the footprint's pages: the working set is bounded by the batch,
// not by `words`.  Pages freed by a refill go to a free-list and are
// reused, so the repack scheduler's clear_faults()/fill() round rebuild
// allocates nothing in steady state.  (The scalar Memory walks every word,
// so it keeps a dense bit array instead; the page geometry is this class's
// alone.)
//
// A batch carries up to 63 faults per memory, so the port operations must
// not scan the whole fault list: faults are indexed by
// class and address at injection time (in per-page buckets), and
// static-fault enforcement after a write walks only the CFst/SAF faults
// whose aggressor or victim lives in a word the write disturbed.  Entries
// the walk skips are idempotent no-ops: statics were already enforced
// after the previous operation, nothing in their words changed since, and
// — the load-bearing condition — no *other* fault's effect can
// re-activate them, because every injected lane mask is pairwise disjoint
// (one fault per universe, the campaign contract), so cross-fault CFst
// chains cannot exist.  The moment two faults share a lane (multi-fault
// universes, as the differential tests build) the simulator detects the
// overlap at inject time and falls back to the global two-pass
// enforcement the scalar Memory performs.
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
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "memsim/fault.h"
#include "memsim/limb_bits.h"
#include "util/bitvec.h"
#include "util/failpoint.h"
#include "util/rng.h"

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
  // Page geometry: 64 words per page keeps a page (64 x width lane masks +
  // fault buckets) a few KiB, while the page table stays words/64 pointers.
  static constexpr unsigned kMemPageShift = 6;
  static constexpr std::size_t kMemPageWords = std::size_t{1} << kMemPageShift;
  static constexpr std::size_t kMemPageMask = kMemPageWords - 1;
  // A page is expanded from background limbs padded to whole 64-word blocks
  // (random_limbs), and its per-kind nonempty bitmaps are one word each.
  static_assert(64 % kMemPageWords == 0, "pages must tile the 64-word limb blocks");

  PackedMemory(std::size_t num_words, unsigned word_width)
      : words_(num_words),
        width_(word_width),
        old_(word_width),
        next_(word_width),
        read_buf_(word_width),
        peek_buf_(word_width) {
    if (num_words == 0 || word_width == 0)
      throw std::invalid_argument("PackedMemory: empty geometry");
    table_.resize((num_words + kMemPageWords - 1) / kMemPageWords);
    bg_pattern_ = BitVec::zeros(width_);
    pattern_limbs_.assign(width_, 0);  // 64 copies of the all-zero pattern
  }

  // The background baseline pointers reference this object's own storage;
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
    ++ops_;
    if (addr >= words_) throw std::out_of_range("PackedMemory::read");
    const Page* p = table_[addr >> kMemPageShift].get();
    if (!p) {
      // Fault footprints are always materialized, so no decoder fault can
      // distort this port read — broadcast the background value.
      expand_background(addr, read_buf_.data());
      return read_buf_.data();
    }
    const std::size_t rd_local = addr & kMemPageMask;
    const LaneMask* word = &p->cells[rd_local * width_];
    if (!bucket_nonempty(*p, kAf, rd_local)) return word;
    // AF port distortion, per fault in injection order: AFna lanes see the
    // floating bus (zeros), AFaw lanes the wired-AND of every decoded cell.
    std::copy(word, word + width_, read_buf_.begin());
    for (const std::uint32_t i : p->buckets[kAf * kMemPageWords + rd_local]) {
      const LaneFault& lf = faults_[i];
      const LaneMask keep = ~lf.lanes;
      if (lf.fault.cls == FaultClass::AFna) {
        for (unsigned j = 0; j < width_; ++j) read_buf_[j] &= keep;
      } else {
        for (unsigned j = 0; j < width_; ++j)
          read_buf_[j] &= keep | cell({lf.fault.aggressor.word, j});
      }
    }
    return read_buf_.data();
  }

  // `data` spans word_width() lane masks (per-lane write data).
  void write(std::size_t addr, const LaneMask* data) {
    ++ops_;
    if (addr >= words_) throw std::out_of_range("PackedMemory::write");
    const std::size_t pi = addr >> kMemPageShift;
    Page* p = table_[pi].get();
    if (!p) p = &materialize(pi);
    const std::size_t local = addr & kMemPageMask;
    LaneMask* word = &p->cells[local * width_];
    std::copy(word, word + width_, old_.begin());
    std::copy(data, data + width_, next_.begin());
    touched_.clear();
    touched_.push_back(addr);

    // Step 0: an AFna address decodes to no cell — the write is lost in the
    // faulted lanes (the cells keep their old value, so the later steps see
    // no transitions there).
    const bool has_af = bucket_nonempty(*p, kAf, local);
    if (has_af)
      for (const std::uint32_t i : p->buckets[kAf * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        if (lf.fault.cls != FaultClass::AFna) continue;
        for (unsigned j = 0; j < width_; ++j)
          next_[j] = (next_[j] & ~lf.lanes) | (old_[j] & lf.lanes);
      }

    // Step 1: transition faults suppress the failing transition (per lane).
    if (bucket_nonempty(*p, kTf, local))
      for (const std::uint32_t i : p->buckets[kTf * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        const Fault& f = lf.fault;
        const LaneMask o = old_[f.victim.bit];
        const LaneMask n = next_[f.victim.bit];
        const LaneMask transitioning = f.trans == Transition::Up ? (~o & n) : (o & ~n);
        const LaneMask suppressed = transitioning & lf.lanes;
        next_[f.victim.bit] = (n & ~suppressed) | (o & suppressed);
      }

    // Step 2: commit.
    std::copy(next_.begin(), next_.end(), word);

    // Step 3: dynamic coupling faults triggered by aggressor transitions
    // caused by this write.  The aggressor is sampled from the live state,
    // so earlier coupling effects on the same word are seen — matching the
    // scalar simulator's fault-by-fault ordering per lane.
    if (bucket_nonempty(*p, kDyn, local))
      for (const std::uint32_t i : p->buckets[kDyn * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        const Fault& f = lf.fault;
        const LaneMask o = old_[f.aggressor.bit];
        const LaneMask n = cell(f.aggressor);
        const LaneMask transitioning = f.trans == Transition::Up ? (~o & n) : (o & ~n);
        const LaneMask fired = transitioning & lf.lanes;
        if (f.cls == FaultClass::CFid)
          force(cell(f.victim), f.value, fired);
        else
          cell(f.victim) ^= fired;
        touch(f.victim.word);
      }

    // Step 3.5: an AFaw address additionally decodes to the alias word —
    // the committed value is raw-copied there in the faulted lanes (no
    // TF/coupling interplay at the target; statics are re-enforced below).
    if (has_af)
      for (const std::uint32_t i : p->buckets[kAf * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        if (lf.fault.cls != FaultClass::AFaw) continue;
        const LaneMask keep = ~lf.lanes;
        for (unsigned j = 0; j < width_; ++j) {
          LaneMask& target = cell({lf.fault.aggressor.word, j});
          target = (target & keep) | (cell({addr, j}) & lf.lanes);
        }
        touch(lf.fault.aggressor.word);
      }

    // A write refreshes the retention clock of any leaky cell it targets
    // (the row strobe happens even when a decoder fault loses the data).
    // The refresh is lane-independent: every lane performs the same write.
    if (bucket_nonempty(*p, kRet, local))
      for (const std::uint32_t e : p->buckets[kRet * kMemPageWords + local])
        ret_entries_[e].age = 0;

    // Steps 4 and 5, over the candidates the touched words can reach.
    enforce_statics_touched();
  }

  void elapse(unsigned units) {
    if (ret_entries_.empty()) return;
    touched_.clear();
    for (RetEntry& e : ret_entries_) {
      if (e.dead) continue;
      const LaneFault& lf = faults_[e.idx];
      e.age += units;
      if (e.age >= lf.fault.retention) force(cell(lf.fault.victim), lf.fault.value, lf.lanes);
      touch(lf.fault.victim.word);
    }
    // Decay may expose cells to static coupling conditions.
    enforce_statics_touched();
  }

  // --- fault management ------------------------------------------------
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
    const std::uint32_t idx = static_cast<std::uint32_t>(faults_.size());
    // Lane overlap disables the disjoint-lanes fast path for statics.
    if ((lanes & lanes_union_) != 0) lanes_overlap_ = true;
    lanes_union_ |= lanes;
    // Re-injecting into a previously retired lane revives it: the new
    // fault's lanes leave the retired set, or a later retire_lanes call
    // would silently drop the live fault.
    retired_union_ &= ~lanes;
    faults_.push_back({f, lanes});
    seen_.push_back(0);
    retired_.push_back(0);
    // The fault's whole footprint must live in materialized pages before
    // any of its effects (or any port op near it) can be applied.
    materialize_footprint(f);
    switch (f.cls) {
      case FaultClass::SAF: saf_all_.push_back(idx); break;
      case FaultClass::CFst: cfst_all_.push_back(idx); break;
      default: break;
    }
    if (f.cls == FaultClass::RET) {
      bucket_push(f.victim.word, kRet, static_cast<std::uint32_t>(ret_entries_.size()));
      ret_entries_.push_back({idx, 0});
    } else {
      index_fault_buckets(idx);
    }
    // Enforce the new fault's static condition.  With pairwise-disjoint
    // lane masks only the new fault itself can be newly active (its lanes
    // hold no other fault to chain with, and it cannot disturb other
    // lanes), so batch construction stays O(faults) instead of the
    // O(faults^2) a global re-enforcement per inject would cost.  Any lane
    // overlap falls back to the scalar Memory's global walk.
    if (lanes_overlap_) {
      enforce_static_faults();
    } else if (f.cls == FaultClass::SAF) {
      force(cell(f.victim), f.value, lanes);
    } else if (f.cls == FaultClass::CFst) {
      apply_cfst(idx);
    }
  }

  void clear_faults() {
    faults_.clear();
    seen_.clear();
    retired_.clear();
    saf_all_.clear();
    cfst_all_.clear();
    ret_entries_.clear();
    for (const std::size_t pi : materialized_) {
      Page& p = *table_[pi];
      for (auto& b : p.buckets) b.clear();
      p.nonempty.fill(0);
    }
    lanes_union_ = LaneMask{};
    lanes_overlap_ = false;
    retired_union_ = LaneMask{};
  }

  // Retires (drops) every fault whose lane mask lies entirely inside the
  // accumulated `lanes` set: its index-bucket entries are removed, so the
  // port operations stop paying for it — classic fault dropping, per lane.
  //
  // Retiring is only sound when the caller no longer cares how the retired
  // lanes evolve (their verdicts are final and monotone — the repack
  // scheduler's settle-exit contract): from this call on the retired lanes
  // behave as if their fault was never injected, while the other lanes are
  // unaffected (lane masks are pairwise disjoint in campaign use).  The
  // batch stays live: inject() keeps working afterwards, so a freed lane
  // can be reused for a new fault (lane reuse is detected as an overlap
  // with lanes_union_, which conservatively re-enables the global
  // static-enforcement walk — correct, just slower).
  void retire_lanes(LaneMask lanes) {
    retired_union_ |= lanes;
    if (retired_.size() < faults_.size()) retired_.resize(faults_.size(), 0);
    for (std::uint32_t i = 0; i < faults_.size(); ++i) {
      if (retired_[i]) continue;
      const LaneFault& lf = faults_[i];
      if ((lf.lanes & ~retired_union_) != 0) continue;  // still-live lanes
      retired_[i] = 1;
      const Fault& f = lf.fault;
      switch (f.cls) {
        case FaultClass::SAF:
          unindex(saf_all_, i);
          bucket_unindex(f.victim.word, kSaf, i);
          break;
        case FaultClass::TF: bucket_unindex(f.victim.word, kTf, i); break;
        case FaultClass::CFst:
          unindex(cfst_all_, i);
          bucket_unindex(f.aggressor.word, kCfst, i);
          if (f.victim.word != f.aggressor.word) bucket_unindex(f.victim.word, kCfst, i);
          break;
        case FaultClass::CFid:
        case FaultClass::CFin: bucket_unindex(f.aggressor.word, kDyn, i); break;
        case FaultClass::RET:
          for (std::size_t e = 0; e < ret_entries_.size(); ++e)
            if (ret_entries_[e].idx == i) {
              ret_entries_[e].dead = true;
              bucket_unindex(f.victim.word, kRet, static_cast<std::uint32_t>(e));
            }
          break;
        case FaultClass::AFna:
        case FaultClass::AFaw: bucket_unindex(f.victim.word, kAf, i); break;
      }
    }
  }

  // --- backdoor access (broadcast: every lane gets the same contents) --
  void load(const std::vector<BitVec>& contents) {
    if (contents.size() != words_)
      throw std::invalid_argument("PackedMemory::load: word count mismatch");
    for (const auto& w : contents)
      if (w.width() != width_) throw std::invalid_argument("PackedMemory::load: width mismatch");
    loaded_bits_.assign(table_.size() * width_, 0);
    for (std::size_t a = 0; a < words_; ++a)
      for (unsigned j = 0; j < width_; ++j)
        set_limb_bit(loaded_bits_.data(), a * width_ + j, contents[a].get(j));
    set_background_bits(loaded_bits_.data());
  }

  void fill(const BitVec& pattern) {
    if (pattern.width() != width_)
      throw std::invalid_argument("PackedMemory::fill: width mismatch");
    bg_pattern_ = pattern;
    bg_bits_ = nullptr;
    pattern_limbs_.assign(width_, 0);
    for (std::size_t w = 0; w < kMemPageWords; ++w)
      for (unsigned j = 0; j < width_; ++j)
        set_limb_bit(pattern_limbs_.data(), w * width_ + j, pattern.get(j));
    reset_to_background();
  }

  void fill_random(Rng& rng) {
    // The scalar Memory's generator, so the same seed broadcasts the same
    // contents the scalar evaluation path sees.
    random_limbs(words_, width_, rng, loaded_bits_);
    set_background_bits(loaded_bits_.data());
  }

  // Contents of fill_random(Rng(seed)) for seed != 0, fill(zeros) for seed
  // 0 — the campaign unit contract — but with the generated baseline
  // cached per seed, so the repack scheduler's seed-major rounds pay the
  // O(words) generation once per (worker, seed) instead of once per unit.
  void fill_seeded(std::uint64_t seed) {
    if (seed == 0) {
      fill(BitVec::zeros(width_));
      return;
    }
    auto& bits = baselines_[seed];
    if (bits.empty()) {
      Rng rng(seed);
      random_limbs(words_, width_, rng, bits);
    }
    set_background_bits(bits.data());
  }

  // Lane extraction for differential checking against the scalar Memory.
  bool lane_bit(unsigned lane, std::size_t addr, unsigned bit) const {
    if (lane >= kPackedLanes) throw std::out_of_range("PackedMemory::lane_bit");
    if (addr >= words_ || bit >= width_) throw std::out_of_range("PackedMemory::lane_bit");
    const Page* p = table_[addr >> kMemPageShift].get();
    if (p) return (p->cells[(addr & kMemPageMask) * width_ + bit] >> lane) & 1u;
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
    const Page* p = table_[addr >> kMemPageShift].get();
    if (p) return &p->cells[(addr & kMemPageMask) * width_];
    expand_background(addr, peek_buf_.data());
    return peek_buf_.data();
  }

  std::uint64_t op_count() const { return ops_; }
  void reset_op_count() { ops_ = 0; }

  // --- page accounting (bench/stats surface) ----------------------------
  // Materialized pages.  A footprint walk keeps them bounded by the batch's
  // fault footprint, not by `words`: the memory-budget claim for huge
  // geometries in one number.
  std::size_t pages_live() const { return materialized_.size(); }
  std::size_t pages_peak() const { return pages_peak_; }
  // Fresh heap allocations; stays flat across refill rounds once the
  // free-list is warm (the allocation-free repack contract).
  std::uint64_t page_allocations() const { return page_allocs_; }

 private:
  struct LaneFault {
    Fault fault;
    LaneMask lanes{};
  };
  struct RetEntry {
    std::uint32_t idx;  // into faults_
    unsigned age;       // pause units since the cell's last write
    bool dead = false;  // retired via retire_lanes; skipped by elapse()
  };
  // Per-page fault buckets, one per class kind per local word.
  static constexpr unsigned kTf = 0, kDyn = 1, kAf = 2, kRet = 3, kCfst = 4, kSaf = 5;
  static constexpr unsigned kBucketKinds = 6;

  struct Page {
    // [local * width + bit] lane masks.
    std::vector<LaneMask> cells;
    // [kind * kMemPageWords + local] -> fault indexes, injection order.
    std::vector<std::vector<std::uint32_t>> buckets;
    // nonempty[kind] bit `local` set <=> the bucket above is non-empty.
    // The port hot paths test one resident bit per kind instead of chasing
    // the bucket vector's heap header — on a page whose words carry
    // few faults (the common repack case) that indirection was the single
    // hottest cache miss of the write path.  kMemPageWords == 64, so one
    // word per kind covers the page exactly.
    std::array<std::uint64_t, kBucketKinds> nonempty{};
  };

  static bool bucket_nonempty(const Page& p, unsigned kind, std::size_t local) {
    return (p.nonempty[kind] >> local) & 1u;
  }

  // Bit j of a background word.
  bool background_bit(std::size_t addr, unsigned j) const {
    if (bg_bits_) return get_limb_bit(bg_bits_, addr * width_ + j);
    return bg_pattern_.get(j);
  }

  // Broadcasts a background word into `dst` (width_ lane masks).
  void expand_background(std::size_t addr, LaneMask* dst) const {
    for (unsigned j = 0; j < width_; ++j)
      dst[j] = background_bit(addr, j) ? ~LaneMask{0} : LaneMask{};
  }

  // --- page lifecycle ----------------------------------------------------
  // The page at `pi`, materialized from the background if it has none yet.
  Page& materialize(std::size_t pi) {
    std::unique_ptr<Page>& slot = table_[pi];
    if (slot) return *slot;
    if (!free_.empty()) {
      slot = std::move(free_.back());
      free_.pop_back();
    } else {
      // Chaos hook for allocation exhaustion, same bad_alloc a genuine OOM
      // raises here.
      if (TWM_FAILPOINT("page.alloc")) throw std::bad_alloc();
      slot = std::make_unique<Page>();
      ++page_allocs_;
    }
    materialized_.push_back(pi);
    pages_peak_ = std::max(pages_peak_, materialized_.size());
    Page& p = *slot;
    p.cells.resize(kMemPageWords * width_);
    const std::size_t base_bit = pi * kMemPageWords * width_;
    for (std::size_t pos = 0; pos < kMemPageWords * width_; ++pos) {
      const bool bit = bg_bits_ ? get_limb_bit(bg_bits_, base_bit + pos)
                                : get_limb_bit(pattern_limbs_.data(), pos);
      p.cells[pos] = bit ? ~LaneMask{0} : LaneMask{};
    }
    if (p.buckets.size() != kBucketKinds * kMemPageWords)
      p.buckets.resize(kBucketKinds * kMemPageWords);
    return p;
  }

  // Releases every materialized page to the free-list; the whole memory
  // reads as the background afterwards.  Bucket entries are cleared here so
  // recycled pages come back empty (capacity retained — no allocation).
  void drop_pages() {
    for (const std::size_t pi : materialized_) {
      std::unique_ptr<Page>& slot = table_[pi];
      for (auto& b : slot->buckets) b.clear();
      slot->nonempty.fill(0);
      free_.push_back(std::move(slot));
    }
    materialized_.clear();
  }

  // After a background switch: every live fault footprint is
  // re-materialized and re-indexed (injection order preserved), then
  // statics re-enforced — the same result as the dense simulator's O(words)
  // broadcast fill.
  void reset_to_background() {
    drop_pages();
    for (std::uint32_t i = 0; i < faults_.size(); ++i) {
      if (retired_[i]) continue;
      const Fault& f = faults_[i].fault;
      materialize_footprint(f);
      if (f.cls != FaultClass::RET) index_fault_buckets(i);
    }
    for (std::size_t e = 0; e < ret_entries_.size(); ++e) {
      if (ret_entries_[e].dead) continue;
      const Fault& f = faults_[ret_entries_[e].idx].fault;
      bucket_push(f.victim.word, kRet, static_cast<std::uint32_t>(e));
    }
    enforce_static_faults();
  }

  void set_background_bits(const std::uint64_t* bits) {
    bg_bits_ = bits;
    reset_to_background();
  }

  void materialize_footprint(const Fault& f) {
    materialize(f.victim.word >> kMemPageShift);
    if (f.is_coupling() || f.cls == FaultClass::AFaw) materialize(f.aggressor.word >> kMemPageShift);
  }

  // Registers a non-RET fault in its page buckets (RET buckets hold
  // ret_entries_ positions and are handled by the callers).
  void index_fault_buckets(std::uint32_t idx) {
    const Fault& f = faults_[idx].fault;
    switch (f.cls) {
      case FaultClass::SAF: bucket_push(f.victim.word, kSaf, idx); break;
      case FaultClass::TF: bucket_push(f.victim.word, kTf, idx); break;
      case FaultClass::CFst:
        bucket_push(f.aggressor.word, kCfst, idx);
        if (f.victim.word != f.aggressor.word) bucket_push(f.victim.word, kCfst, idx);
        break;
      case FaultClass::CFid:
      case FaultClass::CFin: bucket_push(f.aggressor.word, kDyn, idx); break;
      case FaultClass::RET: break;
      case FaultClass::AFna:
      case FaultClass::AFaw: bucket_push(f.victim.word, kAf, idx); break;
    }
  }

  // Appends to the bucket of a word known to live on a materialized page
  // (fault footprints), keeping the page's nonempty bitmap in sync.
  void bucket_push(std::size_t word, unsigned kind, std::uint32_t value) {
    Page& p = *table_[word >> kMemPageShift];
    const std::size_t local = word & kMemPageMask;
    p.buckets[kind * kMemPageWords + local].push_back(value);
    p.nonempty[kind] |= std::uint64_t{1} << local;
  }
  // Removes one index from a word's bucket (bitmap kept in sync).
  void bucket_unindex(std::size_t word, unsigned kind, std::uint32_t idx) {
    Page& p = *table_[word >> kMemPageShift];
    const std::size_t local = word & kMemPageMask;
    std::vector<std::uint32_t>& b = p.buckets[kind * kMemPageWords + local];
    unindex(b, idx);
    if (b.empty()) p.nonempty[kind] &= ~(std::uint64_t{1} << local);
  }
  const std::vector<std::uint32_t>& bucket_or_empty(std::size_t word, unsigned kind) const {
    static const std::vector<std::uint32_t> kEmpty;
    const Page* p = table_[word >> kMemPageShift].get();
    if (!p || !bucket_nonempty(*p, kind, word & kMemPageMask)) return kEmpty;
    return p->buckets[kind * kMemPageWords + (word & kMemPageMask)];
  }

  // Cell of a word known to live on a materialized page (fault footprints
  // are materialized at inject time and stay so until the next refill).
  LaneMask& cell(const CellAddr& c) {
    return table_[c.word >> kMemPageShift]->cells[(c.word & kMemPageMask) * width_ + c.bit];
  }
  // Forces `value` into the cell for the lanes in `mask`, leaving the other
  // lanes untouched.
  static void force(LaneMask& cell, bool value, const LaneMask& mask) {
    cell = value ? (cell | mask) : (cell & ~mask);
  }

  void touch(std::size_t w) {
    for (const std::size_t t : touched_)
      if (t == w) return;
    touched_.push_back(w);
  }

  // Removes one index from a bucket, preserving the injection order of the
  // remaining entries (the order static enforcement must apply in).
  static void unindex(std::vector<std::uint32_t>& bucket, std::uint32_t idx) {
    for (std::size_t i = 0; i < bucket.size(); ++i)
      if (bucket[i] == idx) {
        bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
  }

  // One CFst application (lane-masked); `i` indexes faults_.
  void apply_cfst(std::uint32_t i) {
    const LaneFault& lf = faults_[i];
    const Fault& f = lf.fault;
    const LaneMask agg = cell(f.aggressor);
    const LaneMask active = (f.state ? agg : ~agg) & lf.lanes;
    force(cell(f.victim), f.value, active);
  }

  // CFst chains are resolved in injection order; two passes give a fixpoint
  // for all single-fault and non-cyclic multi-fault configurations (the
  // same contract as the scalar Memory).  Then SAF dominance.
  void apply_statics(const std::vector<std::uint32_t>& cfst,
                     const std::vector<std::uint32_t>& saf) {
    for (int pass = 0; pass < 2; ++pass)
      for (const std::uint32_t i : cfst) apply_cfst(i);
    for (const std::uint32_t i : saf)
      force(cell(faults_[i].fault.victim), faults_[i].fault.value, faults_[i].lanes);
  }

  // Global enforcement — inject/load/fill disturb arbitrary state.
  void enforce_static_faults() { apply_statics(cfst_all_, saf_all_); }

  // Enforcement restricted to the statics whose aggressor or victim lives
  // in a word the current operation disturbed.  Correct only under the
  // pairwise-disjoint lane masks the campaign injects (no cross-fault
  // chains possible — see the header comment); any overlap falls back to
  // the global two-pass walk.
  void enforce_statics_touched() {
    if (cfst_all_.empty() && saf_all_.empty()) return;
    if (lanes_overlap_) {
      enforce_static_faults();
      return;
    }
    if (touched_.size() == 1) {
      const std::size_t w = touched_.front();
      apply_statics(bucket_or_empty(w, kCfst), bucket_or_empty(w, kSaf));
      return;
    }
    merge_cfst_.clear();
    merge_saf_.clear();
    for (const std::size_t w : touched_) {
      for (const std::uint32_t i : bucket_or_empty(w, kCfst))
        if (!seen_[i]) {
          seen_[i] = 1;
          merge_cfst_.push_back(i);
        }
      for (const std::uint32_t i : bucket_or_empty(w, kSaf))
        if (!seen_[i]) {
          seen_[i] = 1;
          merge_saf_.push_back(i);
        }
    }
    // Index order == injection order, the order the passes must apply in.
    std::sort(merge_cfst_.begin(), merge_cfst_.end());
    std::sort(merge_saf_.begin(), merge_saf_.end());
    apply_statics(merge_cfst_, merge_saf_);
    for (const std::uint32_t i : merge_cfst_) seen_[i] = 0;
    for (const std::uint32_t i : merge_saf_) seen_[i] = 0;
  }

  std::size_t words_;
  unsigned width_;

  // [addr >> kMemPageShift] -> page, or null while the page still reads as
  // the background.  O(words / 64) pointers — the only per-word-scaling
  // allocation left.
  std::vector<std::unique_ptr<Page>> table_;
  std::vector<std::unique_ptr<Page>> free_;  // recycled pages (capacity kept)
  std::vector<std::size_t> materialized_;    // page indexes with a live page
  std::size_t pages_peak_ = 0;
  std::uint64_t page_allocs_ = 0;

  // Background: what an unmaterialized page reads as.  Either a broadcast
  // pattern (pattern_limbs_ caches one page worth of it) or a per-word bit
  // baseline (seeded/loaded; bg_bits_ points into baselines_ or
  // loaded_bits_ — this object's own storage, hence no copying).
  BitVec bg_pattern_;
  std::vector<std::uint64_t> pattern_limbs_;
  const std::uint64_t* bg_bits_ = nullptr;
  std::vector<std::uint64_t> loaded_bits_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> baselines_;

  std::vector<LaneFault> faults_;
  std::vector<std::uint32_t> cfst_all_, saf_all_;  // statics, injection order
  std::vector<RetEntry> ret_entries_;
  LaneMask lanes_union_{};       // OR of every injected lane mask
  bool lanes_overlap_ = false;   // two faults share a lane -> global statics
  LaneMask retired_union_{};     // lanes handed to retire_lanes so far
  std::vector<char> retired_;    // [fault idx] dropped via retire_lanes

  std::vector<LaneMask> old_, next_;  // write-path scratch (one word each)
  std::vector<LaneMask> read_buf_;    // AF-merged / broadcast read scratch
  mutable std::vector<LaneMask> peek_buf_;          // peek() expansion scratch
  std::vector<std::size_t> touched_;                // words disturbed by the current op
  std::vector<std::uint32_t> merge_cfst_, merge_saf_;  // candidate-merge scratch
  std::vector<char> seen_;                          // [fault idx] merge dedup flag
  std::uint64_t ops_ = 0;
};

}  // namespace twm

#endif  // TWM_MEMSIM_PACKED_MEMORY_H
