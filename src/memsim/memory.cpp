#include "memsim/memory.h"

#include <algorithm>
#include <new>
#include <set>
#include <stdexcept>

#include "memsim/packed_memory.h"  // kMemPageShift / kMemPageWords / kMemPageMask
#include "util/failpoint.h"

namespace twm {

Memory::Memory(std::size_t num_words, unsigned word_width)
    : words_(num_words), width_(word_width) {
  if (num_words == 0 || word_width == 0)
    throw std::invalid_argument("Memory: empty geometry");
  table_.resize((num_words + kMemPageWords - 1) / kMemPageWords);
  bg_pattern_ = BitVec::zeros(width_);
  pattern_limbs_.assign(width_, 0);
}

// --- paged state accessors -------------------------------------------------

bool Memory::cell_bit(std::size_t addr, unsigned j) const {
  const Page* p = table_[addr >> kMemPageShift].get();
  if (p) return get_limb_bit(p->bits.data(), (addr & kMemPageMask) * width_ + j);
  if (bg_bits_) return get_limb_bit(bg_bits_->data(), addr * width_ + j);
  return bg_pattern_.get(j);
}

Memory::Page& Memory::page_for_write(std::size_t addr) {
  const std::size_t pi = addr >> kMemPageShift;
  std::unique_ptr<Page>& slot = table_[pi];
  if (slot) return *slot;
  if (!free_.empty()) {
    slot = std::move(free_.back());
    free_.pop_back();
  } else {
    // Chaos hook for allocation exhaustion on the scalar path; the real
    // make_unique below throws the same bad_alloc when memory truly runs
    // out, so injected and genuine OOM take one code path upward.
    if (TWM_FAILPOINT("page.alloc")) throw std::bad_alloc();
    slot = std::make_unique<Page>();
    ++page_allocs_;
  }
  materialized_.push_back(pi);
  pages_peak_ = std::max(pages_peak_, materialized_.size());
  slot->bits.assign(width_, 0);
  if (bg_bits_)
    std::copy(bg_bits_->data() + pi * width_, bg_bits_->data() + (pi + 1) * width_,
              slot->bits.begin());
  else
    std::copy(pattern_limbs_.begin(), pattern_limbs_.end(), slot->bits.begin());
  return *slot;
}

void Memory::set_bit(const CellAddr& c, bool v) {
  Page& p = page_for_write(c.word);
  set_limb_bit(p.bits.data(), (c.word & kMemPageMask) * width_ + c.bit, v);
}

BitVec Memory::word_at(std::size_t addr) const {
  BitVec v(width_);
  const Page* p = table_[addr >> kMemPageShift].get();
  if (p) {
    const std::size_t base = (addr & kMemPageMask) * width_;
    for (unsigned j = 0; j < width_; ++j) v.set(j, get_limb_bit(p->bits.data(), base + j));
  } else if (bg_bits_) {
    for (unsigned j = 0; j < width_; ++j)
      v.set(j, get_limb_bit(bg_bits_->data(), addr * width_ + j));
  } else {
    v = bg_pattern_;
  }
  return v;
}

void Memory::set_word(std::size_t addr, const BitVec& v) {
  Page& p = page_for_write(addr);
  const std::size_t base = (addr & kMemPageMask) * width_;
  for (unsigned j = 0; j < width_; ++j) set_limb_bit(p.bits.data(), base + j, v.get(j));
}

void Memory::drop_pages() {
  for (const std::size_t pi : materialized_) {
    std::unique_ptr<Page>& slot = table_[pi];
    slot->bits.clear();
    free_.push_back(std::move(slot));
  }
  materialized_.clear();
}

void Memory::set_background_bits(Baseline bits) {
  bg_bits_ = std::move(bits);
  drop_pages();
  enforce_static_faults();
}

Memory::Baseline Memory::generate_bits(Rng& rng) const {
  auto bits = std::make_shared<std::vector<std::uint64_t>>(table_.size() * width_, 0);
  for (std::size_t a = 0; a < words_; ++a)
    for (unsigned j = 0; j < width_; ++j)
      set_limb_bit(bits->data(), a * width_ + j, rng.next_bool());
  return bits;
}

// --- the memory port ---------------------------------------------------------

BitVec Memory::read(std::size_t addr) {
  ++ops_;
  if (addr >= words_) throw std::out_of_range("Memory::read");
  BitVec v = word_at(addr);
  if (!has_af_) return v;
  // AF port distortion, per fault in injection order: an AFna address sees
  // the floating bus (zeros), an AFaw address the wired-AND of every cell
  // it decodes to.
  for (const Fault& f : faults_) {
    if (f.victim.word != addr) continue;
    if (f.cls == FaultClass::AFna)
      v = BitVec::zeros(width_);
    else if (f.cls == FaultClass::AFaw)
      v = v & word_at(f.aggressor.word);
  }
  return v;
}

void Memory::write(std::size_t addr, const BitVec& data) {
  ++ops_;
  if (addr >= words_) throw std::out_of_range("Memory::write");
  if (data.width() != width_) throw std::invalid_argument("Memory::write: width mismatch");
  const BitVec old = word_at(addr);
  BitVec next = data;

  // Step 0: an AFna address decodes to no cell — the write is lost (the
  // word keeps its old value, so the later steps see no transitions).
  if (has_af_) {
    for (const Fault& f : faults_)
      if (f.cls == FaultClass::AFna && f.victim.word == addr) next = old;
  }

  // Step 1: transition faults suppress the failing transition.
  for (const Fault& f : faults_) {
    if (f.cls != FaultClass::TF || f.victim.word != addr) continue;
    const bool o = old.get(f.victim.bit);
    const bool n = next.get(f.victim.bit);
    if (o == n) continue;
    const bool is_up = !o && n;
    if ((is_up && f.trans == Transition::Up) || (!is_up && f.trans == Transition::Down))
      next.set(f.victim.bit, o);  // transition fails, cell keeps old value
  }

  // Step 2: commit.
  set_word(addr, next);

  // Step 3: dynamic coupling faults triggered by aggressor transitions
  // caused by this write.
  for (const Fault& f : faults_) {
    if ((f.cls != FaultClass::CFid && f.cls != FaultClass::CFin) || f.aggressor.word != addr)
      continue;
    const bool o = old.get(f.aggressor.bit);
    const bool n = get_bit(f.aggressor);
    if (o == n) continue;
    const bool is_up = !o && n;
    const bool match =
        (is_up && f.trans == Transition::Up) || (!is_up && f.trans == Transition::Down);
    if (!match) continue;
    if (f.cls == FaultClass::CFid)
      set_bit(f.victim, f.value);
    else
      set_bit(f.victim, !get_bit(f.victim));
  }

  // Step 3.5: an AFaw address additionally decodes to the alias word — the
  // committed value is raw-copied there (no TF/coupling interplay at the
  // target; statics are re-enforced below).
  if (has_af_) {
    for (const Fault& f : faults_)
      if (f.cls == FaultClass::AFaw && f.victim.word == addr)
        set_word(f.aggressor.word, word_at(addr));
  }

  // A write refreshes the retention clock of any leaky cell it targets
  // (the row strobe happens even when a decoder fault loses the data).
  std::size_t ri = 0;
  for (const Fault& f : faults_) {
    if (f.cls != FaultClass::RET) continue;
    if (f.victim.word == addr) ret_age_[ri] = 0;
    ++ri;
  }

  // Steps 4 and 5.
  enforce_static_faults();
}

void Memory::elapse(unsigned units) {
  std::size_t ri = 0;
  for (const Fault& f : faults_) {
    if (f.cls != FaultClass::RET) continue;
    ret_age_[ri] += units;
    if (ret_age_[ri] >= f.retention) set_bit(f.victim, f.value);
    ++ri;
  }
  // Decay may expose cells to static coupling conditions.
  if (ri != 0) enforce_static_faults();
}

void Memory::enforce_static_faults() {
  // CFst chains are resolved in injection order; two passes give a fixpoint
  // for all single-fault and non-cyclic multi-fault configurations.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Fault& f : faults_) {
      if (f.cls != FaultClass::CFst) continue;
      if (get_bit(f.aggressor) == f.state) set_bit(f.victim, f.value);
    }
  }
  for (const Fault& f : faults_) {
    if (f.cls == FaultClass::SAF) set_bit(f.victim, f.value);
  }
}

void Memory::inject(const Fault& f) {
  auto check = [this](const CellAddr& c) {
    if (c.word >= words_ || c.bit >= width_)
      throw std::out_of_range("Memory::inject: cell outside memory");
  };
  if (f.is_decoder()) {
    if (f.victim.word >= words_ ||
        (f.cls == FaultClass::AFaw && f.aggressor.word >= words_))
      throw std::out_of_range("Memory::inject: address outside memory");
    if (f.cls == FaultClass::AFaw && f.aggressor.word == f.victim.word)
      throw std::invalid_argument("Memory::inject: alias == address");
    has_af_ = true;
  } else {
    check(f.victim);
    if (f.is_coupling()) {
      check(f.aggressor);
      if (f.aggressor == f.victim)
        throw std::invalid_argument("Memory::inject: aggressor == victim");
    }
  }
  faults_.push_back(f);
  if (f.cls == FaultClass::RET) ret_age_.push_back(0);
  enforce_static_faults();
}

void Memory::load(const std::vector<BitVec>& contents) {
  if (contents.size() != words_)
    throw std::invalid_argument("Memory::load: word count mismatch");
  for (const auto& w : contents)
    if (w.width() != width_) throw std::invalid_argument("Memory::load: width mismatch");
  auto bits = std::make_shared<std::vector<std::uint64_t>>(table_.size() * width_, 0);
  for (std::size_t a = 0; a < words_; ++a)
    for (unsigned j = 0; j < width_; ++j)
      set_limb_bit(bits->data(), a * width_ + j, contents[a].get(j));
  set_background_bits(std::move(bits));
}

void Memory::fill(const BitVec& pattern) {
  if (pattern.width() != width_) throw std::invalid_argument("Memory::fill: width mismatch");
  bg_pattern_ = pattern;
  pattern_limbs_.assign(width_, 0);
  for (std::size_t w = 0; w < kMemPageWords; ++w)
    for (unsigned j = 0; j < width_; ++j)
      set_limb_bit(pattern_limbs_.data(), w * width_ + j, pattern.get(j));
  set_background_bits(nullptr);
}

void Memory::fill_random(Rng& rng) { set_background_bits(generate_bits(rng)); }

void Memory::fill_seeded(std::uint64_t seed) {
  if (seed == 0) {
    fill(BitVec::zeros(width_));
    return;
  }
  Baseline& bits = baselines_[seed];
  if (!bits) {
    Rng rng(seed);
    bits = generate_bits(rng);
  }
  set_background_bits(bits);
}

BitVec Memory::peek(std::size_t addr) const {
  if (addr >= words_) throw std::out_of_range("Memory::peek");
  return word_at(addr);
}

std::vector<BitVec> Memory::snapshot() const {
  std::vector<BitVec> out;
  out.reserve(words_);
  for (std::size_t a = 0; a < words_; ++a) out.push_back(word_at(a));
  return out;
}

bool Memory::equals(const std::vector<BitVec>& snap) const {
  if (snap.size() != words_) return false;
  for (std::size_t a = 0; a < words_; ++a)
    if (word_at(a) != snap[a]) return false;
  return true;
}

std::vector<BitVec> seeded_word_values(std::size_t words, unsigned width, std::uint64_t seed) {
  if (seed == 0) return {BitVec::zeros(width)};
  Rng rng(seed);
  const std::uint64_t space = width < 64 ? std::uint64_t{1} << width : ~std::uint64_t{0};
  std::set<BitVec> seen;
  std::vector<BitVec> out;
  for (std::size_t a = 0; a < words && out.size() < space; ++a) {
    BitVec v = rng.next_word(width);
    if (seen.insert(v).second) out.push_back(std::move(v));
  }
  return out;
}

}  // namespace twm
