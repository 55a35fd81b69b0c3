#include "memsim/memory.h"

#include <algorithm>
#include <new>
#include <set>
#include <stdexcept>

#include "memsim/limb_bits.h"
#include "util/failpoint.h"

namespace twm {

Memory::Memory(std::size_t num_words, unsigned word_width)
    : words_(num_words), width_(word_width) {
  if (num_words == 0 || word_width == 0)
    throw std::invalid_argument("Memory: empty geometry");
  // Chaos hook for allocation exhaustion of the state array; a genuine OOM
  // raises the same bad_alloc from assign() below.
  if (TWM_FAILPOINT("page.alloc")) throw std::bad_alloc();
  bits_.assign(limb_count(words_, width_), 0);
}

// --- state accessors ---------------------------------------------------------

bool Memory::get_bit(const CellAddr& c) const {
  return get_limb_bit(bits_.data(), cell_bit_pos(c.word, width_, c.bit));
}

void Memory::set_bit(const CellAddr& c, bool v) {
  set_limb_bit(bits_.data(), cell_bit_pos(c.word, width_, c.bit), v);
}

BitVec Memory::word_at(std::size_t addr) const {
  BitVec v(width_);
  const std::size_t base = addr * width_;
  for (unsigned j = 0; j < width_; ++j) v.set(j, get_limb_bit(bits_.data(), base + j));
  return v;
}

void Memory::set_word(std::size_t addr, const BitVec& v) {
  const std::size_t base = addr * width_;
  for (unsigned j = 0; j < width_; ++j) set_limb_bit(bits_.data(), base + j, v.get(j));
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
  for (std::size_t a = 0; a < words_; ++a) set_word(a, contents[a]);
  enforce_static_faults();
}

void Memory::fill_random(Rng& rng) {
  random_limbs(words_, width_, rng, bits_);
  enforce_static_faults();
}

void Memory::fill_limbs(const std::uint64_t* limbs) {
  if (limbs)
    std::copy(limbs, limbs + bits_.size(), bits_.begin());
  else
    std::fill(bits_.begin(), bits_.end(), std::uint64_t{0});
  enforce_static_faults();
}

void Memory::fill_seeded(std::uint64_t seed) {
  const std::vector<std::uint64_t> limbs = seeded_limbs(words_, width_, seed);
  fill_limbs(seed != 0 ? limbs.data() : nullptr);
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

std::vector<BitVec> seeded_word_values(std::size_t words, unsigned width,
                                       const std::uint64_t* limbs) {
  if (!limbs) return {BitVec::zeros(width)};
  std::vector<BitVec> out;
  if (width <= 16) {
    // A bitmap of the 2^width values marks the ones seen: no allocation per
    // value.  Golden certificates start from this list; with std::set
    // below, seed-mix read about 2% more peak RSS (BENCHMARKS.md).
    std::vector<bool> seen(std::size_t{1} << width);
    for (std::size_t a = 0; a < words && out.size() < seen.size(); ++a) {
      std::uint64_t v = 0;
      for (unsigned j = 0; j < width; ++j)
        v |= std::uint64_t{get_limb_bit(limbs, a * width + j)} << j;
      if (seen[v]) continue;
      seen[v] = true;
      out.push_back(BitVec::from_uint(width, v));
    }
    return out;
  }
  const std::uint64_t space = width < 64 ? std::uint64_t{1} << width : ~std::uint64_t{0};
  std::set<BitVec> seen;
  for (std::size_t a = 0; a < words && out.size() < space; ++a) {
    BitVec v(width);
    for (unsigned j = 0; j < width; ++j) v.set(j, get_limb_bit(limbs, a * width + j));
    if (seen.insert(v).second) out.push_back(std::move(v));
  }
  return out;
}

}  // namespace twm
