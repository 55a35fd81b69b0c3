#include "analysis/campaign.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "analysis/campaign_exec.h"

namespace twm {

std::string to_string(CoverageBackend b) {
  switch (b) {
    case CoverageBackend::Scalar: return "scalar";
    case CoverageBackend::Packed: return "packed";
  }
  return "?";
}

WorkerPool::WorkerPool(unsigned threads, CampaignStats* stats)
    : size_(std::max(1u, threads)), stats_(stats) {}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::start() {
  started_ = true;
  threads_.reserve(size_ - 1);
  try {
    for (unsigned w = 1; w < size_; ++w) threads_.emplace_back([this, w] { serve(w); });
  } catch (const std::system_error&) {
    // Thread-creation limit hit; proceed with the threads already running.
  }
  size_ = static_cast<unsigned>(threads_.size()) + 1;
  if (stats_ && !threads_.empty()) stats_->pool_starts.fetch_add(1, std::memory_order_relaxed);
}

void WorkerPool::serve(unsigned worker) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [&] { return quit_ || generation_ != seen; });
    if (quit_) return;
    seen = generation_;
    const std::function<void(unsigned)>& task = *task_;
    lock.unlock();
    std::exception_ptr failed;
    try {
      task(worker);
    } catch (...) {
      failed = std::current_exception();
    }
    lock.lock();
    if (failed && !error_) error_ = failed;
    if (--busy_ == 0) idle_.notify_all();
  }
}

void WorkerPool::run(const std::function<void(unsigned)>& fn) {
  if (!started_ && size_ > 1) start();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task_ = &fn;
    busy_ = static_cast<unsigned>(threads_.size());
    ++generation_;
  }
  wake_.notify_all();
  std::exception_ptr failed;
  try {
    fn(0);
  } catch (...) {
    failed = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (failed && !error_) error_ = failed;
  idle_.wait(lock, [&] { return busy_ == 0; });
  const std::exception_ptr err = std::exchange(error_, nullptr);
  task_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

void WorkerPool::for_each(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (n <= 1 || size_ == 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  run([&](unsigned) {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) task(i);
  });
}

unsigned fault_region(const Fault& f, std::size_t words, unsigned regions) {
  if (regions <= 1) return 0;
  const std::size_t span = (words + regions - 1) / regions;
  return static_cast<unsigned>(f.victim.word / span);
}

void require_golden_lane_clear(LaneMask verdicts) {
  if (verdicts & 1ull)
    throw std::logic_error(
        "CampaignRunner: packed golden lane reported a detection (engine bug)");
}

bool VerdictMatrix::detected_all(std::size_t fault) const {
  for (std::size_t s = 0; s < num_seeds; ++s)
    if (!detected(fault, s)) return false;
  return true;
}

bool VerdictMatrix::detected_any(std::size_t fault) const {
  for (std::size_t s = 0; s < num_seeds; ++s)
    if (detected(fault, s)) return true;
  return false;
}

namespace {

// run()'s campaign: one cell.
class OneCell final : public CellFeed {
 public:
  explicit OneCell(const CampaignCell& cell) : cell_(cell) {}
  std::size_t size() const override { return 1; }
  CampaignCell cell(std::size_t) override { return cell_; }

 private:
  CampaignCell cell_;
};

}  // namespace

void CampaignRunner::run(SchemeKind scheme, const MarchTest& bit_march,
                         const std::vector<Fault>& faults,
                         const std::vector<std::uint64_t>& seeds, bool need_any,
                         std::vector<char>& all, std::vector<char>& any,
                         VerdictMatrix* out_matrix, UnitObserver* observer,
                         CampaignStats* stats, const RegionProgress* progress) const {
  if (seeds.empty()) throw std::invalid_argument("CampaignRunner: no seeds");
  if (faults.empty()) {
    all.clear();
    any.clear();
    if (out_matrix) *out_matrix = {0, seeds.size(), {}};
    return;
  }
  const SchemePlan plan = make_scheme_plan(scheme, bit_march, width_);
  OneCell feed({&plan, &faults, need_any, &all, &any, out_matrix, observer, progress});
  run_cells(feed, seeds, nullptr, stats);
}

void CampaignRunner::run_cells(CellFeed& feed, const std::vector<std::uint64_t>& seeds,
                               WorkerPool* pool, CampaignStats* stats) const {
  if (seeds.empty()) throw std::invalid_argument("CampaignRunner: no seeds");
  std::optional<WorkerPool> own;
  if (!pool) pool = &own.emplace(options_.threads, stats);
  if (options_.backend == CoverageBackend::Scalar)
    run_campaign_engine<ScalarEngine>(feed, seeds, words_, width_, options_.regions, *pool, stats);
  else
    run_campaign_engine<PackedEngine>(feed, seeds, words_, width_, options_.regions, *pool, stats);
}

CoverageOutcome CampaignRunner::evaluate(SchemeKind scheme, const MarchTest& bit_march,
                                         const std::vector<Fault>& faults,
                                         const std::vector<std::uint64_t>& seeds) const {
  std::vector<char> all, any;
  run(scheme, bit_march, faults, seeds, /*need_any=*/true, all, any);
  CoverageOutcome out;
  out.total = faults.size();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    out.detected_all += all[i];
    out.detected_any += any[i];
  }
  return out;
}

std::vector<bool> CampaignRunner::per_fault(SchemeKind scheme, const MarchTest& bit_march,
                                            const std::vector<Fault>& faults,
                                            const std::vector<std::uint64_t>& seeds,
                                            CampaignStats* stats) const {
  std::vector<char> all, any;
  run(scheme, bit_march, faults, seeds, /*need_any=*/false, all, any, nullptr, nullptr, stats);
  return std::vector<bool>(all.begin(), all.end());
}

VerdictMatrix CampaignRunner::matrix(SchemeKind scheme, const MarchTest& bit_march,
                                     const std::vector<Fault>& faults,
                                     const std::vector<std::uint64_t>& seeds) const {
  VerdictMatrix m;
  std::vector<char> all, any;
  run(scheme, bit_march, faults, seeds, /*need_any=*/true, all, any, &m);
  return m;
}

}  // namespace twm
