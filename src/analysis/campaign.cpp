#include "analysis/campaign.h"

#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/campaign_exec.h"
#include "util/failpoint.h"

namespace twm {

std::string to_string(CoverageBackend b) {
  switch (b) {
    case CoverageBackend::Scalar: return "scalar";
    case CoverageBackend::Packed: return "packed";
  }
  return "?";
}

void run_pool(unsigned threads, const std::function<void()>& worker) {
  std::mutex mu;
  std::exception_ptr err;
  auto guarded = [&] {
    try {
      // Chaos hook: an injected worker death exercises the same first-
      // exception-wins capture a genuine engine fault takes.
      if (TWM_FAILPOINT("campaign.worker"))
        throw std::runtime_error("injected worker failure (campaign.worker failpoint)");
      worker();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!err) err = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  if (threads > 1) pool.reserve(threads - 1);
  try {
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(guarded);
  } catch (const std::system_error&) {
    // Thread-creation limit hit; proceed with the threads already running.
  }
  guarded();
  for (auto& th : pool) th.join();
  if (err) std::rethrow_exception(err);
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

// Translates a region sub-campaign's fault indices back to the positions
// the faults hold in the original (unpartitioned) list.  A run stays one
// run where its faults are contiguous in the original list too.
class RemappingObserver final : public UnitObserver {
 public:
  RemappingObserver(UnitObserver* inner, const std::vector<std::uint32_t>& map)
      : inner_(inner), map_(map) {}

  void on_unit_settled(std::size_t first, unsigned count, const char* all,
                       const char* any) override {
    for (unsigned k = 0; k < count;) {
      unsigned len = 1;
      while (k + len < count && map_[first + k + len] == map_[first + k] + len) ++len;
      inner_->on_unit_settled(map_[first + k], len, all + k, any + k);
      k += len;
    }
  }

  void on_seed_verdict(std::size_t fault, std::size_t seed_index, bool detected) override {
    inner_->on_seed_verdict(map_[fault], seed_index, detected);
  }

  bool want_seed_verdicts() const override { return inner_->want_seed_verdicts(); }
  void flush() override { inner_->flush(); }
  bool cancelled() const override { return inner_->cancelled(); }

 private:
  UnitObserver* inner_;
  const std::vector<std::uint32_t>& map_;
};

}  // namespace

void CampaignRunner::dispatch(const CampaignJob& job) const {
  if (options_.backend == CoverageBackend::Scalar)
    run_campaign_engine<ScalarEngine>(job);
  else
    run_campaign_engine<PackedEngine>(job);
}

void CampaignRunner::run(SchemeKind scheme, const MarchTest& bit_march,
                         const std::vector<Fault>& faults,
                         const std::vector<std::uint64_t>& seeds, bool need_any,
                         std::vector<char>& all, std::vector<char>& any,
                         VerdictMatrix* out_matrix, UnitObserver* observer,
                         CampaignStats* stats, const RegionProgress* progress) const {
  if (seeds.empty()) throw std::invalid_argument("CampaignRunner: no seeds");
  const std::size_t n = faults.size();
  all.assign(n, 1);
  any.assign(n, 0);
  if (out_matrix) {
    out_matrix->num_faults = n;
    out_matrix->num_seeds = seeds.size();
    out_matrix->bits.assign(n * seeds.size(), 0);
  }
  if (n == 0) return;

  const SchemePlan plan = make_scheme_plan(scheme, bit_march, width_);
  const unsigned regions = std::max(1u, options_.regions);

  if (regions == 1 && !progress) {
    run_list(plan, faults, seeds, need_any, all.data(), any.data(), out_matrix,
             observer, stats);
    return;
  }

  // Region-sharded execution: partition the fault list by the victim's
  // address slice (order preserved within a region) and run the slices as
  // independent sequential sub-campaigns.  Verdicts only depend on (fault,
  // seed) — batch composition is irrelevant — so the scattered merge is
  // identical to the unsharded run.
  std::vector<std::vector<std::uint32_t>> owned(regions);
  for (std::size_t i = 0; i < n; ++i)
    owned[fault_region(faults[i], words_, regions)].push_back(static_cast<std::uint32_t>(i));

  const std::size_t num_seeds = seeds.size();
  for (unsigned r = 0; r < regions; ++r) {
    if (observer && observer->cancelled()) return;
    if (progress && r < progress->done.size() && progress->done[r]) continue;
    const std::vector<std::uint32_t>& idx = owned[r];
    if (!idx.empty()) {
      std::vector<Fault> sub;
      sub.reserve(idx.size());
      for (const std::uint32_t g : idx) sub.push_back(faults[g]);
      std::vector<char> sub_all(idx.size(), 1), sub_any(idx.size(), 0);
      VerdictMatrix sub_matrix;
      if (out_matrix) {
        sub_matrix.num_faults = idx.size();
        sub_matrix.num_seeds = num_seeds;
        sub_matrix.bits.assign(idx.size() * num_seeds, 0);
      }
      RemappingObserver remap(observer, idx);
      run_list(plan, sub, seeds, need_any, sub_all.data(), sub_any.data(),
               out_matrix ? &sub_matrix : nullptr, observer ? &remap : nullptr, stats);
      for (std::size_t k = 0; k < idx.size(); ++k) {
        all[idx[k]] = sub_all[k];
        any[idx[k]] = sub_any[k];
      }
      if (out_matrix)
        for (std::size_t k = 0; k < idx.size(); ++k)
          std::memcpy(&out_matrix->bits[idx[k] * num_seeds], &sub_matrix.bits[k * num_seeds],
                      num_seeds);
      // A cancellation mid-region leaves the region incomplete: do not
      // report it as done.
      if (observer && observer->cancelled()) return;
    }
    if (progress && progress->on_region_done) progress->on_region_done(r, idx);
  }
}

void CampaignRunner::run_list(const SchemePlan& plan, const std::vector<Fault>& faults,
                              const std::vector<std::uint64_t>& seeds, bool need_any,
                              char* all, char* any, VerdictMatrix* out_matrix,
                              UnitObserver* observer, CampaignStats* stats) const {
  const std::size_t n = faults.size();
  if (n == 0) return;
  CampaignJob job;
  job.plan = &plan;
  job.words = words_;
  job.threads = options_.threads;
  job.seeds = seeds.data();
  job.num_seeds = seeds.size();
  job.need_any = need_any;
  job.faults = faults.data();
  job.num_faults = n;
  job.all = all;
  job.any = any;
  job.matrix = out_matrix;
  job.observer = observer;
  job.stats = stats;
  if (stats) stats->faults_simulated.fetch_add(n, std::memory_order_relaxed);
  dispatch(job);
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
