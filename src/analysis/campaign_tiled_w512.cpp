// Tiled campaign backend, AVX-512 inner block: LaneTile<LaneBlock<8>, 8> —
// every per-cell tile loop is 8 512-bit vector operations (4096 lanes).
//
// Compiled with -mavx512f (see CMakeLists.txt).  Nothing in here may run
// before simd::supported(Width::W512) returned true — the dispatcher in
// analysis/campaign.cpp is the only caller and checks exactly that.
#include "analysis/campaign_exec.h"

namespace twm {

void run_campaign_tiled_w512(const CampaignJob& job) {
  run_campaign_engine<PackedEngineT<LaneTile<LaneBlock<8>, 8>>>(job);
}

}  // namespace twm
