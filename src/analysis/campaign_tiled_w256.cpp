// Tiled campaign backend, AVX2 inner block: LaneTile<LaneBlock<4>, 16> —
// every per-cell tile loop is 16 256-bit vector operations (4096 lanes).
//
// Compiled with -mavx2 (see CMakeLists.txt).  Nothing in here may run
// before simd::supported(Width::W256) returned true — the dispatcher in
// analysis/campaign.cpp is the only caller and checks exactly that.
#include "analysis/campaign_exec.h"

namespace twm {

void run_campaign_tiled_w256(const CampaignJob& job) {
  run_campaign_engine<PackedEngineT<LaneTile<LaneBlock<4>, 16>>>(job);
}

}  // namespace twm
