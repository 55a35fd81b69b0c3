// 256-lane campaign backend: PackedEngineT<LaneBlock<4>>, four fault
// universes per bit of every lane operation.
//
// This translation unit is compiled with -mavx2 (see CMakeLists.txt) so the
// LaneBlock<4> word loops in the packed memory / march engine / scheme
// sessions become 256-bit vector operations.  Nothing in here may run
// before simd::supported(Width::W256) returned true — the dispatcher in
// analysis/campaign.cpp is the only caller and checks exactly that.
#include "analysis/campaign_exec.h"

namespace twm {

void run_campaign_w256(const CampaignJob& job) {
  run_campaign_engine<PackedEngineT<LaneBlock<4>>>(job);
}

}  // namespace twm
