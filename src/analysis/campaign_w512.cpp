// 512-lane campaign backend: PackedEngineT<LaneBlock<8>>, eight fault
// universes per bit of every lane operation.
//
// This translation unit is compiled with -mavx512f (see CMakeLists.txt) so
// the LaneBlock<8> word loops in the packed memory / march engine / scheme
// sessions become 512-bit vector operations.  Nothing in here may run
// before simd::supported(Width::W512) returned true — the dispatcher in
// analysis/campaign.cpp is the only caller and checks exactly that.
#include "analysis/campaign_exec.h"

namespace twm {

void run_campaign_w512(const CampaignJob& job) {
  run_campaign_engine<PackedEngineT<LaneBlock<8>>>(job);
}

}  // namespace twm
