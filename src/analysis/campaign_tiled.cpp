// Tiled campaign backend, portable inner block: LaneTile<std::uint64_t, 64>
// — 64 plain 64-bit words per lane operation, 4096 fault universes per
// machine pass (memsim/lane_tile.h).
//
// This is the fallback tile instantiation: no arch flags, safe on every
// CPU.  The dispatcher (analysis/campaign.cpp) only lands here when the
// running CPU supports neither AVX2 nor AVX-512F; otherwise it calls the
// vector-inner-block twins in campaign_tiled_w256.cpp / _w512.cpp.
#include "analysis/campaign_exec.h"

namespace twm {

void run_campaign_tiled_base(const CampaignJob& job) {
  run_campaign_engine<PackedEngineT<LaneTile<std::uint64_t, 64>>>(job);
}

}  // namespace twm
