#pragma once

// The serial oracle for campaign schedule tests: every regular round
// driven through the public per-round calls, round by round, on the
// calling thread, advancing the world at every round rather than once
// per epoch segment.

#include <cstdint>

#include "core/campaign.h"

namespace v6mon::core {

/// For each round r: advance_world(r) (a no-op for a frozen world), then
/// run_round(vp, r) for every vantage point in index order.
inline void run_rounds_serially(Campaign& campaign) {
  const World& world = campaign.world();
  for (std::uint32_t round = 0; round <= world.num_rounds; ++round) {
    campaign.advance_world(round);
    for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
      campaign.run_round(vp, round);
    }
  }
}

}  // namespace v6mon::core
