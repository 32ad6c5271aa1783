#pragma once

#include <atomic>
#include <deque>
#include <vector>

#include "core/monitor.h"
#include "core/results.h"
#include "core/thread_pool.h"
#include "core/world.h"

namespace v6mon::core {

class WorldTimeline;

/// Campaign-level configuration.
struct CampaignConfig {
  MonitorConfig monitor;
  /// Worker threads; 0 = min(monitor.max_parallel_sites, hardware).
  std::size_t threads = 0;
  /// Root seed for all measurement randomness (derives per-site streams,
  /// so results are independent of thread scheduling).
  std::uint64_t seed = 1;
  /// Mini-rounds run during the World IPv6 Day event (the paper monitored
  /// participants every 30 minutes for the day).
  std::size_t w6d_mini_rounds = 12;
};

/// Runs the paper's measurement campaign: for every vantage point, one
/// monitoring round per campaign round from the VP's start round onward,
/// plus the optional World IPv6 Day special (participants only, many
/// samples, stored separately).
class Campaign {
 public:
  /// Rounds per vantage point in the monitor stream key
  /// (vp * kRoundKeySpan + round): every round, the W6D round included,
  /// must lie below it, or one VP's rounds would draw another's streams.
  static constexpr std::uint32_t kRoundKeySpan = 4096;
  /// Vantage points the 32-bit (vp, round) half of that key can hold.
  static constexpr std::size_t kMaxVantagePoints = std::size_t{1} << 20;

  /// Throws ConfigError when the world has a round >= kRoundKeySpan or
  /// kMaxVantagePoints or more vantage points.
  Campaign(const World& world, CampaignConfig config);

  /// Evolving-world campaign: the timeline owns the world and advances
  /// it at configured rounds. The campaign measures against
  /// `timeline.world()` and drives the timeline from run(). A timeline
  /// with no epochs behaves exactly like the const-world constructor —
  /// byte-identical output, no epoch machinery on any path.
  Campaign(WorldTimeline& timeline, CampaignConfig config);

  /// Run all regular rounds for all vantage points, one fork/join per
  /// epoch segment: the pending epoch rounds e <= num_rounds cut the
  /// rounds into segments [lo, hi); for each, advance_world(lo) on the
  /// calling thread, then parallel_index over the VPs, each running its
  /// rounds lo..hi-1 in order (sites fan out through a nested
  /// parallel_index). All VPs observe round r under the same world
  /// version, and observation bytes equal those of calling
  /// advance_world(r) and then run_round(vp, r) for every vp, round by
  /// round — every RNG stream is keyed by (vp, round, site), never by
  /// schedule order.
  void run();

  /// Apply every pending world epoch with epoch round <= `round`:
  /// advances the timeline (the catalog keeps its own round schedule
  /// index current through AAAA grants), then notifies each vantage
  /// point's monitor (path-cache sweep + resolved-row invalidation).
  /// Coordinator-only, quiescent: no run_round may be in flight.
  /// No-op without a timeline. run() calls this; exposed for tests and
  /// examples that drive rounds manually.
  void advance_world(std::uint32_t round);

  /// Run one round for one vantage point (exposed for tests/examples).
  /// Safe to call concurrently from several threads — ingest epochs on
  /// one vantage point's store are serialized internally.
  void run_round(std::size_t vp_index, std::uint32_t round);

  /// Run the World IPv6 Day special event for every vantage point: one
  /// parallel_index task per participating VP, each running that VP's
  /// mini-rounds in order. No-op when the world has no W6D round.
  void run_w6d();

  [[nodiscard]] const ResultsDb& results(std::size_t vp_index) const {
    return stores_.at(vp_index).db;
  }
  [[nodiscard]] const ResultsDb& w6d_results(std::size_t vp_index) const {
    return w6d_stores_.at(vp_index).db;
  }
  [[nodiscard]] const World& world() const { return world_; }
  [[nodiscard]] const CampaignConfig& config() const { return config_; }

  /// Conn-layer verdict totals for one vantage point (ISSUE 9; zeros
  /// under FallbackPolicy::kNone). Deterministic across thread counts.
  /// Quiescent callers only — between rounds or after run().
  [[nodiscard]] FallbackStats fallback_stats(std::size_t vp_index) const {
    return monitors_.at(vp_index).fallback_stats();
  }

  /// Per-vantage-point DNS resolver totals, aggregated over every
  /// (site, round) resolver the campaign created — regular and W6D
  /// rounds together. Each field is a sum of per-site counts (pure
  /// functions of the seed), so the totals are deterministic across
  /// thread counts; the same numbers feed the global dns.* metrics
  /// counters, which lose the per-VP split this keeps.
  [[nodiscard]] dns::Resolver::Stats dns_stats(std::size_t vp_index) const;

  /// End ingest and build the analysis views: finalize every ResultsDb.
  /// Call after all runs, before analysis. Idempotent; no run_round /
  /// run_w6d calls may follow.
  void finalize();

 private:
  /// One vantage point's results store and the lock that makes it a
  /// single-writer store: `epoch_mu` is held for the whole of a round, a
  /// W6D event or a finalize on this store, and so serializes every
  /// writer of `db` (ResultsDb itself does not lock).
  struct VpStore {
    ResultsDb db;
    util::Mutex epoch_mu;
  };

  /// Monitor `sites` into one result slot each (fanned out through
  /// parallel_index), then append the slots to `db` in index order (the
  /// caller holds the store's epoch mutex).
  void run_sites(std::size_t vp_index, std::uint32_t round,
                 const std::vector<std::uint32_t>& sites, ResultsDb& db,
                 std::uint64_t salt);

  /// Fill in config.threads when left at 0 (done before pool_ spins up).
  static CampaignConfig resolve(CampaignConfig config);

  const World& world_;
  /// Non-null for the evolving-world constructor; the pointee owns the
  /// World that `world_` references and mutates it only inside
  /// advance_world (quiescent round boundaries).
  WorldTimeline* timeline_ = nullptr;
  CampaignConfig config_;
  /// One pool for the campaign's lifetime: rounds × VPs × mini-rounds
  /// reuse its workers instead of constructing/joining a pool per
  /// run_sites call. Sites are handed out through parallel_index's atomic
  /// work-stealing counter, not fixed chunks, so a straggler (dual-stack
  /// site with a long CI loop) only ever delays its own worker.
  ThreadPool pool_;
  /// Per-VP DNS totals (see dns_stats). Relaxed atomics: workers add
  /// their site-resolver's counts after each monitor_site; sums of
  /// non-negative integers are schedule-independent.
  struct DnsTally {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> nxdomain{0};
  };

  /// Deques: VpStore holds a mutex and is therefore immovable.
  std::deque<VpStore> stores_;
  std::deque<VpStore> w6d_stores_;
  std::deque<DnsTally> dns_tallies_;
  std::vector<Monitor> monitors_;
  bool finalized_ = false;
};

}  // namespace v6mon::core
