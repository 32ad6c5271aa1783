// The evolving-world engine's determinism contract, end to end:
//
//   1. An *empty* timeline is invisible — a campaign over it is
//      byte-identical to a campaign over the bare World (the frozen,
//      pre-epoch code path).
//   2. An *evolving* campaign is a pure function of (spec, seed): the
//      thread count stays a performance knob, exactly as for frozen
//      campaigns.
//   3. The incremental RIB path (compute_routes_delta over the dirty-AS
//      frontier) and the from-scratch rebuild mode produce byte-identical
//      campaigns — the per-epoch oracle of bgp_delta_test, lifted to the
//      full pipeline.
//   4. Applied deltas leave the world self-consistent: granted AAAA
//      addresses resolve to the granting AS in the origin map and the
//      catalog windows open at the epoch round.
//   5. After every epoch, each changed destination's VP RIB entries are
//      exactly what its re-converged table implies, in both advance modes.
//   6. A site granted an AAAA record is monitored from its grant round on
//      (the catalog's schedule index follows the grant).

#include "core/world_timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/world_delta.h"
#include "scenario/evolution.h"
#include "scenario/world_builder.h"
#include "serial_rounds.h"
#include "util/error.h"

namespace v6mon::core {
namespace {

scenario::WorldSpec tiny_spec() {
  scenario::WorldSpec spec;
  spec.seed = 1103;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 25;
  spec.topology.num_stub = 120;
  spec.catalog.initial_sites = 2000;
  spec.catalog.churn_per_round = 10;
  spec.catalog.num_rounds = 8;
  spec.catalog.adoption = {0.5, 0.4, 0.3, 0.25, 0.2, 0.15};
  spec.w6d_round = 5;
  spec.vantage_points = {{.name = "VP-a",
                          .type = VantagePoint::Type::kAcademic,
                          .region = topo::Region::kNorthAmerica,
                          .start_round = 0,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSameProviders},
                         {.name = "VP-b",
                          .type = VantagePoint::Type::kCommercial,
                          .region = topo::Region::kEurope,
                          .start_round = 2,
                          .has_as_path = true,
                          .whitelisted = false,
                          .uses_dns_cache_supplement = false,
                          .num_v4_providers = 2,
                          .v6_mode = scenario::V6UplinkMode::kSubsetProviders}};
  return spec;
}

/// tiny_spec with the evolving-world generator switched on: an epoch
/// every second round plus the inflections (depletion at 4, W6D at 5).
scenario::WorldSpec evolving_spec() {
  scenario::WorldSpec spec = tiny_spec();
  spec.evolution.enabled = true;
  spec.evolution.delta_rate = 4.0;  // tiny world: push hard enough to matter
  spec.evolution.epoch_interval = 2;
  spec.evolution.max_as_fraction = 0.05;
  spec.evolution.depletion_round = 4;
  return spec;
}

std::unique_ptr<Campaign> run_frozen(const World& world, CampaignConfig cfg) {
  auto campaign = std::make_unique<Campaign>(world, std::move(cfg));
  campaign->run();
  campaign->run_w6d();
  campaign->finalize();
  return campaign;
}

/// Timelines mutate as they advance, so every campaign run gets a fresh
/// one; the pair is kept alive together (Campaign holds a reference).
struct EvolvingRun {
  std::unique_ptr<WorldTimeline> timeline;
  std::unique_ptr<Campaign> campaign;
};

/// `serial_rounds` drives the regular rounds through run_rounds_serially
/// instead of run()'s per-VP fork/join.
EvolvingRun run_evolving(const scenario::WorldSpec& spec, CampaignConfig cfg,
                         EpochAdvanceMode mode = EpochAdvanceMode::kIncremental,
                         bool serial_rounds = false) {
  EvolvingRun run;
  run.timeline = std::make_unique<WorldTimeline>(scenario::build_timeline(spec));
  run.timeline->set_advance_mode(mode);
  run.campaign = std::make_unique<Campaign>(*run.timeline, std::move(cfg));
  if (serial_rounds) {
    run_rounds_serially(*run.campaign);
  } else {
    run.campaign->run();
  }
  run.campaign->run_w6d();
  run.campaign->finalize();
  return run;
}

void expect_identical_observables(const Campaign& a, const Campaign& b) {
  ASSERT_EQ(a.world().vantage_points.size(), b.world().vantage_points.size());
  for (std::size_t vp = 0; vp < a.world().vantage_points.size(); ++vp) {
    SCOPED_TRACE(a.world().vantage_points[vp].name);
    EXPECT_EQ(a.results(vp).to_csv(), b.results(vp).to_csv());
    EXPECT_EQ(a.w6d_results(vp).to_csv(), b.w6d_results(vp).to_csv());
  }
}

// --- 1. Empty timeline == bare world ---------------------------------------

TEST(WorldTimeline, EmptyTimelineCampaignIsByteIdenticalToFrozenWorld) {
  const scenario::WorldSpec spec = tiny_spec();
  const World bare = scenario::build_world(spec);
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 2;
  const auto frozen = run_frozen(bare, cfg);

  // build_timeline with evolution disabled: empty epoch stream, world
  // bit-identical to build_world's (no RNG stream disturbed).
  ASSERT_FALSE(spec.evolution.enabled);
  const auto evolved = run_evolving(spec, cfg);
  EXPECT_TRUE(evolved.timeline->empty());
  EXPECT_EQ(evolved.timeline->current_epoch(), 0u);

  expect_identical_observables(*frozen, *evolved.campaign);
}

// --- 2. Evolving determinism matrix ----------------------------------------

TEST(WorldTimeline, EvolvingCampaignThreadCountInvisible) {
  const scenario::WorldSpec spec = evolving_spec();
  // Reference: the rounds driven by hand, round-major, advancing the
  // world at every round boundary (run_rounds_serially). Every run()
  // cell — advancing only between epoch segments instead — must
  // reproduce it byte for byte, at threads {1, 4, 8}.
  CampaignConfig ref_cfg;
  ref_cfg.seed = 2011;
  ref_cfg.threads = 1;
  const auto reference =
      run_evolving(spec, ref_cfg, EpochAdvanceMode::kIncremental, /*serial_rounds=*/true);
  ASSERT_GT(reference.timeline->num_epochs(), 0u)
      << "evolving_spec produced no epochs; the matrix tests nothing";
  EXPECT_EQ(reference.timeline->current_epoch(), reference.timeline->num_epochs());

  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignConfig cfg = ref_cfg;
    cfg.threads = threads;
    const auto run = run_evolving(spec, cfg);
    expect_identical_observables(*reference.campaign, *run.campaign);
  }
}

// --- 3. Incremental == full rebuild, end to end ----------------------------

TEST(WorldTimeline, IncrementalAdvanceByteIdenticalToFullRebuild) {
  const scenario::WorldSpec spec = evolving_spec();
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 4;

  const auto incremental = run_evolving(spec, cfg, EpochAdvanceMode::kIncremental);
  const auto rebuild = run_evolving(spec, cfg, EpochAdvanceMode::kFullRebuild);

  expect_identical_observables(*incremental.campaign, *rebuild.campaign);

  // The incremental path must actually have run incrementally (else the
  // comparison is rebuild-vs-rebuild and proves nothing).
  std::size_t delta_recomputes = 0;
  std::size_t fallbacks = 0;
  for (const EpochStats& s : incremental.timeline->epoch_stats()) {
    delta_recomputes += s.delta_recomputes;
    fallbacks += s.fallbacks;
  }
  EXPECT_GT(delta_recomputes, 0u);
  EXPECT_EQ(fallbacks, 0u) << "tiny-world deltas should never exhaust the budget";
  for (const EpochStats& s : rebuild.timeline->epoch_stats()) {
    EXPECT_EQ(s.delta_recomputes, 0u);
  }
}

// --- 4. Applied deltas leave a self-consistent world -----------------------

TEST(WorldTimeline, AppliedEpochsKeepWorldSelfConsistent) {
  WorldTimeline timeline = scenario::build_timeline(evolving_spec());
  ASSERT_FALSE(timeline.empty());

  const std::uint32_t last = timeline.world().num_rounds;
  for (std::uint32_t round = 0; round <= last; ++round) {
    for (const WorldChangeSummary& summary : timeline.advance_to(round)) {
      EXPECT_EQ(summary.round, round);
      const World& w = timeline.world();
      for (const std::uint32_t site_id : summary.sites_gained_aaaa) {
        const web::Site& site = w.catalog.site(site_id);
        // The AAAA window opens exactly at the epoch boundary...
        EXPECT_EQ(site.v6_from_round, round);
        EXPECT_TRUE(site.dual_stack_at(round));
        // ...the granted address belongs to the hosting AS in the origin
        // map (DNS answers and BGP origins agree)...
        ASSERT_NE(site.v6_as, topo::kNoAs);
        const auto origin = w.origins.origin_v6(site.v6_addr);
        ASSERT_TRUE(origin.has_value());
        EXPECT_EQ(*origin, site.v6_as);
        // ...and the hosting AS speaks IPv6.
        EXPECT_TRUE(w.graph.node(site.v6_as).has_v6);
      }
      // Every changed dest must have a tracked table, and that table must
      // be live (reachable from somewhere, or legitimately dark).
      for (const topo::Asn d : summary.changed_dests) {
        EXPECT_NE(timeline.v6_table(d), nullptr);
      }
    }
  }
  EXPECT_EQ(timeline.current_epoch(), timeline.num_epochs());
  EXPECT_FALSE(timeline.next_epoch_round().has_value());
}

// --- 5. Every changed destination leaves the VP RIBs in step with its table -

/// After each applied epoch, every VP's v6 RIB must hold exactly what the
/// engine's table for each changed destination implies: {origin d, the
/// table's AS path} on each non-6to4 prefix of d when d speaks IPv6 and
/// the VP reaches it, and no entry for the prefix otherwise.
void expect_ribs_follow_tables(EpochAdvanceMode mode) {
  WorldTimeline timeline = scenario::build_timeline(evolving_spec());
  timeline.set_advance_mode(mode);
  std::size_t installed = 0;
  const std::uint32_t last = timeline.world().num_rounds;
  for (std::uint32_t round = 0; round <= last; ++round) {
    for (const WorldChangeSummary& summary : timeline.advance_to(round)) {
      SCOPED_TRACE("epoch " + std::to_string(summary.epoch));
      const World& w = timeline.world();
      for (const topo::Asn d : summary.changed_dests) {
        const bgp::RouteTable* t = timeline.v6_table(d);
        ASSERT_NE(t, nullptr);
        const topo::AsNode& dn = w.graph.node(d);
        for (const VantagePoint& vp : w.vantage_points) {
          const bool routable = dn.has_v6 && t->reachable(vp.asn);
          for (const auto& p : dn.v6_prefixes) {
            if (p.network().is_6to4()) continue;
            const bgp::RibEntry* e = vp.rib.find_v6(p);
            if (routable) {
              ASSERT_NE(e, nullptr) << vp.name << " dest=" << d;
              EXPECT_EQ(e->origin, d) << vp.name;
              EXPECT_EQ(e->as_path, t->as_path(vp.asn)) << vp.name << " dest=" << d;
              ++installed;
            } else {
              EXPECT_EQ(e, nullptr) << vp.name << " dest=" << d;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(timeline.current_epoch(), timeline.num_epochs());
  EXPECT_GT(installed, 0u);
}

TEST(WorldTimeline, RibsFollowTablesAfterEveryEpochIncremental) {
  expect_ribs_follow_tables(EpochAdvanceMode::kIncremental);
}

TEST(WorldTimeline, RibsFollowTablesAfterEveryEpochFullRebuild) {
  expect_ribs_follow_tables(EpochAdvanceMode::kFullRebuild);
}

// --- 6. AAAA grants reach the round work list ------------------------------

/// A site granted an AAAA record at an epoch is monitored — queued on the
/// round's work list, not settled as v4-only by the fast path — at every
/// round from its grant on, by every vantage point that lists it. The
/// work list comes from the catalog's schedule index, which grant_aaaa
/// must keep current.
TEST(WorldTimeline, GrantedSitesAreMonitoredFromTheirGrantRound) {
  WorldTimeline timeline = scenario::build_timeline(evolving_spec());
  const std::vector<std::uint32_t> seeded = timeline.world().catalog.v6_site_ids();
  CampaignConfig cfg;
  cfg.seed = 2011;
  cfg.threads = 2;
  Campaign campaign(timeline, cfg);
  run_rounds_serially(campaign);
  campaign.finalize();

  const World& w = timeline.world();
  const web::SiteCatalog& cat = w.catalog;
  std::vector<std::uint32_t> granted;
  std::set_difference(cat.v6_site_ids().begin(), cat.v6_site_ids().end(),
                      seeded.begin(), seeded.end(), std::back_inserter(granted));
  ASSERT_FALSE(granted.empty()) << "evolving_spec granted no AAAA; nothing tested";

  for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
    const VantagePoint& v = w.vantage_points[vp];
    SCOPED_TRACE(v.name);
    const ResultsDb& db = campaign.results(vp);
    for (const std::uint32_t id : granted) {
      const web::Site& s = cat.site(id);
      ASSERT_LE(s.v6_from_round, w.num_rounds);
      std::vector<std::uint32_t> expected;
      if (!s.from_dns_cache || v.uses_dns_cache_supplement) {
        for (std::uint32_t r = std::max({s.v6_from_round, s.first_seen_round,
                                         v.start_round});
             r <= w.num_rounds; ++r) {
          expected.push_back(r);
        }
      }
      // Without DNS failure injection every monitored dual-stack site
      // ends in a recorded status, so its rows name the rounds it was
      // queued in; a fast-pathed round leaves no row.
      const std::span<const std::uint32_t> rounds = db.series(id).rounds();
      EXPECT_EQ(std::vector<std::uint32_t>(rounds.begin(), rounds.end()), expected)
          << "site " << id << " granted at round " << s.v6_from_round;
    }
    // The fast path settles exactly the listed sites that are not
    // dual-stack at the round (the final rows carry every grant window).
    for (std::uint32_t r = v.start_round; r <= w.num_rounds; ++r) {
      std::uint64_t listed = 0, dual = 0;
      for (const web::Site& s : cat.sites()) {
        if ((s.from_dns_cache && !v.uses_dns_cache_supplement) || !s.in_list_at(r)) {
          continue;
        }
        ++listed;
        if (s.dual_stack_at(r)) ++dual;
      }
      EXPECT_EQ(db.round_counters(r).listed, listed) << "round " << r;
      EXPECT_EQ(db.round_counters(r).v4_only, listed - dual) << "round " << r;
    }
  }
}

// --- Constructor contract ---------------------------------------------------

TEST(WorldTimeline, RejectsEpochAtRoundZeroAndNonAscendingRounds) {
  {
    std::vector<EpochDeltas> epochs(1);
    epochs[0].round = 0;
    EXPECT_THROW(WorldTimeline(scenario::build_world(tiny_spec()), epochs),
                 ConfigError);
  }
  {
    std::vector<EpochDeltas> epochs(2);
    epochs[0].round = 3;
    epochs[1].round = 3;  // not strictly ascending
    EXPECT_THROW(WorldTimeline(scenario::build_world(tiny_spec()), epochs),
                 ConfigError);
  }
}

// Advancing past a round with no pending epoch is a no-op (and cheap).
TEST(WorldTimeline, AdvancePastEndIsNoOp) {
  WorldTimeline timeline(scenario::build_world(tiny_spec()));
  EXPECT_TRUE(timeline.advance_to(1000).empty());
  EXPECT_EQ(timeline.current_epoch(), 0u);
}

}  // namespace
}  // namespace v6mon::core
