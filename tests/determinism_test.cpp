// Determinism under parallelism: every campaign observable must be a pure
// function of (world, seed) — never of thread count, chunking, or worker
// scheduling. This is the contract that makes `threads` a pure performance
// knob: threads=1 is the serial reference, threads=8 must reproduce it
// byte for byte, all the way through the analysis tables. A failure here
// means some RNG stream or result slot picked up scheduling state.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "analysis/tables.h"
#include "core/campaign.h"
#include "core/results.h"
#include "scenario/world_builder.h"
#include "serial_rounds.h"

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
  spec.w6d_round = 5;  // exercise the mini-round path too
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

const World& tiny_world() {
  static const World w = scenario::build_world(tiny_spec());
  return w;
}

/// Run a complete campaign (regular rounds + W6D + finalize). Heap-held:
/// Campaign owns a ThreadPool and is therefore not movable. With
/// `serial_rounds` the regular rounds bypass run()'s per-VP fork/join and
/// go through run_rounds_serially instead.
std::unique_ptr<Campaign> run_campaign(const World& world, CampaignConfig cfg,
                                       bool serial_rounds = false) {
  auto campaign = std::make_unique<Campaign>(world, std::move(cfg));
  if (serial_rounds) {
    run_rounds_serially(*campaign);
  } else {
    campaign->run();
  }
  campaign->run_w6d();
  campaign->finalize();
  return campaign;
}

/// One store against another: the full observation dump, the distinct
/// path count and every per-round counter.
void expect_identical_store(const ResultsDb& a, const ResultsDb& b) {
  // Full observation dump: site, round, status, speeds, sample counts,
  // rendered AS paths, origins — everything downstream analysis reads.
  EXPECT_EQ(a.to_csv(), b.to_csv());
  // Same set of distinct paths observed (ids may be interned in a
  // different order — only path *content* is an observable).
  EXPECT_EQ(a.paths().size(), b.paths().size());
  ASSERT_EQ(a.rounds(), b.rounds());
  for (std::uint32_t r = 0; r < a.rounds(); ++r) {
    const RoundCounters& ca = a.round_counters(r);
    const RoundCounters& cb = b.round_counters(r);
    EXPECT_EQ(ca.listed, cb.listed) << "round " << r;
    EXPECT_EQ(ca.v4_only, cb.v4_only) << "round " << r;
    EXPECT_EQ(ca.v6_only, cb.v6_only) << "round " << r;
    EXPECT_EQ(ca.dual, cb.dual) << "round " << r;
    EXPECT_EQ(ca.dns_failed, cb.dns_failed) << "round " << r;
    EXPECT_EQ(ca.measured, cb.measured) << "round " << r;
    EXPECT_EQ(ca.different_content, cb.different_content) << "round " << r;
    EXPECT_EQ(ca.download_failed, cb.download_failed) << "round " << r;
  }
}

/// Every listed site of a regular round lands in exactly one status
/// bucket: the fast path's v4-only bulk count plus one count per queued
/// site's result slot, rows or not.
void expect_counters_cover_listed(const ResultsDb& db) {
  for (std::uint32_t r = 0; r < db.rounds(); ++r) {
    const RoundCounters& c = db.round_counters(r);
    EXPECT_EQ(c.listed, c.v4_only + c.v6_only + c.dual + c.dns_failed) << "round " << r;
  }
}

void expect_identical_observables(const Campaign& serial, const Campaign& parallel) {
  const World& world = serial.world();
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    SCOPED_TRACE(world.vantage_points[vp].name);
    EXPECT_EQ(serial.w6d_results(vp).to_csv(), parallel.w6d_results(vp).to_csv());
    expect_identical_store(serial.results(vp), parallel.results(vp));
    expect_counters_cover_listed(serial.results(vp));
    expect_counters_cover_listed(parallel.results(vp));
  }
}

/// Render one analysis table over per-VP stores, for an end-to-end byte
/// compare.
std::string table4_csv(const World& world, const std::vector<ObservationView>& views) {
  const auto reports = analysis::analyze_world(world, views);
  return analysis::table4_render(analysis::table4_classification(reports)).to_csv();
}

std::string table4_csv(const Campaign& campaign) {
  const World& world = campaign.world();
  std::vector<ObservationView> views;
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    views.emplace_back(campaign.results(vp));
  }
  return table4_csv(world, views);
}

TEST(Determinism, ThreadCountInvisibleInResultsAndAnalysis) {
  CampaignConfig serial_cfg;
  serial_cfg.seed = 2011;
  serial_cfg.threads = 1;
  CampaignConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 8;

  const auto serial = run_campaign(tiny_world(), serial_cfg);
  const auto parallel = run_campaign(tiny_world(), parallel_cfg);

  expect_identical_observables(*serial, *parallel);
  EXPECT_EQ(table4_csv(*serial), table4_csv(*parallel));
}

// Failure injection exercises the RNG-hungriest code paths (DNS timeout
// draws happen per query, download failures per fetch) — exactly where a
// chunk-coupled or worker-coupled stream would first show.
TEST(Determinism, ThreadCountInvisibleUnderFailureInjection) {
  CampaignConfig serial_cfg;
  serial_cfg.seed = 404;
  serial_cfg.threads = 1;
  serial_cfg.monitor.dns.timeout_prob = 0.2;
  serial_cfg.monitor.download.failure_prob = 0.05;
  CampaignConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 8;

  const auto serial = run_campaign(tiny_world(), serial_cfg);
  const auto parallel = run_campaign(tiny_world(), parallel_cfg);

  expect_identical_observables(*serial, *parallel);
}

// --- Campaign scheduling matrix --------------------------------------------
//
// run()'s per-VP fork/join is a scheduling layer, not a semantic one. The
// reference cell drives the regular rounds by hand (run_rounds_serially:
// threads=1, round-major), and run() must reproduce it byte for byte at
// threads {1, 4, 8} — observation CSVs, per-round counters, and the
// analysis tables built on top.

std::unique_ptr<Campaign> run_with(unsigned threads, std::uint64_t seed,
                                   double dns_timeout_prob = 0.0,
                                   double dl_failure_prob = 0.0,
                                   bool serial_rounds = false) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.monitor.dns.timeout_prob = dns_timeout_prob;
  cfg.monitor.download.failure_prob = dl_failure_prob;
  return run_campaign(tiny_world(), cfg, serial_rounds);
}

TEST(Determinism, ExecutorSchedulingInvisible) {
  const auto reference = run_with(1, 2011, 0.0, 0.0, /*serial_rounds=*/true);
  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    const auto run = run_with(threads, 2011);
    expect_identical_observables(*reference, *run);
    EXPECT_EQ(table4_csv(*reference), table4_csv(*run));
  }
}

// Same matrix under failure injection: the RNG-hungriest paths, now also
// crossing run()'s per-VP round loops (VP-a may be rounds ahead of VP-b
// when both draw from their streams).
TEST(Determinism, ExecutorSchedulingInvisibleUnderFailureInjection) {
  const auto reference = run_with(1, 404, 0.2, 0.05, /*serial_rounds=*/true);
  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    const auto run = run_with(threads, 404, 0.2, 0.05);
    expect_identical_observables(*reference, *run);
    EXPECT_EQ(table4_csv(*reference), table4_csv(*run));
  }
}

// The RIBs a campaign reads must themselves be schedule-free: building the
// same world with a serial and a wide pool must give identical tables.
TEST(Determinism, RibBuildThreadCountInvisible) {
  scenario::WorldSpec serial_spec = tiny_spec();
  serial_spec.build_threads = 1;
  scenario::WorldSpec parallel_spec = tiny_spec();
  parallel_spec.build_threads = 8;
  const World serial = scenario::build_world(serial_spec);
  const World parallel = scenario::build_world(parallel_spec);
  ASSERT_EQ(serial.vantage_points.size(), parallel.vantage_points.size());
  for (std::size_t i = 0; i < serial.vantage_points.size(); ++i) {
    EXPECT_EQ(serial.vantage_points[i].rib.v4_routes(),
              parallel.vantage_points[i].rib.v4_routes());
    EXPECT_EQ(serial.vantage_points[i].rib.v6_routes(),
              parallel.vantage_points[i].rib.v6_routes());
  }
  // Same campaign on both worlds: any divergent route would surface in
  // the observation dump (paths, origins, speeds).
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  const auto a = run_campaign(serial, cfg);
  const auto b = run_campaign(parallel, cfg);
  for (std::size_t vp = 0; vp < serial.vantage_points.size(); ++vp) {
    EXPECT_EQ(a->results(vp).to_csv(), b->results(vp).to_csv());
  }
}

}  // namespace
}  // namespace v6mon::core
