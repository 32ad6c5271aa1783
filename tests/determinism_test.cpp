// Determinism under parallelism: every campaign observable must be a pure
// function of (world, seed) — never of thread count, chunking, or worker
// scheduling. This is the contract that makes `threads` a pure performance
// knob: threads=1 is the serial reference, threads=8 must reproduce it
// byte for byte, all the way through the analysis tables. A failure here
// means some RNG stream or result slot picked up scheduling state.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "analysis/tables.h"
#include "core/campaign.h"
#include "core/results.h"
#include "core/sink.h"
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
/// `serial_rounds` the regular rounds bypass run()'s executor graph and
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

void expect_identical_observables(const Campaign& serial, const Campaign& parallel) {
  const World& world = serial.world();
  for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
    SCOPED_TRACE(world.vantage_points[vp].name);
    EXPECT_EQ(serial.w6d_results(vp).to_csv(), parallel.w6d_results(vp).to_csv());
    expect_identical_store(serial.results(vp), parallel.results(vp));
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

// --- Executor scheduling matrix --------------------------------------------
//
// The task-graph executor is a scheduling layer, not a semantic one. The
// reference cell drives the regular rounds by hand (run_rounds_serially:
// threads=1, no graph), and run()'s graph must reproduce it byte for
// byte at threads {1, 8} — observation CSVs, per-round counters, and the
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
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    const auto run = run_with(threads, 2011);
    expect_identical_observables(*reference, *run);
    EXPECT_EQ(table4_csv(*reference), table4_csv(*run));
  }
}

// Same matrix under failure injection: the RNG-hungriest paths, now also
// crossing the executor's pipelined round boundaries (VP-a may be rounds
// ahead of VP-b when both draw from their streams).
TEST(Determinism, ExecutorSchedulingInvisibleUnderFailureInjection) {
  const auto reference = run_with(1, 404, 0.2, 0.05, /*serial_rounds=*/true);
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    const auto run = run_with(threads, 404, 0.2, 0.05);
    expect_identical_observables(*reference, *run);
    EXPECT_EQ(table4_csv(*reference), table4_csv(*run));
  }
}

// --- Ingest matrix ---------------------------------------------------------
//
// The store a campaign's rows land in must be as invisible as the
// schedule. Each cell replays the serial reference's per-VP stores
// (regular and W6D) round by round from threads {1, 8} into a fresh
// database, sites dealt round-robin over the threads and each counter
// split between them, and must reproduce the reference byte for byte —
// observation CSVs, path counts, per-round counters and the analysis
// table. Mutex: straight into the database (`add`/`count`/
// `count_listed` under its own mutex, paths interned into its registry).
// Sharded: through the campaign's ShardedSink (a lane per thread with
// lane-local path ids, canonicalized at each round's flush).

enum class Ingest : std::uint8_t { kMutex, kSharded };

/// One round of a finalized store: its rows and its counters.
struct RoundSlice {
  std::vector<Observation> rows;
  RoundCounters counters;
};

std::vector<RoundSlice> slice_by_round(const ResultsDb& db) {
  std::vector<RoundSlice> slices(db.rounds());
  for (std::uint32_t r = 0; r < db.rounds(); ++r) slices[r].counters = db.round_counters(r);
  for (const std::uint32_t site : db.site_ids()) {
    const SiteSeries series = db.series(site);
    for (std::size_t i = 0; i < series.size(); ++i) {
      const Observation obs = series[i];
      if (obs.round >= slices.size()) slices.resize(obs.round + 1);
      slices[obs.round].rows.push_back(obs);
    }
  }
  return slices;
}

/// Replay finalized `src` into empty `dst` through `ingest` from
/// `threads` threads, one ingest epoch per round; finalizes `dst`.
void replay(const ResultsDb& src, ResultsDb& dst, Ingest ingest, unsigned threads) {
  ShardedSink sink(dst);
  const std::vector<RoundSlice> slices = slice_by_round(src);
  for (std::uint32_t r = 0; r < slices.size(); ++r) {
    const RoundCounters& c = slices[r].counters;
    // Counters carry no rows for the v4-only masses, so they replay from
    // the counters themselves; `dual` is rebuilt from its three parts.
    EXPECT_EQ(c.dual, c.download_failed + c.different_content + c.measured) << r;
    const std::pair<MonitorStatus, std::uint64_t> counts[] = {
        {MonitorStatus::kDnsFailed, c.dns_failed},
        {MonitorStatus::kV4Only, c.v4_only},
        {MonitorStatus::kV6Only, c.v6_only},
        {MonitorStatus::kV6DownloadFailed, c.download_failed},
        {MonitorStatus::kDifferentContent, c.different_content},
        {MonitorStatus::kMeasured, c.measured}};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        PathRegistry& reg = ingest == Ingest::kMutex ? dst.paths() : sink.lane().paths();
        const auto intern = [&](PathId id) {
          return id == kNoPath ? kNoPath : reg.intern(src.paths().path(id));
        };
        // A site's rows stay on one thread, in order: W6D repeats sites
        // within a round, and that order is part of the dump.
        const std::vector<Observation>& rows = slices[r].rows;
        std::size_t site_ordinal = 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          if (i > 0 && rows[i].site != rows[i - 1].site) ++site_ordinal;
          if (site_ordinal % threads != t) continue;
          Observation obs = rows[i];
          obs.v4_path = intern(obs.v4_path);
          obs.v6_path = intern(obs.v6_path);
          if (ingest == Ingest::kMutex) {
            dst.add(obs);
          } else {
            sink.lane().record(obs);
          }
        }
        for (const auto& [status, n] : counts) {
          const std::uint64_t part = n / threads + (t < n % threads ? 1 : 0);
          if (part == 0) continue;
          if (ingest == Ingest::kMutex) {
            dst.count(r, status, part);
          } else {
            sink.lane().count(r, status, part);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    if (r < src.rounds()) sink.count_listed(r, c.listed);
    sink.flush();
  }
  dst.finalize();
}

/// Hold replays of every store of `reference` through `ingest` to the
/// reference itself, at threads {1, 8}.
void expect_replays_identical(const Campaign& reference, Ingest ingest) {
  const World& world = reference.world();
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    std::deque<ResultsDb> stores;  // deque: ObservationViews point into it
    std::vector<ObservationView> views;
    for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
      SCOPED_TRACE(world.vantage_points[vp].name);
      ResultsDb& regular = stores.emplace_back();
      replay(reference.results(vp), regular, ingest, threads);
      expect_identical_store(reference.results(vp), regular);
      views.emplace_back(regular);
      ResultsDb& w6d = stores.emplace_back();
      replay(reference.w6d_results(vp), w6d, ingest, threads);
      expect_identical_store(reference.w6d_results(vp), w6d);
    }
    EXPECT_EQ(table4_csv(reference), table4_csv(world, views));
  }
}

class SinkBackendMatrix : public ::testing::TestWithParam<Ingest> {};

TEST_P(SinkBackendMatrix, ByteIdenticalToSerialMutexReference) {
  const auto reference = run_with(1, 2011, 0.0, 0.0, /*serial_rounds=*/true);
  expect_replays_identical(*reference, GetParam());
}

// Failure injection leaves dual-stack sites without speeds or paths and
// fills the dns-failed and download-failed counters the clean run barely
// touches.
TEST_P(SinkBackendMatrix, ByteIdenticalUnderFailureInjection) {
  const auto reference = run_with(1, 404, 0.2, 0.05, /*serial_rounds=*/true);
  expect_replays_identical(*reference, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SinkBackendMatrix,
                         ::testing::Values(Ingest::kMutex, Ingest::kSharded),
                         [](const auto& cell) {
                           return cell.param == Ingest::kMutex ? "Mutex" : "Sharded";
                         });

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
