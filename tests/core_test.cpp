#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/monitor.h"
#include "core/results.h"
#include "core/thread_pool.h"
#include "scenario/paper.h"
#include "scenario/world_builder.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/rng.h"
#include "web/dns_backend.h"

namespace v6mon::core {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), v6mon::ConfigError);
}

TEST(PathRegistry, InternsAndDeduplicates) {
  PathRegistry reg;
  const std::vector<topo::Asn> p1{1, 2, 3};
  const std::vector<topo::Asn> p2{1, 2, 4};
  const PathId a = reg.intern(p1);
  const PathId b = reg.intern(p2);
  const PathId c = reg.intern(p1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.path(a), p1);
  EXPECT_EQ(reg.to_string(a), "AS1 AS2 AS3");
  EXPECT_EQ(reg.to_string(kNoPath), "-");
  EXPECT_EQ(reg.to_string(reg.intern({})), "(local)");
}

TEST(ResultsDb, CountersBucketStatuses) {
  ResultsDb db;
  db.count(0, MonitorStatus::kV4Only);
  db.count(0, MonitorStatus::kV4Only);
  db.count(0, MonitorStatus::kMeasured);
  db.count(0, MonitorStatus::kDifferentContent);
  db.count(0, MonitorStatus::kV6DownloadFailed);
  db.count(1, MonitorStatus::kV6Only);
  db.count_listed(0, 5);
  const RoundCounters& c0 = db.round_counters(0);
  EXPECT_EQ(c0.v4_only, 2u);
  EXPECT_EQ(c0.measured, 1u);
  EXPECT_EQ(c0.different_content, 1u);
  EXPECT_EQ(c0.download_failed, 1u);
  EXPECT_EQ(c0.dual, 3u);
  EXPECT_EQ(c0.listed, 5u);
  EXPECT_EQ(db.round_counters(1).v6_only, 1u);
  EXPECT_EQ(db.round_counters(99).listed, 0u);  // out of range = empty
}

TEST(ResultsDb, SeriesSortedByFinalize) {
  ResultsDb db;
  Observation a;
  a.site = 7;
  a.round = 5;
  a.status = MonitorStatus::kMeasured;
  Observation b = a;
  b.round = 2;
  db.add(a);
  db.add(b);
  db.finalize();
  const SiteSeries series = db.series(7);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].round, 2u);
  EXPECT_EQ(series[1].round, 5u);
  EXPECT_EQ(series.rounds()[0], 2u);  // span accessor sees the same order
  EXPECT_EQ(series.statuses()[1], MonitorStatus::kMeasured);
  EXPECT_TRUE(db.series(8).empty());
  EXPECT_EQ(db.num_sites(), 1u);
  ASSERT_EQ(db.site_ids().size(), 1u);
  EXPECT_EQ(db.site_ids()[0], 7u);
}

TEST(ResultsDb, CsvContainsObservations) {
  ResultsDb db;
  Observation o;
  o.site = 3;
  o.round = 1;
  o.status = MonitorStatus::kMeasured;
  o.v4_speed_kBps = 50.0f;
  o.v6_speed_kBps = 45.0f;
  o.v4_origin = 12;
  o.v6_origin = 12;
  o.v4_path = db.paths().intern({5, 12});
  o.v6_path = db.paths().intern({6, 12});
  db.add(o);
  db.finalize();
  const std::string csv = db.to_csv();
  EXPECT_NE(csv.find("3,1,measured,50,45"), std::string::npos);
  EXPECT_NE(csv.find("AS5 AS12"), std::string::npos);
}

TEST(ResultsDb, CsvRowEdgeCases) {
  ResultsDb db;
  Observation o;
  o.site = 4;
  o.round = 2;
  o.status = MonitorStatus::kV6DownloadFailed;  // origins kNoAs, v4 path kNoPath
  o.v6_path = db.paths().intern({});
  db.add(o);
  db.finalize();
  const std::string csv = db.to_csv();
  EXPECT_EQ(csv.substr(csv.find('\n') + 1), "4,2,v6-download-failed,0,0,0,0,,,-,(local)\n");
}

/// `n` rows over a handful of sites, one per (site, round), site-
/// interleaved with ascending rounds per site, on paths of 1-4 hops
/// interned into `db` (enough bytes to span several write chunks).
std::vector<Observation> mixed_rows(ResultsDb& db, std::uint32_t n) {
  std::vector<Observation> rows;
  for (std::uint32_t i = 0; i < n; ++i) {
    Observation o;
    o.site = (i * 7919u) % 97u;
    o.round = i / 97u;
    o.status = i % 5 == 0 ? MonitorStatus::kDifferentContent : MonitorStatus::kMeasured;
    o.v4_speed_kBps = static_cast<float>(i) * 0.37f;
    o.v6_speed_kBps = 1000.0f / static_cast<float>(i + 1);
    o.v4_samples = static_cast<std::uint16_t>(i % 9);
    o.v6_samples = static_cast<std::uint16_t>(i % 11);
    std::vector<topo::Asn> path;
    for (std::uint32_t h = 0; h <= i % 4; ++h) path.push_back(64500 + (i + h) % 300);
    o.v4_path = db.paths().intern(path);
    o.v4_origin = path.back();
    if (i % 3 != 0) {
      path.push_back(174);
      o.v6_path = db.paths().intern(path);
      o.v6_origin = 174;
    }
    rows.push_back(o);
  }
  return rows;
}

/// The dump of `rows` rendered independently of the writer: sorted by
/// (site, round), numbers through a default-state ostream.
std::string csv_oracle(std::vector<Observation> rows, const PathRegistry& paths) {
  std::sort(rows.begin(), rows.end(), [](const Observation& a, const Observation& b) {
    return a.site != b.site ? a.site < b.site : a.round < b.round;
  });
  std::ostringstream out;
  out << "site,round,status,v4_speed_kBps,v6_speed_kBps,v4_samples,v6_samples,"
         "v4_origin,v6_origin,v4_path,v6_path\n";
  const auto origin = [](topo::Asn as) {
    return as == topo::kNoAs ? std::string() : std::to_string(as);
  };
  for (const Observation& o : rows) {
    out << o.site << ',' << o.round << ',' << monitor_status_name(o.status) << ','
        << o.v4_speed_kBps << ',' << o.v6_speed_kBps << ',' << o.v4_samples << ','
        << o.v6_samples << ',' << origin(o.v4_origin) << ',' << origin(o.v6_origin) << ','
        << paths.to_string(o.v4_path) << ',' << paths.to_string(o.v6_path) << '\n';
  }
  return out.str();
}

// The finalized dump is the added rows in (site, round) order, whatever
// order they were added in, across chunk boundaries.
TEST(ResultsDb, CsvFinalizedMatchesUnfinalized) {
  ResultsDb db;
  std::vector<Observation> rows = mixed_rows(db, 20000);
  util::Rng(7).shuffle(rows);
  for (const Observation& o : rows) db.add(o);
  db.finalize();
  const std::string csv = db.to_csv();
  EXPECT_GT(csv.size(), 3u * 64 * 1024);
  EXPECT_EQ(csv, csv_oracle(rows, db.paths()));
}

TEST(ResultsDb, AddAfterFinalizeIsRejected) {
  ResultsDb db;
  Observation o;
  o.site = 1;
  db.add(o);
  db.finalize();
  EXPECT_THROW(db.add(o), ContractError);
}

TEST(ResultsDb, WriteCsvRequiresFinalize) {
  ResultsDb db;
  Observation o;
  o.site = 1;
  db.add(o);
  std::ostringstream out;
  EXPECT_THROW(db.write_csv(out), ContractError);
}

// W6D mini-rounds of one site share a round; the store keeps them in
// the order they were added.
TEST(ResultsDb, EqualRoundRowsKeepAddOrder) {
  ResultsDb db;
  Observation o;
  o.site = 5;
  o.round = 9;
  o.status = MonitorStatus::kMeasured;
  for (int mini = 0; mini < 12; ++mini) {
    o.v4_speed_kBps = static_cast<float>(100 - mini);
    db.add(o);
  }
  db.finalize();
  const SiteSeries series = db.series(5);
  ASSERT_EQ(series.size(), 12u);
  for (std::size_t mini = 0; mini < 12; ++mini) {
    EXPECT_EQ(series.v4_speeds()[mini], static_cast<float>(100 - mini)) << mini;
  }
}

TEST(ResultsDb, CsvIgnoresCallerStreamFlags) {
  ResultsDb db;
  for (const Observation& o : mixed_rows(db, 500)) db.add(o);
  db.finalize();
  std::ostringstream flagged;
  flagged.precision(2);
  flagged << std::fixed;
  db.write_csv(flagged);
  EXPECT_EQ(flagged.str(), db.to_csv());
}

/// The speed fields of a CSV dump of `values` (two per row, in order).
std::vector<std::string> csv_speed_fields(const std::vector<float>& values) {
  ResultsDb db;
  for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
    Observation o;
    o.site = static_cast<std::uint32_t>(i / 2);
    o.v4_speed_kBps = values[i];
    o.v6_speed_kBps = values[i + 1];
    db.add(o);
  }
  db.finalize();
  std::istringstream csv(db.to_csv());
  std::string line;
  std::getline(csv, line);  // header
  std::vector<std::string> fields;
  while (std::getline(csv, line)) {
    std::istringstream row(line);
    std::string field;
    for (int col = 0; col < 5 && std::getline(row, field, ','); ++col) {
      if (col >= 3) fields.push_back(field);
    }
  }
  return fields;
}

/// The speed text must be byte-identical to what a default-state
/// ostream prints for the same float.
void expect_speeds_match_ostream(const std::vector<float>& values) {
  const std::vector<std::string> fields = csv_speed_fields(values);
  ASSERT_EQ(fields.size(), values.size());
  std::ostringstream oracle;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    oracle.str("");
    oracle << values[i];
    ASSERT_EQ(fields[i], oracle.str()) << "float bits 0x" << std::hex
                                       << std::bit_cast<std::uint32_t>(values[i]);
  }
}

TEST(ResultsDb, CsvSpeedsMatchStreamFormattingOnEdgeCases) {
  const float lim_max = std::numeric_limits<float>::max();
  const float denorm = std::numeric_limits<float>::denorm_min();
  expect_speeds_match_ostream({0.0f,      1.0f,      42.0f,      100.0f,     123456.0f,
                               1234567.0f, 16777216.0f, 1e-5f,    0.0001f,    999999.5f,
                               1e6f,      1.234565f, 9.999995f,  0.1234565f, 123456.5f,
                               99999.95f, 2.5e-7f,   1e-38f,     lim_max,    denorm});
}

TEST(ResultsDb, CsvSpeedsMatchStreamFormattingOnRandomBits) {
  util::Rng rng(2011);
  constexpr std::uint32_t kMaxFinite = 0x7f7fffffu;  // bit pattern of FLT_MAX
  constexpr std::size_t kBatch = 1 << 16;
  for (int batch = 0; batch < 16; ++batch) {  // 2^20 floats
    std::vector<float> values(kBatch);
    for (float& v : values) v = std::bit_cast<float>(rng.uniform_u32(0, kMaxFinite));
    expect_speeds_match_ostream(values);
  }
}

// --- Monitor pipeline on a small world -----------------------------------

struct SmallWorld {
  core::World world;
  SmallWorld() {
    scenario::WorldSpec spec;
    spec.seed = 99;
    spec.topology.num_tier1 = 4;
    spec.topology.num_transit = 30;
    spec.topology.num_stub = 150;
    spec.catalog.initial_sites = 3000;
    spec.catalog.churn_per_round = 20;
    spec.catalog.num_rounds = 10;
    spec.catalog.dns_cache_sites = 200;
    spec.catalog.adoption = {0.5, 0.4, 0.3, 0.2, 0.15, 0.12};  // dense adoption
    spec.w6d_round = 8;
    spec.vantage_points = {
        {.name = "A",
         .type = core::VantagePoint::Type::kAcademic,
         .region = topo::Region::kNorthAmerica,
         .start_round = 0,
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = true,
         .num_v4_providers = 2,
         .v6_mode = scenario::V6UplinkMode::kSeparateProvider},
        {.name = "B",
         .type = core::VantagePoint::Type::kCommercial,
         .region = topo::Region::kEurope,
         .start_round = 2,
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = false,
         .num_v4_providers = 1,
         .v6_mode = scenario::V6UplinkMode::kSameProviders},
    };
    world = scenario::build_world(spec);
  }
};

SmallWorld& small_world() {
  static SmallWorld w;
  return w;
}

TEST(Monitor, V4OnlySiteClassified) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[0];
  Monitor mon(w, vp, {});
  web::CatalogDnsBackend backend(w.catalog);
  dns::Resolver resolver(backend, {}, util::Rng(1));

  const web::Site* v4only = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (s.v6_from_round == web::kNever) {
      v4only = &s;
      break;
    }
  }
  ASSERT_NE(v4only, nullptr);
  PathRegistry paths;
  const auto obs = mon.monitor_site(*v4only, 0, resolver, util::Rng(2), paths);
  EXPECT_EQ(obs.status, MonitorStatus::kV4Only);
}

TEST(Monitor, DualStackSiteMeasured) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];  // full-parity VP
  Monitor mon(w, vp, {});
  web::CatalogDnsBackend backend(w.catalog);
  dns::Resolver resolver(backend, {}, util::Rng(1));
  PathRegistry paths;

  int measured = 0, examined = 0;
  for (const web::Site& s : w.catalog.sites()) {
    if (!s.dual_stack_at(5) || s.v6_page_ratio != 1.0f) continue;
    if (++examined > 40) break;
    const auto obs = mon.monitor_site(s, 5, resolver, util::Rng(1000 + s.id), paths);
    if (obs.status == MonitorStatus::kMeasured) {
      ++measured;
      EXPECT_GT(obs.v4_speed_kBps, 0.0f);
      EXPECT_GT(obs.v6_speed_kBps, 0.0f);
      EXPECT_GE(obs.v4_samples, 3u);
      EXPECT_NE(obs.v4_origin, topo::kNoAs);
      EXPECT_NE(obs.v6_origin, topo::kNoAs);
      EXPECT_NE(obs.v4_path, kNoPath);
      EXPECT_NE(obs.v6_path, kNoPath);
    }
  }
  EXPECT_GT(measured, 10);
}

TEST(Monitor, DifferentContentDetected) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];
  MonitorConfig cfg;
  cfg.download.failure_prob = 0.0;
  Monitor mon(w, vp, cfg);
  web::CatalogDnsBackend backend(w.catalog);
  dns::Resolver resolver(backend, {}, util::Rng(1));
  PathRegistry paths;

  const web::Site* diff = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (s.dual_stack_at(5) && s.v6_page_ratio > 1.06f) {
      diff = &s;
      break;
    }
  }
  ASSERT_NE(diff, nullptr) << "catalog generated no different-content site";
  const auto obs = mon.monitor_site(*diff, 5, resolver, util::Rng(3), paths);
  EXPECT_EQ(obs.status, MonitorStatus::kDifferentContent);
}

TEST(Monitor, DeterministicGivenSameRng) {
  const auto& w = small_world().world;
  const VantagePoint& vp = w.vantage_points[1];
  Monitor mon(w, vp, {});
  web::CatalogDnsBackend backend(w.catalog);
  PathRegistry paths;

  const web::Site* dual = nullptr;
  for (const web::Site& s : w.catalog.sites()) {
    if (s.dual_stack_at(5)) {
      dual = &s;
      break;
    }
  }
  ASSERT_NE(dual, nullptr);
  dns::Resolver r1(backend, {}, util::Rng(5));
  dns::Resolver r2(backend, {}, util::Rng(5));
  const auto a = mon.monitor_site(*dual, 5, r1, util::Rng(42), paths);
  const auto b = mon.monitor_site(*dual, 5, r2, util::Rng(42), paths);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.v4_speed_kBps, b.v4_speed_kBps);
  EXPECT_EQ(a.v6_speed_kBps, b.v6_speed_kBps);
}

TEST(Monitor, SeparateProviderVpYieldsDivergentPaths) {
  const auto& w = small_world().world;
  const VantagePoint& penn_like = w.vantage_points[0];
  Monitor mon(w, penn_like, {});
  web::CatalogDnsBackend backend(w.catalog);
  dns::Resolver resolver(backend, {}, util::Rng(1));
  PathRegistry paths;

  int same = 0, diff = 0;
  for (const web::Site& s : w.catalog.sites()) {
    if (!s.dual_stack_at(5) || s.different_location()) continue;
    const auto obs = mon.monitor_site(s, 5, resolver, util::Rng(77 + s.id), paths);
    if (obs.status != MonitorStatus::kMeasured) continue;
    if (obs.v4_origin != obs.v6_origin) continue;
    if (obs.v4_path == obs.v6_path) ++same;
    else ++diff;
    if (same + diff > 120) break;
  }
  EXPECT_GT(diff, same * 3) << "separate-provider VP should be DP-dominated";
}

TEST(Campaign, EndToEndSmallWorld) {
  const auto& w = small_world().world;
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.threads = 4;
  cfg.w6d_mini_rounds = 3;
  Campaign campaign(w, cfg);
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();

  const ResultsDb& db = campaign.results(0);
  // Round counters must cover the whole listed population.
  const RoundCounters& c = db.round_counters(5);
  EXPECT_EQ(c.listed, c.v4_only + c.v6_only + c.dual + c.dns_failed);
  EXPECT_GT(c.dual, 0u);
  EXPECT_GT(c.measured, 0u);
  // VP B starts at round 2: no round-0/1 data.
  EXPECT_EQ(campaign.results(1).round_counters(0).listed, 0u);
  EXPECT_GT(campaign.results(1).round_counters(2).listed, 0u);
  // W6D run produced data for both VPs.
  EXPECT_GT(campaign.w6d_results(0).num_sites(), 0u);
  EXPECT_GT(campaign.w6d_results(1).num_sites(), 0u);
}

TEST(Campaign, FastPathMatchesFullPipeline) {
  // With no DNS failure injection a campaign round settles sites without
  // a current AAAA inline. Its classification counters must equal a
  // tally of the full Fig. 2 pipeline run on every listed site.
  const auto& w = small_world().world;
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  ASSERT_EQ(cfg.monitor.dns.timeout_prob, 0.0);
  constexpr std::uint32_t kRound = 5;
  Campaign campaign(w, cfg);
  const web::CatalogDnsBackend backend(w.catalog);
  for (std::size_t vp = 0; vp < w.vantage_points.size(); ++vp) {
    SCOPED_TRACE(w.vantage_points[vp].name);
    campaign.run_round(vp, kRound);

    Monitor monitor(w, w.vantage_points[vp], cfg.monitor);
    PathRegistry paths;
    ResultsDb tally;
    std::uint64_t listed = 0;
    for (const web::Site& site : w.catalog.sites()) {
      if (!site.in_list_at(kRound)) continue;
      if (site.from_dns_cache && !w.vantage_points[vp].uses_dns_cache_supplement) continue;
      ++listed;
      dns::Resolver resolver(backend, cfg.monitor.dns, util::Rng(site.id));
      const Observation obs =
          monitor.monitor_site(site, kRound, resolver, util::Rng(1000 + site.id), paths);
      tally.count(kRound, obs.status);
    }
    tally.count_listed(kRound, listed);

    const RoundCounters& got = campaign.results(vp).round_counters(kRound);
    const RoundCounters& want = tally.round_counters(kRound);
    EXPECT_EQ(got.listed, want.listed);
    EXPECT_EQ(got.v4_only, want.v4_only);
    EXPECT_EQ(got.v6_only, want.v6_only);
    EXPECT_EQ(got.dual, want.dual);
    EXPECT_EQ(got.dns_failed, want.dns_failed);
    EXPECT_GT(got.v4_only, 0u);
    EXPECT_GT(got.dual, 0u);
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const auto& w = small_world().world;
  CampaignConfig one;
  one.seed = 11;
  one.threads = 1;
  CampaignConfig many = one;
  many.threads = 8;
  Campaign c1(w, one), c8(w, many);
  c1.run_round(1, 5);
  c8.run_round(1, 5);
  c1.finalize();
  c8.finalize();
  const ResultsDb& d1 = c1.results(1);
  const ResultsDb& d8 = c8.results(1);
  ASSERT_EQ(d1.site_ids(), d8.site_ids());
  for (const std::uint32_t site : d1.site_ids()) {
    const SiteSeries obs1 = d1.series(site);
    const SiteSeries obs8 = d8.series(site);
    ASSERT_EQ(obs1.size(), obs8.size());
    for (std::size_t i = 0; i < obs1.size(); ++i) {
      EXPECT_EQ(obs1[i].status, obs8[i].status);
      EXPECT_EQ(obs1[i].v4_speed_kBps, obs8[i].v4_speed_kBps);
      EXPECT_EQ(obs1[i].v6_speed_kBps, obs8[i].v6_speed_kBps);
    }
  }
}

// The monitor stream key packs (vp * 4096 + round): a round of 4096
// would draw exactly VP 1's round-0 streams at VP 0, so the constructor
// rejects it. The bare World keeps the check free of any build cost.
TEST(Campaign, RejectsRoundsPastTheStreamKeySpan) {
  static_assert(Campaign::kRoundKeySpan == 4096);
  CampaignConfig cfg;
  cfg.threads = 1;
  World w;
  w.num_rounds = 4095;
  EXPECT_NO_THROW(Campaign(w, cfg));
  w.num_rounds = 4096;
  EXPECT_THROW(Campaign(w, cfg), ConfigError);
  w.num_rounds = 10;
  w.w6d_round = 4096;  // the W6D mini-rounds draw from the same key
  EXPECT_THROW(Campaign(w, cfg), ConfigError);
}

}  // namespace
}  // namespace v6mon::core
