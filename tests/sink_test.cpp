// The sharded observation sink against the reference it replaces: the
// same observations and counters written straight into a ResultsDb with
// add/count/count_listed under the database's own mutex. The contract
// under test is simple to state and strict: the finalized ResultsDb —
// rows, counters, path contents, CSV bytes — is identical however many
// lanes carried the rows.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/results.h"
#include "core/sink.h"

namespace v6mon::core {
namespace {

Observation sample_obs(std::uint32_t site, std::uint32_t round, PathId v4,
                       PathId v6) {
  Observation o;
  o.site = site;
  o.round = round;
  o.status = MonitorStatus::kMeasured;
  o.v4_speed_kBps = 120.5f + static_cast<float>(site);
  o.v6_speed_kBps = 88.25f + static_cast<float>(round);
  o.v4_samples = 5;
  o.v6_samples = 4;
  o.v4_path = v4;
  o.v6_path = v6;
  o.v4_origin = 7;
  o.v6_origin = 9;
  return o;
}

/// Drive the sink through two epochs with a handful of observations and
/// counters, mimicking what campaign rounds do.
void drive(ShardedSink& sink) {
  ShardedSink::Lane& lane = sink.lane();
  const PathId a = lane.paths().intern({1, 2, 3});
  const PathId b = lane.paths().intern({1, 2, 4});
  const PathId local = lane.paths().intern({});
  lane.record(sample_obs(10, 0, a, b));
  lane.record(sample_obs(11, 0, b, local));
  Observation pathless = sample_obs(12, 0, kNoPath, kNoPath);
  pathless.status = MonitorStatus::kV6DownloadFailed;
  lane.record(pathless);
  lane.count(0, MonitorStatus::kMeasured);
  lane.count(0, MonitorStatus::kMeasured);
  lane.count(0, MonitorStatus::kV6DownloadFailed);
  lane.count(0, MonitorStatus::kV4Only, 3);
  sink.count_listed(0, 40);
  sink.flush();

  // Second epoch: revisit one site, one new path, a new round's counters.
  ShardedSink::Lane& lane2 = sink.lane();
  const PathId c = lane2.paths().intern({9, 8});
  lane2.record(sample_obs(10, 1, c, c));
  lane2.count(1, MonitorStatus::kMeasured);
  sink.count_listed(1, 41);
  sink.flush();
}

/// The reference for drive(): the same calls made directly on the
/// database, path ids interned into its own registry.
void write_direct(ResultsDb& db) {
  const PathId a = db.paths().intern({1, 2, 3});
  const PathId b = db.paths().intern({1, 2, 4});
  const PathId local = db.paths().intern({});
  db.add(sample_obs(10, 0, a, b));
  db.add(sample_obs(11, 0, b, local));
  Observation pathless = sample_obs(12, 0, kNoPath, kNoPath);
  pathless.status = MonitorStatus::kV6DownloadFailed;
  db.add(pathless);
  db.count(0, MonitorStatus::kMeasured);
  db.count(0, MonitorStatus::kMeasured);
  db.count(0, MonitorStatus::kV6DownloadFailed);
  db.count(0, MonitorStatus::kV4Only, 3);
  db.count_listed(0, 40);

  const PathId c = db.paths().intern({9, 8});
  db.add(sample_obs(10, 1, c, c));
  db.count(1, MonitorStatus::kMeasured);
  db.count_listed(1, 41);
}

void expect_same_finalized(const ResultsDb& a, const ResultsDb& b) {
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.num_sites(), b.num_sites());
  EXPECT_EQ(a.site_ids(), b.site_ids());
  EXPECT_EQ(a.paths().size(), b.paths().size());
  ASSERT_EQ(a.rounds(), b.rounds());
  for (std::uint32_t r = 0; r < a.rounds(); ++r) {
    const RoundCounters& ca = a.round_counters(r);
    const RoundCounters& cb = b.round_counters(r);
    EXPECT_EQ(ca.listed, cb.listed) << "round " << r;
    EXPECT_EQ(ca.v4_only, cb.v4_only) << "round " << r;
    EXPECT_EQ(ca.dual, cb.dual) << "round " << r;
    EXPECT_EQ(ca.measured, cb.measured) << "round " << r;
    EXPECT_EQ(ca.download_failed, cb.download_failed) << "round " << r;
  }
}

TEST(Sink, ShardedMatchesMutexReference) {
  ResultsDb direct_db, sharded_db;
  write_direct(direct_db);
  ShardedSink sink(sharded_db);
  drive(sink);
  direct_db.finalize();
  sharded_db.finalize();
  expect_same_finalized(direct_db, sharded_db);
  EXPECT_EQ(sink.shard_count(), 1u);  // single-threaded drive: one shard
}

TEST(Sink, ShardedFlushCanonicalizesWholeRegistry) {
  // Paths interned but never referenced by a recorded observation still
  // reach the database registry — keeping paths().size() equal to that
  // of direct writes, which intern straight into the db.
  ResultsDb db;
  ShardedSink sink(db);
  ShardedSink::Lane& lane = sink.lane();
  lane.paths().intern({5, 6, 7});  // interned, never recorded
  sink.flush();
  EXPECT_EQ(db.paths().size(), 1u);
}

TEST(Sink, ShardedCanonicalizesPathIdsAcrossLanes) {
  // Two lanes intern overlapping paths in opposite orders, so the same
  // lane-local id names different paths in each lane. Flush must map
  // every row onto one canonical registry: each distinct path once, and
  // every row rendering the path its lane meant.
  const std::vector<std::vector<topo::Asn>> paths = {{1, 2, 3}, {1, 2, 4}, {5, 6}};
  ResultsDb direct_db, sharded_db;
  ShardedSink sink(sharded_db);
  const auto lane_rows = [&](std::uint32_t site_base, bool reversed) {
    ShardedSink::Lane& lane = sink.lane();
    for (std::size_t k = 0; k < paths.size(); ++k) {
      const std::size_t p = reversed ? paths.size() - 1 - k : k;
      const PathId v4 = lane.paths().intern(paths[p]);
      const PathId v6 = lane.paths().intern(paths[(p + 1) % paths.size()]);
      lane.record(sample_obs(site_base + static_cast<std::uint32_t>(p), 0, v4, v6));
      lane.count(0, MonitorStatus::kMeasured);
    }
  };
  std::thread first(lane_rows, 100, false);
  std::thread second(lane_rows, 200, true);
  first.join();
  second.join();
  sink.count_listed(0, 6);
  sink.flush();

  for (const std::uint32_t site_base : {100u, 200u}) {
    for (std::size_t p = 0; p < paths.size(); ++p) {
      direct_db.add(sample_obs(site_base + static_cast<std::uint32_t>(p), 0,
                               direct_db.paths().intern(paths[p]),
                               direct_db.paths().intern(paths[(p + 1) % paths.size()])));
      direct_db.count(0, MonitorStatus::kMeasured);
    }
  }
  direct_db.count_listed(0, 6);

  direct_db.finalize();
  sharded_db.finalize();
  EXPECT_EQ(sink.shard_count(), 2u);
  EXPECT_EQ(sharded_db.paths().size(), paths.size());
  expect_same_finalized(direct_db, sharded_db);
}

}  // namespace
}  // namespace v6mon::core
