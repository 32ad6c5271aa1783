// The results layer of one vantage point's store. BM_IngestFinalize
// times single-writer ingest of a campaign-shaped row set — every slot
// counted into its round, each row-bearing slot added, plus each round's
// bulk v4-only count and listed count, in round order — followed by
// finalize(), which groups the rows by site and builds the columnar
// store.
//
// BM_WriteObservationsCsv times the export layer on its own: the CSV
// dump of a finalized store into a streambuf that discards the bytes, so
// only formatting and chunking are measured, not a disk.

#include <streambuf>
#include <vector>

#include "common.h"
#include "core/results.h"
#include "util/rng.h"

namespace {

using namespace v6mon;

constexpr std::size_t kPathPool = 200;

/// Plausible AS paths (2-5 hops) a store interns over and over — mirrors
/// a campaign, where a few hundred distinct paths cover almost
/// all observations and the intern hot path is the already-present probe.
std::vector<std::vector<topo::Asn>> path_pool() {
  std::vector<std::vector<topo::Asn>> pool;
  pool.reserve(kPathPool);
  for (std::size_t p = 0; p < kPathPool; ++p) {
    std::vector<topo::Asn> path;
    const std::size_t hops = 2 + p % 4;
    for (std::size_t h = 0; h < hops; ++h) {
      path.push_back(static_cast<topo::Asn>(1 + (p * 131 + h * 17) % 5000));
    }
    pool.push_back(std::move(path));
  }
  return pool;
}

constexpr std::uint32_t kExportSites = 6250;
constexpr std::uint32_t kExportRounds = 40;
constexpr std::uint64_t kV4OnlyPerRound = 600000;

/// One VP's campaign as its store receives it: 6,250 sites over 40
/// rounds (250k rows), round by round, mostly measured, on the path pool
/// above with lognormal speeds. `ids` are the pool's ids in the store's
/// registry.
std::vector<core::Observation> campaign_rows(const std::vector<core::PathId>& ids) {
  const auto pool = path_pool();
  util::Rng rng(2011);
  std::vector<core::Observation> rows;
  rows.reserve(std::size_t{kExportSites} * kExportRounds);
  for (std::uint32_t round = 0; round < kExportRounds; ++round) {
    for (std::uint32_t site = 0; site < kExportSites; ++site) {
      core::Observation o;
      o.site = site;
      o.round = round;
      o.status = rng.chance(0.9) ? core::MonitorStatus::kMeasured
                                 : core::MonitorStatus::kDifferentContent;
      o.v4_speed_kBps = static_cast<float>(rng.lognormal_median(150.0, 1.0));
      o.v6_speed_kBps = static_cast<float>(rng.lognormal_median(120.0, 1.2));
      o.v4_samples = static_cast<std::uint16_t>(rng.uniform_int(3, 20));
      o.v6_samples = static_cast<std::uint16_t>(rng.uniform_int(3, 20));
      const std::size_t p4 = (site * 7u) % ids.size();
      const std::size_t p6 = (site * 13u + 1) % ids.size();
      o.v4_path = ids[p4];
      o.v6_path = ids[p6];
      o.v4_origin = pool[p4].back();
      o.v6_origin = pool[p6].back();
      rows.push_back(o);
    }
  }
  return rows;
}

/// Intern the path pool into `store`'s registry; returns the ids.
std::vector<core::PathId> intern_pool(core::ResultsDb& store) {
  std::vector<core::PathId> ids;
  for (const auto& path : path_pool()) ids.push_back(store.paths().intern(path));
  return ids;
}

void BM_IngestFinalize(benchmark::State& state) {
  // A fresh registry interns the pool to the same ids every time, so the
  // rows are generated once.
  core::ResultsDb scratch;
  const std::vector<core::Observation> rows = campaign_rows(intern_pool(scratch));
  for (auto _ : state) {
    core::ResultsDb db;
    benchmark::DoNotOptimize(intern_pool(db));
    std::uint32_t round = 0;
    for (const core::Observation& o : rows) {
      if (o.round != round) {
        db.count(round, core::MonitorStatus::kV4Only, kV4OnlyPerRound);
        db.count_listed(round, kV4OnlyPerRound + kExportSites);
        round = o.round;
      }
      db.count(o.round, o.status);
      db.add(o);
    }
    db.count(round, core::MonitorStatus::kV4Only, kV4OnlyPerRound);
    db.count_listed(round, kV4OnlyPerRound + kExportSites);
    db.finalize();
    benchmark::DoNotOptimize(db.num_sites());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_IngestFinalize)->Unit(benchmark::kMillisecond);

/// Accepts and drops every byte; counts them so the work is observable.
class DiscardStreambuf : public std::streambuf {
 public:
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 protected:
  int overflow(int c) override {
    ++bytes_;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::size_t>(n);
    return n;
  }

 private:
  std::size_t bytes_ = 0;
};

void BM_WriteObservationsCsv(benchmark::State& state) {
  core::ResultsDb db;
  for (const core::Observation& o : campaign_rows(intern_pool(db))) db.add(o);
  db.finalize();
  std::size_t bytes = 0;
  for (auto _ : state) {
    DiscardStreambuf buf;
    std::ostream out(&buf);
    db.write_csv(out);
    bytes = buf.bytes();
    benchmark::DoNotOptimize(bytes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kExportSites * kExportRounds);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WriteObservationsCsv)->Unit(benchmark::kMillisecond);

void emit() {
  // No reproduced paper table here — this benchmark measures the results
  // layer itself.
}

}  // namespace

V6MON_BENCH_MAIN(emit)
