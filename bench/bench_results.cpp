// Ingest throughput of the sharded observation sink at 1 and 8 ingest
// threads. Each lane first interns a small AS-path working set — a few
// hundred distinct paths cover almost every observation in a campaign,
// so the steady state records against already-resolved ids — then the
// hot loop records observations and bumps round counters. The timed
// region is ingest + the round-boundary flush (threads are spawned and
// parked on a latch beforehand), so the numbers include the
// canonicalization/merge cost the sink defers to the epoch boundary.
//
// BM_WriteObservationsCsv times the export layer on its own: the CSV
// dump of a finalized store into a streambuf that discards the bytes, so
// only formatting and chunking are measured, not a disk.

#include <atomic>
#include <chrono>
#include <streambuf>
#include <thread>
#include <vector>

#include "common.h"
#include "core/results.h"
#include "core/sink.h"
#include "util/rng.h"

namespace {

using namespace v6mon;

constexpr std::uint32_t kRowsPerThread = 20000;
constexpr std::size_t kPathPool = 200;

/// Plausible AS paths (2-5 hops) the ingest threads intern over and over
/// — mirrors a campaign, where a few hundred distinct paths cover almost
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

void ingest_rows(core::ShardedSink& sink,
                 const std::vector<std::vector<topo::Asn>>& pool, int tid) {
  core::ShardedSink::Lane& lane = sink.lane();
  // Resolve the working set once per lane (ids are lane-local): ~1% of
  // the loop's work, like a campaign's warmed intern cache.
  std::vector<core::PathId> ids;
  ids.reserve(pool.size());
  for (const auto& path : pool) ids.push_back(lane.paths().intern(path));

  core::Observation o;
  o.status = core::MonitorStatus::kMeasured;
  o.v4_speed_kBps = 120.0f;
  o.v6_speed_kBps = 95.0f;
  o.v4_samples = 5;
  o.v6_samples = 5;
  o.v4_origin = 7;
  o.v6_origin = 9;
  std::size_t p4 = static_cast<std::size_t>(tid) % ids.size();
  std::size_t p6 = (p4 + 1) % ids.size();
  std::uint32_t round = 0;
  const std::uint32_t base = static_cast<std::uint32_t>(tid) * kRowsPerThread;
  for (std::uint32_t i = 0; i < kRowsPerThread; ++i) {
    o.site = base + i;
    o.round = round;
    o.v4_path = ids[p4];
    o.v6_path = ids[p6];
    lane.record(o);
    lane.count(round, o.status);
    if (++round == 30) round = 0;
    if (++p4 == ids.size()) p4 = 0;
    if (++p6 == ids.size()) p6 = 0;
  }
}

void BM_IngestSharded(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto pool = path_pool();
  for (auto _ : state) {
    core::ResultsDb db;
    core::ShardedSink sink(db);
    // Spawn and park the workers outside the timed region: the metric
    // is ingest throughput, not pthread_create.
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&sink, &pool, &go, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        ingest_rows(sink, pool, t);
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    sink.flush();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * threads * kRowsPerThread);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_IngestSharded)->Arg(1)->Arg(8)->UseManualTime()->Unit(benchmark::kMillisecond);

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

constexpr std::uint32_t kExportSites = 6250;
constexpr std::uint32_t kExportRounds = 40;

/// Fill `store` like one VP's campaign: 6,250 sites over 40 rounds (250k
/// rows), mostly measured, on the path pool above with lognormal speeds;
/// then finalize it.
void fill_export_store(core::ResultsDb& store) {
  const auto pool = path_pool();
  std::vector<core::PathId> ids;
  for (const auto& path : pool) ids.push_back(store.paths().intern(path));
  util::Rng rng(2011);
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
      store.add(o);
    }
  }
  store.finalize();
}

void BM_WriteObservationsCsv(benchmark::State& state) {
  core::ResultsDb db;
  fill_export_store(db);
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
