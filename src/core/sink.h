#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/results.h"
#include "util/thread_annotations.h"

namespace v6mon::core {

/// Where campaign workers write measurement outcomes — the seam between
/// the monitoring pipeline (many threads, hot) and the per-vantage-point
/// results store (columnar, read-mostly), as the paper's tool poured
/// observations into one per-VP database. Each worker thread gets a
/// private shard (observation buffer + round counters + path registry),
/// so the record/count hot path touches no shared state at all — no
/// mutex, no atomic. `flush()` walks the shards, maps shard-local path
/// ids to canonical ids in the database's registry, and bulk-merges rows
/// and counter deltas (one lock per shard per round instead of one per
/// observation).
///
/// Threading contract:
///  * `lane()` / `Lane` methods may be called concurrently from any
///    number of worker threads during an ingest epoch.
///  * `count_listed()` and `flush()` are coordinator-only: the caller
///    guarantees no Lane traffic is in flight when they run. Campaign
///    serializes ingest epochs per sink to uphold this.
///  * `flush()` marks a round boundary: all worker-local state drains
///    into the database in an order with no observable scheduling
///    dependence, so downstream CSVs, counters and tables come out
///    byte-identical at any thread count.
///
/// Determinism: within one ingest epoch a site is monitored at most
/// once, so per-site observation order is epoch order regardless of
/// which shard a row landed in, and ResultsDb::finalize() groups rows
/// by site — every downstream byte is invariant to thread count and to
/// shard arrival order. Canonical path *ids* do depend on merge order;
/// path *content* (the only registry observable that reaches output)
/// does not.
class ShardedSink {
 public:
  /// One worker's shard and ingest handle.
  class Lane {
   public:
    Lane() = default;
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /// Registry the worker interns AS paths into. Ids returned here are
    /// lane-local; the sink canonicalizes them at flush time.
    [[nodiscard]] PathRegistry& paths() { return reg_; }
    /// Record one observation (path ids must come from this lane's
    /// registry).
    void record(const Observation& obs) { staged_.push_back(obs); }
    /// Bucket `n` occurrences of one monitoring status into the round's
    /// counters (the campaign fast path settles hundreds of thousands of
    /// v4-only sites per round; counters are additive, so one bulk add is
    /// byte-identical to n single adds).
    void count(std::uint32_t round, MonitorStatus status, std::uint64_t n = 1) {
      if (n == 0) return;
      if (round >= counters_.size()) counters_.resize(round + 1);
      apply_status(counters_[round], status, n);
    }

   private:
    friend class ShardedSink;
    PathRegistry reg_;
    std::vector<Observation> staged_;
    std::vector<RoundCounters> counters_;
    /// Shard-local path id -> canonical id; grown incrementally at
    /// flush so already-canonicalized prefixes are never re-interned.
    std::vector<PathId> remap_;
  };

  explicit ShardedSink(ResultsDb& db);
  ShardedSink(const ShardedSink&) = delete;
  ShardedSink& operator=(const ShardedSink&) = delete;

  /// The calling thread's lane. Stable for the thread's lifetime; cheap
  /// after the first call.
  [[nodiscard]] Lane& lane();

  /// Record the listed-population size for a round (coordinator-only).
  void count_listed(std::uint32_t round, std::uint64_t n) {
    db_->count_listed(round, n);
  }

  /// Round boundary: drain all lanes into the database (coordinator-only,
  /// no concurrent lane traffic).
  void flush();

  /// Number of shards materialized so far (== distinct ingest threads,
  /// modulo lane-cache eviction).
  [[nodiscard]] std::size_t shard_count() const;

 private:
  Lane& shard_for_this_thread() V6MON_EXCLUDES(shards_mu_);

  ResultsDb* db_;
  const std::uint64_t id_;  ///< Process-unique, keys the thread-local lane cache.
  /// Guards the shard *container* (creation/walk). Shard contents are
  /// lane-private during an epoch and coordinator-owned during flush()
  /// — that handoff is the sink's epoch contract, not a lock.
  mutable util::Mutex shards_mu_;
  std::deque<Lane> shards_ V6MON_GUARDED_BY(shards_mu_);  ///< Deque: addresses stable as shards join.
};

}  // namespace v6mon::core
