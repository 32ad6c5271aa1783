#include "core/campaign.h"

#include <algorithm>
#include <thread>

#include "core/executor.h"
#include "core/thread_pool.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "web/dns_backend.h"

namespace v6mon::core {

namespace {

/// Campaign-layer counter handles. Status counters are indexed by the
/// MonitorStatus enum value so workers count without a name lookup; all
/// of them are deterministic in thread count (each is incremented
/// exactly once per listed site per round).
struct CampaignMetricIds {
  obs::MetricId fast_path_sites = obs::metrics().counter("campaign.fast_path_sites");
  obs::MetricId sites_monitored = obs::metrics().counter("campaign.sites_monitored");
  obs::MetricId ingest_rows = obs::metrics().counter("ingest.rows");
  obs::MetricId ingest_flushes = obs::metrics().counter("ingest.flushes");
  obs::MetricId status[7] = {
      obs::metrics().counter("monitor.status.dns-failed"),
      obs::metrics().counter("monitor.status.v4-only"),
      obs::metrics().counter("monitor.status.v6-only"),
      obs::metrics().counter("monitor.status.v4-download-failed"),
      obs::metrics().counter("monitor.status.v6-download-failed"),
      obs::metrics().counter("monitor.status.different-content"),
      obs::metrics().counter("monitor.status.measured"),
  };

  [[nodiscard]] obs::MetricId status_id(MonitorStatus s) const {
    return status[static_cast<std::size_t>(s)];
  }
};

const CampaignMetricIds& campaign_metric_ids() {
  static const CampaignMetricIds ids;
  return ids;
}

/// Whether a monitoring outcome is stored as an observation row; every
/// other status only bumps the round counters.
[[nodiscard]] bool carries_row(MonitorStatus s) {
  return s == MonitorStatus::kMeasured || s == MonitorStatus::kDifferentContent ||
         s == MonitorStatus::kV4DownloadFailed || s == MonitorStatus::kV6DownloadFailed;
}

/// Dispatch key of a (vantage point, round) node in an *evolving*
/// campaign: rounds are the major axis so the ready-queue prefers the
/// pipeline frontier (low rounds finish first, unblocking their
/// successors and the next epoch gate); the VP index breaks ties
/// deterministically. Gate nodes take slot 0 of their round, ahead of
/// the round's VP nodes. run() requires fewer than 2^20 rounds and VPs,
/// so a 20-bit field can never collide with the next round or VP.
[[nodiscard]] std::uint64_t node_key(std::uint32_t round, std::size_t vp_slot) {
  return (static_cast<std::uint64_t>(round) << 20) |
         static_cast<std::uint64_t>(vp_slot);
}

/// Dispatch key in a *frozen* campaign (no gate nodes): VPs are the
/// major axis, so a 1-thread pool runs each vantage point's rounds back
/// to back and its working set (monitor, resolved-site table, store)
/// stays cache-hot through consecutive rounds instead of being evicted
/// by six other VPs every round. Outputs are schedule-invariant either
/// way (the determinism matrix pins it); the key choice is purely a
/// locality decision.
[[nodiscard]] std::uint64_t node_key_vp_major(std::uint32_t round,
                                              std::size_t vp) {
  return (static_cast<std::uint64_t>(vp) << 20) |
         static_cast<std::uint64_t>(round);
}

}  // namespace

CampaignConfig Campaign::resolve(CampaignConfig config) {
  config.monitor.validate();
  if (config.threads == 0) {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    config.threads = std::min(config.monitor.max_parallel_sites, hw);
  }
  return config;
}

Campaign::Campaign(const World& world, CampaignConfig config)
    : world_(world), config_(resolve(std::move(config))), pool_(config_.threads) {
  for (std::size_t vp = 0; vp < world_.vantage_points.size(); ++vp) {
    stores_.emplace_back();
    w6d_stores_.emplace_back();
    dns_tallies_.emplace_back();
    monitors_.emplace_back(world_, world_.vantage_points[vp], config_.monitor);
  }
}

dns::Resolver::Stats Campaign::dns_stats(std::size_t vp_index) const {
  const DnsTally& t = dns_tallies_.at(vp_index);
  dns::Resolver::Stats s;
  s.queries = t.queries.load(std::memory_order_relaxed);
  s.timeouts = t.timeouts.load(std::memory_order_relaxed);
  s.nxdomain = t.nxdomain.load(std::memory_order_relaxed);
  return s;
}

Campaign::Campaign(WorldTimeline& timeline, CampaignConfig config)
    : Campaign(timeline.world(), std::move(config)) {
  timeline_ = &timeline;
}

void Campaign::advance_world(std::uint32_t round) {
  if (timeline_ == nullptr) return;
  for (const WorldChangeSummary& summary : timeline_->advance_to(round)) {
    for (Monitor& monitor : monitors_) monitor.on_world_change(summary);
  }
}

void Campaign::run_sites(std::size_t vp_index, std::uint32_t round,
                         const std::vector<std::uint32_t>& sites, ResultsDb& db,
                         std::uint64_t salt, bool inline_sites) {
  V6MON_REQUIRE(vp_index < monitors_.size(), "vantage point index out of range");
  if (sites.empty()) return;
  Monitor& monitor = monitors_[vp_index];
  const web::CatalogDnsBackend backend(world_.catalog);
  const util::Rng root(config_.seed);

  // Resolved-site table slot assignment is coordinator-only (we hold this
  // VP's epoch mutex): column growth must not race the workers' lazy
  // per-slot fills inside monitor_site below.
  {
    obs::TraceSpan span(obs::Stage::kSiteResolve);
    monitor.assign_resolve_slots(sites, round);
  }

  // One result slot per site: worker i writes only out[i], and paths go
  // straight into the store's (internally synchronized) registry.
  std::vector<Observation> out(sites.size());
  const auto monitor_one = [&](std::size_t i) {
    const web::Site& site = world_.catalog.site(sites[i]);
    // Every RNG stream is keyed per (site, round, salt) — never by chunk
    // bounds or worker identity — so scheduling granularity is a pure
    // performance knob and threads=1 reproduces threads=N bit-for-bit.
    dns::Resolver resolver(backend, config_.monitor.dns,
                           util::LazyRng(root.child_seed("dns", salt ^ site.id)));
    const std::uint64_t key =
        ((static_cast<std::uint64_t>(vp_index) * 4096 + round) << 32) |
        (site.id ^ salt);
    out[i] = monitor.monitor_site(site, round, resolver, root.child("monitor", key),
                                  db.paths());
    // Per-VP DNS accounting: resolvers are per-site temporaries, so their
    // Stats would otherwise vanish here. Relaxed adds of per-site totals
    // — deterministic whatever the schedule.
    {
      const dns::Resolver::Stats& ds = resolver.stats();
      DnsTally& tally = dns_tallies_[vp_index];
      tally.queries.fetch_add(ds.queries, std::memory_order_relaxed);
      tally.timeouts.fetch_add(ds.timeouts, std::memory_order_relaxed);
      tally.nxdomain.fetch_add(ds.nxdomain, std::memory_order_relaxed);
    }
    auto& metrics = obs::metrics();
    const auto& ids = campaign_metric_ids();
    metrics.add(ids.sites_monitored);
    metrics.add(ids.status_id(out[i].status));
    if (carries_row(out[i].status)) metrics.add(ids.ingest_rows);
  };
  if (inline_sites) {
    // Executor-scheduled round with enough concurrent (vp, round) nodes
    // to cover every pool worker: fanning sites out would only enqueue
    // helpers that contend with other VPs' nodes for the same workers,
    // paying a submit + wakeup round-trip per block for nothing. Run the
    // site loop on this node's thread; the graph supplies the
    // parallelism. Same fn(i) sequence as parallel_index's serial path,
    // so the observables cannot tell the difference.
    for (std::size_t i = 0; i < sites.size(); ++i) monitor_one(i);
  } else {
    parallel_index(pool_, sites.size(), monitor_one);
  }
  // Append the round's result slots in index order: the store sees the
  // same add sequence whichever worker filled which slot.
  {
    obs::TraceSpan span(obs::Stage::kIngestFlush);
    for (const Observation& obs : out) {
      db.count(round, obs.status);
      if (carries_row(obs.status)) db.add(obs);
    }
  }
  auto& metrics = obs::metrics();
  metrics.add(campaign_metric_ids().ingest_flushes);
  // The append is also the metrics merge boundary: worker-thread shards
  // fold into the registry totals while no site work is in flight.
  metrics.merge_shards();
}

void Campaign::run_round(std::size_t vp_index, std::uint32_t round) {
  run_round(vp_index, round, /*inline_sites=*/false);
}

void Campaign::run_round(std::size_t vp_index, std::uint32_t round,
                         bool inline_sites) {
  V6MON_REQUIRE(vp_index < world_.vantage_points.size(),
                "vantage point index out of range");
  V6MON_REQUIRE(!finalized_, "run_round after finalize()");
  if (timeline_ != nullptr) {
    // Measuring a round with an unapplied epoch at or before it would
    // observe the wrong world version — the caller must advance first.
    const std::optional<std::uint32_t> next = timeline_->next_epoch_round();
    V6MON_REQUIRE(!next.has_value() || *next > round,
                  "pending world epoch at or before this round: "
                  "call advance_world(round) first");
  }
  const VantagePoint& vp = world_.vantage_points[vp_index];
  if (round < vp.start_round) return;
  VpStore& store = stores_[vp_index];
  // One round at a time per store: concurrent run_round calls on the same
  // vantage point serialize here, so the store has a single writer.
  util::LockGuard epoch(store.epoch_mu);
  ResultsDb& db = store.db;

  // Collect this round's work list. The fast path settles v4-only sites
  // inline: with no DNS failure injection their pipeline outcome is
  // exactly kV4Only (Campaign.FastPathMatchesFullPipeline checks it), so
  // only the catalog's listed dual-stack sites are queued, in id order.
  // Under failure injection every listed site is queued.
  const web::SiteCatalog& catalog = world_.catalog;
  const bool with_supplement = vp.uses_dns_cache_supplement;
  const std::uint64_t listed = catalog.listed_at(round, with_supplement);
  std::vector<std::uint32_t> work;
  if (config_.monitor.dns.timeout_prob == 0.0) {
    work = catalog.dual_stack_at(round, with_supplement);
  } else {
    for (const web::Site& s : catalog.sites()) {
      if ((with_supplement || !s.from_dns_cache) && s.in_list_at(round)) {
        work.push_back(s.id);
      }
    }
  }
  // Fast-pathed + queued sites together must account for every listed
  // site — losing work here silently skews every downstream table.
  V6MON_ENSURE(work.size() <= listed,
               "work list cannot exceed the listed population");
  const std::uint64_t fast_pathed = listed - work.size();
  if (fast_pathed != 0) {
    // Fast-pathed sites still count toward the round and status totals,
    // exactly as the full pipeline would have. Batched: the fast path
    // covers the vast majority of the catalog, and per-site bookkeeping
    // would cost more than the fast path itself — counters are additive,
    // so one add of `fast_pathed` is byte-identical to that many adds.
    db.count(round, MonitorStatus::kV4Only, fast_pathed);
    obs::metrics().add(campaign_metric_ids().fast_path_sites, fast_pathed);
    obs::metrics().add(campaign_metric_ids().status_id(MonitorStatus::kV4Only),
                       fast_pathed);
  }
  db.count_listed(round, listed);

  // Randomize monitoring order (the paper randomizes per round to avoid
  // time-of-day bias). Chained derivation — one child per key component
  // — so no (vp, round) pair can alias another however large either
  // grows. (A packed `(vp << 20) | round` key would collide once rounds
  // reach 2^20: vp=0, round=2^20 would shuffle identically to vp=1,
  // round=0.) The shuffle only permutes the work list; every observable
  // is keyed by (site, round), so outputs are byte-identical under any
  // order — tests/determinism_test.cpp pins the thread matrix against
  // the serial reference and tests/rng_test.cpp pins the
  // collision-freedom itself.
  util::Rng order =
      util::Rng(config_.seed).child("order", vp_index).child("round", round);
  order.shuffle(work);

  run_sites(vp_index, round, work, db, /*salt=*/0, inline_sites);
}

bool Campaign::graph_covers_pool() const {
  // With at least half a node per worker the graph keeps the pool busy
  // on its own: any extra per-node fan-out would merely queue helpers
  // behind other VPs' nodes. Below that (few VPs, wide pool) the nodes
  // cannot saturate the workers, so sites still fan out inside each
  // node — two-level scheduling.
  return world_.vantage_points.size() >= 2 &&
         config_.threads < 2 * world_.vantage_points.size();
}

void Campaign::run() {
  // Dependency-graph schedule (DESIGN.md §15). Chain nodes per vantage
  // point — (vp, r) waits only on (vp, r-1) — so VPs pipeline through
  // their rounds concurrently. Every *pending* epoch round e gets one
  // advance_world(e) gate node wedged into all chains: it waits on every
  // (vp, r < e) node and gates every (vp, r >= e) node — a barrier, but
  // only at epoch rounds, not at all of them. run_round's own
  // pending-epoch REQUIRE stays satisfied on every schedule the edges
  // admit.
  const std::size_t num_vps = world_.vantage_points.size();
  if (num_vps == 0) return;
  V6MON_REQUIRE(num_vps < (1u << 20), "vantage point count exceeds key space");
  V6MON_REQUIRE(world_.num_rounds < (1u << 20), "round count exceeds key space");
  std::vector<std::uint32_t> gates;
  if (timeline_ != nullptr) {
    for (const std::uint32_t r : timeline_->pending_epoch_rounds()) {
      if (r <= world_.num_rounds) gates.push_back(r);
    }
  }
  Executor exec(pool_);
  const bool inline_sites = graph_covers_pool();
  std::vector<Executor::NodeId> prev(num_vps, Executor::kNoNode);
  Executor::NodeId prev_gate = Executor::kNoNode;
  std::size_t next_gate = 0;
  for (std::uint32_t round = 0; round <= world_.num_rounds; ++round) {
    Executor::NodeId gate = Executor::kNoNode;
    if (next_gate < gates.size() && gates[next_gate] == round) {
      ++next_gate;
      gate = exec.add(node_key(round, 0),
                      [this, round] { advance_world(round); });
      // Gates chain (epochs apply in order) and wait for every VP's
      // previous round — the world may only move while no measurement
      // is in flight.
      if (prev_gate != Executor::kNoNode) exec.add_edge(prev_gate, gate);
      for (std::size_t vp = 0; vp < num_vps; ++vp) {
        if (prev[vp] != Executor::kNoNode) exec.add_edge(prev[vp], gate);
      }
      prev_gate = gate;
    }
    for (std::size_t vp = 0; vp < num_vps; ++vp) {
      const std::uint64_t key = gates.empty() ? node_key_vp_major(round, vp)
                                              : node_key(round, vp + 1);
      const Executor::NodeId node = exec.add(
          key, [this, vp, round, inline_sites] { run_round(vp, round, inline_sites); });
      if (prev[vp] != Executor::kNoNode) exec.add_edge(prev[vp], node);
      if (gate != Executor::kNoNode) exec.add_edge(gate, node);
      prev[vp] = node;
    }
  }
  exec.run();
}

void Campaign::run_w6d() {
  if (world_.w6d_round == web::kNever) return;
  V6MON_REQUIRE(!finalized_, "run_w6d after finalize()");
  // Evolving campaigns: the special event measures against whatever
  // world version the regular rounds left behind (run() has advanced
  // through every epoch <= num_rounds by the w6d round's pass). That is
  // the intended semantics — W6D happens on the evolved topology.
  std::vector<std::uint32_t> participants;
  for (const web::Site& s : world_.catalog.sites()) {
    if (s.w6d_participant) participants.push_back(s.id);
  }
  // One node per participating vantage point, no edges: a VP's whole
  // mini-round sequence is one node, so its mini-rounds stay in order
  // while different VPs' events run concurrently.
  Executor exec(pool_);
  const bool inline_sites = graph_covers_pool();
  bool any = false;
  for (std::size_t vp = 0; vp < world_.vantage_points.size(); ++vp) {
    if (world_.vantage_points[vp].start_round > world_.w6d_round) continue;
    exec.add(node_key(0, vp + 1), [this, vp, &participants, inline_sites] {
      VpStore& store = w6d_stores_[vp];
      util::LockGuard epoch(store.epoch_mu);
      // The monitor (and its resolved-site table) is shared with regular
      // rounds, and run_sites below may grow the table: take the regular
      // store's epoch mutex too, so all table mutation for this VP
      // serializes on one lock order (w6d store first, regular second).
      util::LockGuard regular_epoch(stores_[vp].epoch_mu);
      for (std::size_t mini = 0; mini < config_.w6d_mini_rounds; ++mini) {
        // All mini-rounds happen at the W6D calendar round (same DNS
        // state) but with independent randomness. Each run_sites call
        // appends its slots before the next starts, so a site's
        // mini-round observations land in mini order.
        run_sites(vp, world_.w6d_round, participants, store.db,
                  /*salt=*/0x60d00000ULL + mini, inline_sites);
      }
    });
    any = true;
  }
  if (!any) return;
  exec.run();
}

void Campaign::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (std::deque<VpStore>* group : {&stores_, &w6d_stores_}) {
    for (VpStore& store : *group) {
      util::LockGuard epoch(store.epoch_mu);
      store.db.finalize();
    }
  }
}

}  // namespace v6mon::core
