#include "core/campaign.h"

#include <algorithm>
#include <string>
#include <thread>

#include "core/thread_pool.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/error.h"
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
  // The monitor stream key packs (vp * kRoundKeySpan + round) into 32
  // bits: a round at or past the span would alias the next VP's rounds.
  const std::uint32_t last_round =
      world_.w6d_round == web::kNever ? world_.num_rounds
                                      : std::max(world_.num_rounds, world_.w6d_round);
  if (last_round >= kRoundKeySpan) {
    throw ConfigError("campaign rounds must be below " + std::to_string(kRoundKeySpan));
  }
  if (world_.vantage_points.size() >= kMaxVantagePoints) {
    throw ConfigError("campaign vantage points must be below " +
                      std::to_string(kMaxVantagePoints));
  }
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
                         std::uint64_t salt) {
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
    // Every RNG stream is keyed per (vp, round, site ^ salt) — never by
    // chunk bounds or worker identity — so scheduling granularity is a
    // pure performance knob and threads=1 reproduces threads=N
    // bit-for-bit. The constructor keeps round < kRoundKeySpan, so no
    // two (vp, round) pairs share a key.
    const std::uint64_t key =
        ((static_cast<std::uint64_t>(vp_index) * kRoundKeySpan + round) << 32) |
        (site.id ^ salt);
    dns::Resolver resolver(backend, config_.monitor.dns,
                           util::LazyRng(root.child_seed("dns", key)));
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
  parallel_index(pool_, sites.size(), monitor_one);
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

  run_sites(vp_index, round, work, db, /*salt=*/0);
}

void Campaign::run() {
  // One fork/join per epoch segment (DESIGN.md §15). The pending epoch
  // rounds <= num_rounds cut the campaign into segments [lo, hi): the
  // world advances to `lo` on this thread while no round is in flight,
  // then every VP runs its rounds lo..hi-1 in order on the pool, each
  // round fanning its sites out through a nested parallel_index. All VPs
  // observe round r under the same world version, so the observation
  // bytes equal those of advance_world(r) then run_round(vp, r) for
  // every vp, round by round — every RNG stream is keyed by
  // (vp, round, site), never by schedule order.
  const std::size_t num_vps = world_.vantage_points.size();
  if (num_vps == 0) return;
  const std::uint32_t end = world_.num_rounds + 1;
  std::vector<std::uint32_t> bounds{0};
  if (timeline_ != nullptr) {
    for (const std::uint32_t r : timeline_->pending_epoch_rounds()) {
      if (r > bounds.back() && r < end) bounds.push_back(r);
    }
  }
  bounds.push_back(end);
  for (std::size_t seg = 0; seg + 1 < bounds.size(); ++seg) {
    const std::uint32_t lo = bounds[seg];
    const std::uint32_t hi = bounds[seg + 1];
    advance_world(lo);
    parallel_index(pool_, num_vps, [this, lo, hi](std::size_t vp) {
      for (std::uint32_t round = lo; round < hi; ++round) run_round(vp, round);
    });
  }
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
  std::vector<std::size_t> vps;
  for (std::size_t vp = 0; vp < world_.vantage_points.size(); ++vp) {
    if (world_.vantage_points[vp].start_round <= world_.w6d_round) vps.push_back(vp);
  }
  // One task per participating vantage point: its mini-rounds stay in
  // order while different VPs' events run concurrently.
  parallel_index(pool_, vps.size(), [this, &vps, &participants](std::size_t i) {
    const std::size_t vp = vps[i];
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
                /*salt=*/0x60d00000ULL + mini);
    }
  });
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
