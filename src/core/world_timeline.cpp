#include "core/world_timeline.h"

#include <algorithm>
#include <set>
#include <thread>

#include "core/thread_pool.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {

using topo::Asn;

namespace {

std::size_t resolve_threads(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// True when `vp` reaches `t.dest()` over a chain none of whose ASes
/// (`vp` included) is in the sorted `rerouted` list: the repair left that
/// chain as it was.
bool chain_kept(const bgp::RouteTable& t, Asn vp, const std::vector<Asn>& rerouted) {
  auto moved = [&](Asn a) {
    return std::binary_search(rerouted.begin(), rerouted.end(), a);
  };
  if (!t.reachable(vp)) return !moved(vp);
  for (Asn cur = vp; cur != t.dest(); cur = t.next_hop(cur)) {
    if (moved(cur)) return false;
  }
  return true;
}

/// True when `vp` reaches the destination over the same chain in both
/// tables (or in neither).
bool same_chain(const bgp::RouteTable& a, const bgp::RouteTable& b, Asn vp) {
  if (a.reachable(vp) != b.reachable(vp)) return false;
  if (!a.reachable(vp)) return true;
  if (a.path_length(vp) != b.path_length(vp)) return false;
  for (Asn cur = vp; cur != a.dest(); cur = a.next_hop(cur)) {
    if (a.next_hop(cur) != b.next_hop(cur)) return false;
  }
  return true;
}

/// True when every VP's v6 RIB holds exactly the entries `t` implies for
/// `d`'s non-6to4 prefixes: {origin d, AS path} where d speaks IPv6 and
/// the VP has a route, none otherwise.
bool rib_in_step(const World& world, Asn d, const bgp::RouteTable& t) {
  const topo::AsNode& dn = world.graph.node(d);
  for (const VantagePoint& vp : world.vantage_points) {
    const bool routable = dn.has_v6 && t.reachable(vp.asn);
    const std::vector<Asn> path = routable ? t.as_path(vp.asn) : std::vector<Asn>{};
    for (const auto& p : dn.v6_prefixes) {
      if (p.network().is_6to4()) continue;
      const bgp::RibEntry* e = vp.rib.find_v6(p);
      if (routable ? (e == nullptr || e->origin != d || e->as_path != path)
                   : e != nullptr) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

WorldTimeline::WorldTimeline(World world, std::vector<EpochDeltas> epochs,
                             std::size_t build_threads)
    : world_(std::move(world)),
      epochs_(std::move(epochs)),
      build_threads_(build_threads) {
  std::uint32_t prev = 0;
  for (const EpochDeltas& e : epochs_) {
    if (e.round == 0) throw ConfigError("epoch rounds start at 1 (round 0 is epoch 0)");
    if (e.round <= prev) throw ConfigError("epoch rounds must be strictly ascending");
    prev = e.round;
  }
}

std::optional<std::uint32_t> WorldTimeline::next_epoch_round() const {
  if (next_pending_ >= epochs_.size()) return std::nullopt;
  return epochs_[next_pending_].round;
}

std::vector<std::uint32_t> WorldTimeline::pending_epoch_rounds() const {
  std::vector<std::uint32_t> rounds;
  rounds.reserve(epochs_.size() - next_pending_);
  for (std::size_t i = next_pending_; i < epochs_.size(); ++i) {
    rounds.push_back(epochs_[i].round);
  }
  return rounds;
}

const bgp::RouteTable* WorldTimeline::v6_table(Asn dest) const {
  const auto it = std::lower_bound(
      v6_tables_.begin(), v6_tables_.end(), dest,
      [](const bgp::RouteTable& t, Asn d) { return t.dest() < d; });
  return it == v6_tables_.end() || it->dest() != dest ? nullptr : &*it;
}

std::vector<Asn> WorldTimeline::tracked_dests() const {
  std::vector<Asn> out;
  out.reserve(v6_tables_.size());
  for (const bgp::RouteTable& t : v6_tables_) out.push_back(t.dest());
  return out;
}

void WorldTimeline::ensure_engine() {
  if (engine_ready_) return;
  engine_ready_ = true;

  // Tracked destinations: every AS that is — or will ever become — an
  // IPv6 route target someone can observe: v6 site hosts (incl.
  // relocations), tunnel relays (the 2002::/16 anycast candidates), and
  // every AS the delta stream names. Tables for not-yet-enabled ASes are
  // computed against the current view like any other (mostly
  // unreachable) destination and converge incrementally as their links
  // appear — so per-epoch work never includes a surprise full build.
  std::set<Asn> dests;
  const topo::AsGraph& g = world_.graph;
  for (std::uint32_t id = 0; id < g.num_links(); ++id) {
    if (g.link(id).v6_tunnel) dests.insert(g.link(id).a);
  }
  for (const web::Site& s : world_.catalog.sites()) {
    if (s.v6_from_round != web::kNever) dests.insert(s.v6_as);
    if (const web::Hosting* h = world_.catalog.relocation(s.id)) {
      if (h->v6_as != topo::kNoAs) dests.insert(h->v6_as);
    }
  }
  for (const EpochDeltas& e : epochs_) {
    for (const WorldDelta& d : e.deltas) {
      switch (d.kind) {
        case WorldDeltaKind::kAsEnablesV6:
        case WorldDeltaKind::kPrefixAnnounced:
        case WorldDeltaKind::kPrefixWithdrawn:
          if (d.as != topo::kNoAs) dests.insert(d.as);
          break;
        case WorldDeltaKind::kSiteGainsAaaa:
          if (d.v6_as != topo::kNoAs) dests.insert(d.v6_as);
          break;
        case WorldDeltaKind::kLinkEnablesV6:
        case WorldDeltaKind::kTunnelRetired:
          break;
      }
    }
  }

  const std::vector<Asn> dest_list(dests.begin(), dests.end());
  std::vector<std::optional<bgp::RouteTable>> tables(dest_list.size());
  std::vector<std::uint8_t> in_step(dest_list.size(), 0);
  view_.emplace(g, ip::Family::kIpv6);
  pool_ = std::make_unique<ThreadPool>(resolve_threads(build_threads_));
  parallel_index(*pool_, dest_list.size(), [&](std::size_t i) {
    tables[i] = bgp::compute_routes_to(*view_, dest_list[i]);
    in_step[i] = rib_in_step(world_, dest_list[i], *tables[i]) ? 1 : 0;
  });
  v6_tables_.reserve(dest_list.size());
  for (std::size_t i = 0; i < dest_list.size(); ++i) {
    v6_tables_.push_back(std::move(*tables[i]));
    if (in_step[i] == 0) rib_stale_.insert(dest_list[i]);
  }
}

std::vector<WorldChangeSummary> WorldTimeline::advance_to(std::uint32_t round) {
  std::vector<WorldChangeSummary> out;
  while (next_pending_ < epochs_.size() && epochs_[next_pending_].round <= round) {
    out.push_back(apply_epoch(epochs_[next_pending_]));
    ++next_pending_;
  }
  return out;
}

WorldChangeSummary WorldTimeline::apply_epoch(const EpochDeltas& epoch) {
  ensure_engine();
  topo::AsGraph& g = world_.graph;
  const std::size_t n = g.num_ases();

  WorldChangeSummary summary;
  summary.epoch = ++applied_;
  summary.round = epoch.round;
  summary.touched_as.assign(n, 0);
  EpochStats stats;
  stats.epoch = summary.epoch;
  stats.round = epoch.round;
  stats.deltas_applied = epoch.deltas.size();

  auto touch = [&](Asn a) {
    V6MON_REQUIRE(a < n, "world delta names an AS out of range");
    summary.touched_as[a] = 1;
  };

  // ---- 1. Apply the mutations, collecting the edge-change frontier -----
  std::vector<bgp::EdgeChange> edge_changes;
  std::set<Asn> changed;  // dests whose table or announcement changed
  std::vector<ip::Ipv6Prefix> moved_prefixes;
  bool tunnels_changed = false;
  for (const WorldDelta& d : epoch.deltas) {
    switch (d.kind) {
      case WorldDeltaKind::kAsEnablesV6:
        touch(d.as);
        g.node(d.as).has_v6 = true;
        summary.v6_data_plane_changed = true;
        rib_stale_.insert(d.as);
        break;
      case WorldDeltaKind::kLinkEnablesV6: {
        const topo::AsLink& l = g.link(d.link_id);
        V6MON_REQUIRE(!l.in_v6, "kLinkEnablesV6 on a link already carrying IPv6");
        g.enable_v6_on_link(d.link_id);
        edge_changes.push_back({l.a, l.b, /*added=*/true});
        touch(l.a);
        touch(l.b);
        break;
      }
      case WorldDeltaKind::kTunnelRetired: {
        const topo::AsLink& l = g.link(d.link_id);
        V6MON_REQUIRE(l.in_v6, "kTunnelRetired on an already-retired tunnel");
        g.retire_tunnel(d.link_id);
        edge_changes.push_back({l.a, l.b, /*added=*/false});
        touch(l.a);
        touch(l.b);
        tunnels_changed = true;
        break;
      }
      case WorldDeltaKind::kPrefixAnnounced:
        touch(d.as);
        g.node(d.as).v6_prefixes.push_back(d.prefix);
        moved_prefixes.push_back(d.prefix);
        changed.insert(d.as);
        rib_stale_.insert(d.as);
        break;
      case WorldDeltaKind::kPrefixWithdrawn: {
        touch(d.as);
        auto& prefixes = g.node(d.as).v6_prefixes;
        const auto it = std::find(prefixes.begin(), prefixes.end(), d.prefix);
        V6MON_REQUIRE(it != prefixes.end(),
                      "kPrefixWithdrawn names a prefix the AS does not announce");
        prefixes.erase(it);
        for (VantagePoint& vp : world_.vantage_points) vp.rib.erase_v6(d.prefix);
        moved_prefixes.push_back(d.prefix);
        changed.insert(d.as);
        rib_stale_.insert(d.as);
        break;
      }
      case WorldDeltaKind::kSiteGainsAaaa:
        touch(d.v6_as);
        world_.catalog.grant_aaaa(d.site_id, epoch.round, d.v6_as, d.v6_addr,
                                  d.v6_server_factor);
        summary.sites_gained_aaaa.push_back(d.site_id);
        // Ensure the hosting AS's routes are installed even when it never
        // hosted an IPv6 presence before this epoch.
        changed.insert(d.v6_as);
        rib_stale_.insert(d.v6_as);
        break;
    }
  }
  stats.edge_changes = edge_changes.size();
  summary.v6_data_plane_changed |=
      !edge_changes.empty() || !moved_prefixes.empty() || tunnels_changed;
  std::sort(summary.sites_gained_aaaa.begin(), summary.sites_gained_aaaa.end());

  // ---- 2. Re-converge the tracked tables over the dirty frontier -------
  const std::size_t num_dests = v6_tables_.size();
  stats.tracked_dests = num_dests;
  const std::size_t num_vps = world_.vantage_points.size();
  // Per (tracked dest, VP): did the VP's next-hop chain to it move?
  std::vector<std::uint8_t> chain_moved(num_dests * num_vps, 0);
  if (!edge_changes.empty() || mode_ == EpochAdvanceMode::kFullRebuild) {
    std::vector<Asn> endpoints;
    for (const bgp::EdgeChange& ch : edge_changes) {
      endpoints.push_back(ch.a);
      endpoints.push_back(ch.b);
    }
    view_->refresh(g, endpoints);
    const bgp::FamilyView& view = *view_;
    std::vector<bgp::DeltaStats> per_dest(num_dests);
    std::vector<std::uint8_t> dest_changed(num_dests, 0);
    auto converge = [&](std::size_t i) {
      bgp::RouteTable& table = v6_tables_[i];
      std::uint8_t* moved = chain_moved.data() + i * num_vps;
      if (mode_ == EpochAdvanceMode::kFullRebuild) {
        bgp::RouteTable fresh = bgp::compute_routes_to(view, table.dest());
        dest_changed[i] = fresh == table ? 0 : 1;
        if (dest_changed[i] != 0) {
          for (std::size_t v = 0; v < num_vps; ++v) {
            moved[v] = !same_chain(table, fresh, world_.vantage_points[v].asn);
          }
        }
        table = std::move(fresh);
        return;
      }
      std::vector<Asn> rerouted;
      const bgp::DeltaStats& ds = per_dest[i] =
          bgp::compute_routes_delta(view, table, edge_changes, &rerouted);
      dest_changed[i] = (ds.changed > 0 || ds.fell_back) ? 1 : 0;
      if (dest_changed[i] == 0) return;
      std::sort(rerouted.begin(), rerouted.end());
      for (std::size_t v = 0; v < num_vps; ++v) {
        moved[v] = ds.fell_back || !chain_kept(table, world_.vantage_points[v].asn, rerouted);
      }
    };
    // Most incremental repairs take a microsecond or two, so the workers
    // claim destinations in blocks to keep the shared claim counter cold.
    constexpr std::size_t kBlock = 16;
    parallel_index(*pool_, (num_dests + kBlock - 1) / kBlock, [&](std::size_t b) {
      for (std::size_t i = b * kBlock; i < std::min(num_dests, (b + 1) * kBlock); ++i) {
        converge(i);
      }
    });
    for (std::size_t i = 0; i < num_dests; ++i) {
      if (mode_ == EpochAdvanceMode::kFullRebuild) {
        ++stats.full_recomputes;
      } else {
        ++stats.delta_recomputes;
        stats.invalidated += per_dest[i].invalidated;
        stats.reevaluated += per_dest[i].reevaluated;
        stats.changed_routes += per_dest[i].changed;
        if (per_dest[i].fell_back) ++stats.fallbacks;
      }
      if (dest_changed[i] != 0) changed.insert(v6_tables_[i].dest());
    }
  }

  // ---- 3. Rewrite the vantage-point RIB entries that moved --------------
  // Every tracked destination outside rib_stale_ has its VP entries in
  // step with its table, so an entry needs rewriting only where the VP's
  // chain moved — or at every VP, when the destination is stale.
  // `changed` (and with it the monitors' invalidation) stays table-level.
  struct Rewrite {
    Asn dest;
    const bgp::RouteTable* table;
    bool every_vp;
  };
  std::vector<Rewrite> rewrites;
  for (Asn d : changed) {
    const bgp::RouteTable* t = v6_table(d);
    V6MON_REQUIRE(t != nullptr, "changed destination is not tracked by the timeline");
    rewrites.push_back({d, t, rib_stale_.erase(d) != 0});
  }
  // Each VP's RIB is a trie of its own, so the VPs are rewritten in
  // parallel; inside one trie the writes keep ascending-destination order.
  parallel_index(*pool_, num_vps, [&](std::size_t v) {
    VantagePoint& vp = world_.vantage_points[v];
    for (const Rewrite& w : rewrites) {
      const std::size_t i = static_cast<std::size_t>(w.table - v6_tables_.data());
      if (!w.every_vp && chain_moved[i * num_vps + v] == 0) continue;
      const topo::AsNode& dn = g.node(w.dest);
      const bool routable = dn.has_v6 && w.table->reachable(vp.asn);
      if (routable) {
        bgp::RibEntry e;
        e.origin = w.dest;
        e.as_path = w.table->as_path(vp.asn);
        V6MON_ASSERT(bgp::is_valley_free(g, ip::Family::kIpv6, vp.asn, e.as_path),
                     "selected IPv6 route violates valley-freedom");
        for (const auto& p : dn.v6_prefixes) {
          if (p.network().is_6to4()) continue;
          vp.rib.add_v6(p, e);
        }
      } else {
        for (const auto& p : dn.v6_prefixes) {
          if (p.network().is_6to4()) continue;
          vp.rib.erase_v6(p);
        }
      }
    }
  });

  // ---- 4. 6to4 anycast: re-elect each VP's nearest live relay -----------
  bool relay_changed = tunnels_changed;
  if (!relay_changed) {
    for (std::uint32_t id = 0; id < g.num_links() && !relay_changed; ++id) {
      const topo::AsLink& l = g.link(id);
      if (l.v6_tunnel && l.in_v6 && changed.count(l.a) != 0) relay_changed = true;
    }
  }
  if (relay_changed) {
    std::set<Asn> relays;
    for (std::uint32_t id = 0; id < g.num_links(); ++id) {
      const topo::AsLink& l = g.link(id);
      if (l.v6_tunnel && l.in_v6) relays.insert(l.a);
    }
    const ip::Ipv6Prefix six_to_four = ip::Ipv6Prefix::parse_or_throw("2002::/16");
    for (VantagePoint& vp : world_.vantage_points) {
      const bgp::RouteTable* best = nullptr;
      for (Asn r : relays) {
        const bgp::RouteTable& t = *v6_table(r);
        if (!t.reachable(vp.asn)) continue;
        if (best == nullptr || t.path_length(vp.asn) < best->path_length(vp.asn)) {
          best = &t;
        }
      }
      if (best != nullptr) {
        bgp::RibEntry e;
        e.origin = best->dest();
        e.as_path = best->as_path(vp.asn);
        vp.rib.add_v6(six_to_four, e);
      } else {
        vp.rib.erase_v6(six_to_four);
      }
    }
  }

  for (const ip::Ipv6Prefix& p : moved_prefixes) world_.origins.refresh_v6(g, p);

  // Any rewritten RIB entry is a data-plane change monitors must see:
  // a previously unroutable address may now resolve (and vice versa).
  summary.v6_data_plane_changed |= !changed.empty();
  summary.changed_dests.assign(changed.begin(), changed.end());
  stats_.push_back(stats);
  return summary;
}

}  // namespace v6mon::core
