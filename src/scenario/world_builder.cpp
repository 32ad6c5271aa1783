#include "scenario/world_builder.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <thread>

#include "bgp/route_computer.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::scenario {

using topo::AsGraph;
using topo::Asn;
using topo::Region;
using topo::Relationship;
using topo::Tier;

namespace {

/// Well-connected IPv6-capable transit ASes in (or near) a region, sorted
/// by degree — vantage points home to these.
std::vector<Asn> candidate_providers(const AsGraph& g, Region region, bool need_v6) {
  std::vector<std::pair<std::size_t, Asn>> scored;
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const topo::AsNode& n = g.node(static_cast<Asn>(i));
    if (n.tier != Tier::kTransit) continue;
    if (need_v6 && !n.has_v6) continue;
    std::size_t degree = g.adjacencies(n.asn).size();
    if (n.region == region) degree += 1000;  // strong local preference
    scored.emplace_back(degree, n.asn);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Asn> out;
  out.reserve(scored.size());
  for (const auto& [deg, asn] : scored) out.push_back(asn);
  return out;
}

Asn attach_vantage_as(AsGraph& g, const VantageSpec& spec,
                      const topo::TopologyParams& tp, util::Rng& rng) {
  const Asn asn = g.add_as(Tier::kStub, spec.region);
  g.node(asn).has_v6 = true;

  const auto providers = candidate_providers(g, spec.region, /*need_v6=*/true);
  if (providers.empty()) throw ConfigError("no IPv6-capable transit providers for VP");

  const int want = std::max(1, spec.num_v4_providers);
  std::vector<Asn> chosen;
  for (std::size_t i = 0; i < providers.size() && chosen.size() < static_cast<std::size_t>(want); ++i) {
    chosen.push_back(providers[i]);
  }
  if (spec.weak_provider_rank >= 0 && !chosen.empty()) {
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(spec.weak_provider_rank), providers.size() - 1);
    chosen.back() = providers[rank];
  }

  switch (spec.v6_mode) {
    case V6UplinkMode::kSameProviders: {
      for (Asn p : chosen) {
        const auto m = topo::draw_link_metrics(tp, g.node(p), g.node(asn), Relationship::kProviderCustomer, rng);
        g.add_link(p, asn, Relationship::kProviderCustomer, true, true, m);
      }
      break;
    }
    case V6UplinkMode::kSubsetProviders: {
      // Exactly one chosen provider carries IPv6; the IPv4 best path
      // often goes via another provider, so first hops diverge for many
      // destinations.
      const std::size_t v6_at =
          spec.v6_provider_rank < 0
              ? chosen.size() - 1
              : std::min<std::size_t>(static_cast<std::size_t>(spec.v6_provider_rank),
                                      chosen.size() - 1);
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        const auto m = topo::draw_link_metrics(tp, g.node(chosen[i]), g.node(asn), Relationship::kProviderCustomer, rng);
        g.add_link(chosen[i], asn, Relationship::kProviderCustomer, true, i == v6_at, m);
      }
      break;
    }
    case V6UplinkMode::kSeparateProvider: {
      for (Asn p : chosen) {
        const auto m = topo::draw_link_metrics(tp, g.node(p), g.node(asn), Relationship::kProviderCustomer, rng);
        g.add_link(p, asn, Relationship::kProviderCustomer, true, false, m);
      }
      // Dedicated IPv6 upstream: the best-connected provider *not* used
      // for IPv4.
      Asn v6_provider = topo::kNoAs;
      for (Asn p : providers) {
        if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
          v6_provider = p;
          break;
        }
      }
      if (v6_provider == topo::kNoAs) v6_provider = providers.back();
      auto m = topo::draw_link_metrics(tp, g.node(v6_provider), g.node(asn), Relationship::kProviderCustomer, rng);
      // Dedicated early-IPv6 upstreams (academic overlays, tunnels to an
      // IPv6 exchange) were markedly slower than commodity IPv4 transit.
      m.latency_ms *= 2.5;
      g.add_link(v6_provider, asn, Relationship::kProviderCustomer, false, true, m);
      break;
    }
  }
  return asn;
}

std::atomic<BuildWorkProbe> build_work_probe{nullptr};

void note_build_work(BuildWork work) {
  if (const BuildWorkProbe probe = build_work_probe.load(std::memory_order_relaxed)) {
    probe(work);
  }
}

std::size_t resolve_build_threads(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Destination-rooted route tables toward every AS in `dests`, computed
/// concurrently into slots indexed like `dests` — completion order never
/// shows in the result. All workers read one shared immutable FamilyView.
std::vector<std::optional<bgp::RouteTable>> compute_tables_parallel(
    core::ThreadPool& pool, const bgp::FamilyView& view,
    const std::vector<Asn>& dests) {
  std::vector<std::optional<bgp::RouteTable>> tables(dests.size());
  core::parallel_index(pool, dests.size(), [&](std::size_t i) {
    note_build_work(BuildWork::kRoutes);
    tables[i] = bgp::compute_routes_to(view, dests[i]);
  });
  return tables;
}

/// Pick the IPv6 core anchor: a tier-1 with IPv6 and at least one v6 link.
Asn v6_core_anchor(const AsGraph& g) {
  for (Asn t1 : g.ases_of_tier(Tier::kTier1)) {
    if (!g.node(t1).has_v6) continue;
    for (const topo::Adjacency& adj : g.adjacencies(t1)) {
      if (g.link_in_family(adj.link_id, ip::Family::kIpv6)) return t1;
    }
  }
  throw ConfigError("topology has no IPv6 core (no v6-enabled tier-1)");
}

}  // namespace

TunnelStats apply_tunnel_overlay(AsGraph& graph, std::size_t num_relays,
                                 double extra_latency_ms, double bandwidth_factor,
                                 util::Rng& rng, std::size_t threads) {
  TunnelStats stats;
  const Asn core = v6_core_anchor(graph);
  const bgp::RouteTable to_core =
      bgp::compute_routes_to(graph, ip::Family::kIpv6, core);

  // Relay candidates: v6 transits/tier-1s that natively reach the core.
  std::vector<Asn> relay_pool;
  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    const topo::AsNode& n = graph.node(static_cast<Asn>(i));
    if (!n.has_v6 || n.tier == Tier::kStub) continue;
    if (n.asn == core || to_core.reachable(n.asn)) relay_pool.push_back(n.asn);
  }
  if (relay_pool.empty()) throw ConfigError("no tunnel relay candidates");
  rng.shuffle(relay_pool);
  relay_pool.resize(std::min(num_relays, relay_pool.size()));

  // IPv4 routes *to each relay* let us derive each island's underlying
  // tunnel path metrics. Tables are independent per relay — fan out.
  core::ThreadPool pool(resolve_build_threads(threads));
  const bgp::FamilyView v4_view(graph, ip::Family::kIpv4);
  const auto v4_to_relay = compute_tables_parallel(pool, v4_view, relay_pool);

  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    const Asn asn = static_cast<Asn>(i);
    const topo::AsNode& n = graph.node(asn);
    if (!n.has_v6 || asn == core) continue;
    // Tunnel users: ASes with no native IPv6 route to the core, plus every
    // 2002::/16 (6to4) announcer — their traffic rides relays by design.
    const bool six_to_four =
        !n.v6_prefixes.empty() && n.v6_prefixes.front().network().is_6to4();
    if (to_core.reachable(asn) && !six_to_four) continue;
    ++stats.islands;

    // Relay selection is an anycast lottery (RFC 3068-era 6to4 relays and
    // tunnel brokers rarely sat near either endpoint): pick a random
    // reachable relay, seeded per island.
    std::vector<std::size_t> reachable;
    for (std::size_t r = 0; r < relay_pool.size(); ++r) {
      if (asn != relay_pool[r] && v4_to_relay[r]->reachable(asn)) reachable.push_back(r);
    }
    if (reachable.empty()) continue;  // island unreachable even in v4
    const std::size_t best = reachable[rng.index(reachable.size())];
    const unsigned best_len = v4_to_relay[best]->path_length(asn);

    // Walk the underlying IPv4 path to accumulate true latency/bandwidth.
    double latency = 0.0;
    double bandwidth = 1.0e9;
    Asn prev = asn;
    for (Asn hop : v4_to_relay[best]->as_path(asn)) {
      const std::uint32_t link = graph.find_link(prev, hop, ip::Family::kIpv4);
      if (link == AsGraph::kNoLink) break;
      latency += graph.link(link).metrics.latency_ms;
      bandwidth = std::min(bandwidth, graph.link(link).metrics.bandwidth_kBps);
      prev = hop;
    }
    graph.add_tunnel(relay_pool[best], asn, {latency, bandwidth}, best_len,
                     extra_latency_ms, bandwidth_factor);
    ++stats.tunnels_added;
  }
  return stats;
}

namespace {

/// What one destination contributes to the RIBs: its v4 and v6 route
/// tables reduced to each vantage point's selected path, so a worker can
/// drop both tables as soon as it has read them.
struct DestRoutes {
  std::vector<std::optional<bgp::RibEntry>> v4;  ///< Indexed like the VPs.
  std::vector<std::optional<bgp::RibEntry>> v6;  ///< Empty without IPv6.
};

/// Converged routes toward an ascending destination set, plus each VP's
/// 6to4 anycast route; installed into the RIBs by install_routes.
struct ConvergedRoutes {
  std::vector<Asn> dests;
  std::vector<DestRoutes> routes;  ///< Indexed like `dests`.
  std::vector<std::optional<bgp::RibEntry>> relay;  ///< Indexed like the VPs.
  std::uint64_t relay_tables = 0;
};

std::vector<Asn> vantage_asns(const core::World& world) {
  std::vector<Asn> asns;
  for (const core::VantagePoint& vp : world.vantage_points) asns.push_back(vp.asn);
  return asns;
}

/// Converge BGP toward every AS in `dests` (ascending) and toward the
/// tunnel relays, on `pool`. Reads only the graph, which must not change
/// until this returns; peak memory is one pair of route tables per
/// worker on top of the reduced routes.
ConvergedRoutes converge_routes(const AsGraph& g, const std::vector<Asn>& vps,
                                std::vector<Asn> dests, core::ThreadPool& pool) {
  ConvergedRoutes out;
  const bgp::FamilyView v4_view(g, ip::Family::kIpv4);
  const bgp::FamilyView v6_view(g, ip::Family::kIpv6);

  // --- 6to4 anycast (RFC 3068) ---------------------------------------------
  // A router's table carries one 2002::/16 route toward the *nearest*
  // relay; the destination island never appears in the AS path. This is
  // why tunnelled IPv6 paths look 1-2 hops long while performing like the
  // whole underlay — the paper's Table 7 artifact. The per-relay tables do
  // not depend on the vantage point, so they are computed once and each
  // VP scans them for its nearest relay (ties go to the lowest relay ASN).
  std::vector<Asn> relays;
  for (std::uint32_t id = 0; id < g.num_links(); ++id) {
    if (g.link(id).v6_tunnel) relays.push_back(g.link(id).a);
  }
  std::sort(relays.begin(), relays.end());
  relays.erase(std::unique(relays.begin(), relays.end()), relays.end());
  const auto relay_tables = compute_tables_parallel(pool, v6_view, relays);
  out.relay_tables = relays.size();
  out.relay.resize(vps.size());
  for (std::size_t v = 0; v < vps.size(); ++v) {
    const bgp::RouteTable* best = nullptr;
    for (const auto& table : relay_tables) {
      const bgp::RouteTable& t = *table;
      if (!t.reachable(vps[v])) continue;
      if (best == nullptr || t.path_length(vps[v]) < best->path_length(vps[v])) best = &t;
    }
    if (best != nullptr) out.relay[v] = bgp::RibEntry{best->dest(), best->as_path(vps[v])};
  }

  // Convergence fans out per destination (each table only reads the
  // graph) into slots indexed like `dests`, so completion order never
  // shows; each table is reduced to the VPs' paths right away.
  out.routes.resize(dests.size());
  core::parallel_index(pool, dests.size(), [&](std::size_t i) {
    note_build_work(BuildWork::kRoutes);
    const Asn dest = dests[i];
    const auto reduce = [&](const bgp::RouteTable& table, ip::Family family) {
      std::vector<std::optional<bgp::RibEntry>> paths(vps.size());
      for (std::size_t v = 0; v < vps.size(); ++v) {
        if (!table.reachable(vps[v])) continue;
        paths[v] = bgp::RibEntry{dest, table.as_path(vps[v])};
        // Gao-Rexford: every path BGP selects must be valley-free; a
        // violation here means compute_routes_to leaked an invalid export.
        V6MON_ASSERT(bgp::is_valley_free(g, family, vps[v], paths[v]->as_path),
                     "selected route violates valley-freedom");
      }
      return paths;
    };
    out.routes[i].v4 = reduce(bgp::compute_routes_to(v4_view, dest), ip::Family::kIpv4);
    if (g.node(dest).has_v6) {
      out.routes[i].v6 = reduce(bgp::compute_routes_to(v6_view, dest), ip::Family::kIpv6);
    }
  });
  out.dests = std::move(dests);
  return out;
}

/// Bitmap over ASNs of every AS hosting a site presence (incl. relocations).
std::vector<bool> hosting_ases(const AsGraph& g, const web::SiteCatalog& catalog) {
  std::vector<bool> hosted(g.num_ases(), false);
  for (const web::Site& s : catalog.sites()) {
    hosted[s.v4_as] = true;
    if (s.v6_from_round != web::kNever) hosted[s.v6_as] = true;
    if (const web::Hosting* h = catalog.relocation(s.id)) {
      hosted[h->v4_as] = true;
      if (h->v6_as != topo::kNoAs) hosted[h->v6_as] = true;
    }
  }
  return hosted;
}

/// Install the 6to4 route, then every hosting AS's routes in ascending
/// ASN order, into the VP RIBs. Every hosting AS must be among the
/// converged destinations.
void install_routes(core::World& world, const ConvergedRoutes& converged,
                    const std::vector<bool>& hosted) {
  // Counted serially, so plain tallies; added to the registry once at
  // the end (both are functions of the world alone — deterministic).
  std::uint64_t tables_built = converged.relay_tables;
  std::uint64_t routes_installed = 0;
  const AsGraph& g = world.graph;
  const ip::Ipv6Prefix six_to_four = ip::Ipv6Prefix::parse_or_throw("2002::/16");
  for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
    if (!converged.relay[v]) continue;
    world.vantage_points[v].rib.add_v6(six_to_four, *converged.relay[v]);
    ++routes_installed;
  }

  auto slot = converged.dests.begin();
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    if (!hosted[i]) continue;
    const Asn dest = static_cast<Asn>(i);
    slot = std::lower_bound(slot, converged.dests.end(), dest);
    V6MON_REQUIRE(slot != converged.dests.end() && *slot == dest,
                  "a catalog hosting AS is not a hosting candidate");
    const DestRoutes& dr =
        converged.routes[static_cast<std::size_t>(slot - converged.dests.begin())];
    const topo::AsNode& dn = g.node(dest);
    tables_built += dn.has_v6 ? 2u : 1u;
    for (std::size_t v = 0; v < world.vantage_points.size(); ++v) {
      bgp::Rib& rib = world.vantage_points[v].rib;
      if (dr.v4[v]) {
        for (const auto& p : dn.v4_prefixes) rib.add_v4(p, *dr.v4[v]);
        routes_installed += dn.v4_prefixes.size();
      }
      if (!dr.v6.empty() && dr.v6[v]) {
        for (const auto& p : dn.v6_prefixes) {
          // 6to4 space is covered by the anycast 2002::/16 route above.
          if (p.network().is_6to4()) continue;
          rib.add_v6(p, *dr.v6[v]);
          ++routes_installed;
        }
      }
    }
  }

  auto& metrics = obs::metrics();
  metrics.add(metrics.counter("rib.dest_tables"), tables_built);
  metrics.add(metrics.counter("rib.routes"), routes_installed);
}

}  // namespace

void set_build_work_probe(BuildWorkProbe probe) {
  build_work_probe.store(probe, std::memory_order_relaxed);
}

void build_ribs(core::World& world, std::size_t threads) {
  const obs::TraceSpan rib_span(obs::Stage::kRibBuild);
  core::ThreadPool pool(resolve_build_threads(threads));
  const std::vector<bool> hosted = hosting_ases(world.graph, world.catalog);
  std::vector<Asn> dests;
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    if (hosted[i]) dests.push_back(static_cast<Asn>(i));
  }
  install_routes(world,
                 converge_routes(world.graph, vantage_asns(world), std::move(dests), pool),
                 hosted);
}

core::World build_world(const WorldSpec& spec) {
  util::Rng rng(spec.seed);
  core::World world;

  util::Rng topo_rng = rng.child("topology");
  world.graph = topo::generate_topology(spec.topology, topo_rng);

  // Vantage points attach before addressing so they get prefixes too.
  util::Rng vp_rng = rng.child("vantage");
  for (const VantageSpec& vs : spec.vantage_points) {
    core::VantagePoint vp;
    vp.name = vs.name;
    vp.type = vs.type;
    vp.start_round = vs.start_round;
    vp.has_as_path = vs.has_as_path;
    vp.whitelisted = vs.whitelisted;
    vp.uses_dns_cache_supplement = vs.uses_dns_cache_supplement;
    vp.asn = attach_vantage_as(world.graph, vs, spec.topology, vp_rng);
    world.vantage_points.push_back(std::move(vp));
  }

  util::Rng addr_rng = rng.child("addresses");
  topo::assign_addresses(world.graph, spec.addresses, addr_rng);

  // Tunnels only add links and the catalog reads only AS nodes, so the
  // overlay goes first: the graph is frozen before both tasks below read it.
  if (spec.tunnels) {
    util::Rng tun_rng = rng.child("tunnels");
    apply_tunnel_overlay(world.graph, spec.tunnel_relays,
                         spec.tunnel_extra_latency_ms, spec.tunnel_bandwidth_factor,
                         tun_rng, spec.build_threads);
  }
  world.origins = topo::OriginMap::build(world.graph);

  web::CatalogParams cat_params = spec.catalog;
  cat_params.w6d_round = spec.w6d_round;
  world.w6d_round = spec.w6d_round;
  world.num_rounds = static_cast<std::uint32_t>(cat_params.num_rounds);

  // Fork/join: the route convergence toward every hosting candidate (the
  // catalog's destinations are a subset of them, known only once it is
  // done) runs on the pool while the catalog generates on the calling
  // thread, so the catalog's allocations stay in the caller's malloc
  // arena. Pool tasks must not throw, so each side parks its exception
  // for the join. With one build thread the convergence runs on the
  // caller after the catalog.
  std::exception_ptr failure[2];
  ConvergedRoutes converged;
  std::uint64_t rib_ns = 0;
  {
    core::ThreadPool pool(resolve_build_threads(spec.build_threads));
    const auto converge = [&] {
      try {
        const std::uint64_t t0 = obs::now_ns();
        converged = converge_routes(world.graph, vantage_asns(world),
                                    web::hosting_candidates(world.graph).all(), pool);
        rib_ns = obs::now_ns() - t0;
      } catch (...) {
        failure[1] = std::current_exception();
      }
    };
    const bool overlap = pool.thread_count() > 1;
    if (overlap) pool.submit(converge);
    try {
      note_build_work(BuildWork::kCatalog);
      util::Rng cat_rng = rng.child("catalog");
      world.catalog = web::SiteCatalog::generate(world.graph, cat_params, cat_rng);
    } catch (...) {
      failure[0] = std::current_exception();
    }
    if (overlap) {
      pool.wait_idle();  // before shutdown: the convergence still submits helpers
    } else {
      converge();
    }
  }
  for (const std::exception_ptr& e : failure) {
    if (e) std::rethrow_exception(e);
  }

  // rib_build spans the convergence and the install.
  const std::uint64_t t0 = obs::now_ns();
  install_routes(world, converged, hosting_ases(world.graph, world.catalog));
  obs::metrics().record_span(obs::Stage::kRibBuild, rib_ns + (obs::now_ns() - t0));
  return world;
}

}  // namespace v6mon::scenario
