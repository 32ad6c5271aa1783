#include "topo/generator.h"

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "topo/address_plan.h"
#include "util/error.h"

namespace v6mon::topo {
namespace {

TopologyParams small_params() {
  TopologyParams p;
  p.num_tier1 = 5;
  p.num_transit = 40;
  p.num_stub = 200;
  return p;
}

/// IPv4 reachability via plain (relationship-blind) BFS — the generated
/// underlay must be one connected component.
bool v4_connected(const AsGraph& g) {
  if (g.num_ases() == 0) return true;
  std::vector<char> seen(g.num_ases(), 0);
  std::queue<Asn> q;
  q.push(0);
  seen[0] = 1;
  std::size_t visited = 1;
  while (!q.empty()) {
    const Asn u = q.front();
    q.pop();
    for (const Adjacency& adj : g.adjacencies(u)) {
      if (!g.link_in_family(adj.link_id, ip::Family::kIpv4)) continue;
      if (seen[adj.neighbor]) continue;
      seen[adj.neighbor] = 1;
      ++visited;
      q.push(adj.neighbor);
    }
  }
  return visited == g.num_ases();
}

TEST(Generator, ProducesRequestedCounts) {
  util::Rng rng(1);
  const auto p = small_params();
  const AsGraph g = generate_topology(p, rng);
  EXPECT_EQ(g.num_ases(), p.num_tier1 + p.num_transit + p.num_stub + p.num_cdn);
  EXPECT_EQ(g.ases_of_tier(Tier::kTier1).size(), p.num_tier1);
  EXPECT_EQ(g.ases_of_tier(Tier::kTransit).size(), p.num_transit);
  EXPECT_EQ(g.ases_of_tier(Tier::kStub).size(), p.num_stub + p.num_cdn);
  std::size_t cdns = 0;
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsNode& n = g.node(static_cast<Asn>(i));
    if (n.is_cdn) {
      ++cdns;
      EXPECT_FALSE(n.has_v6);  // 2011 CDNs speak no IPv6
      EXPECT_EQ(n.tier, Tier::kStub);
    }
  }
  EXPECT_EQ(cdns, p.num_cdn);
}

TEST(Generator, CdnsArePeeredWidely) {
  util::Rng rng(16);
  TopologyParams p = small_params();
  p.cdn_transit_peering = 0.5;
  const AsGraph g = generate_topology(p, rng);
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsNode& n = g.node(static_cast<Asn>(i));
    if (!n.is_cdn) continue;
    std::size_t peers = 0;
    bool has_provider = false;
    for (const Adjacency& adj : g.adjacencies(n.asn)) {
      if (adj.role == Role::kPeer) ++peers;
      if (adj.role == Role::kProvider) has_provider = true;
    }
    EXPECT_TRUE(has_provider);
    EXPECT_GT(peers, p.num_transit / 4);
  }
}

TEST(Generator, Tier1CliqueIsFullPeerMesh) {
  util::Rng rng(2);
  const auto p = small_params();
  const AsGraph g = generate_topology(p, rng);
  const auto t1 = g.ases_of_tier(Tier::kTier1);
  for (Asn a : t1) {
    std::set<Asn> peers;
    for (const Adjacency& adj : g.adjacencies(a)) {
      if (adj.role == Role::kPeer && g.node(adj.neighbor).tier == Tier::kTier1) {
        peers.insert(adj.neighbor);
      }
    }
    EXPECT_EQ(peers.size(), t1.size() - 1) << "tier1 AS" << a;
  }
}

TEST(Generator, V4Connected) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    util::Rng rng(seed);
    const AsGraph g = generate_topology(small_params(), rng);
    EXPECT_TRUE(v4_connected(g)) << "seed " << seed;
  }
}

TEST(Generator, EveryNonTier1HasProvider) {
  util::Rng rng(6);
  const AsGraph g = generate_topology(small_params(), rng);
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsNode& n = g.node(static_cast<Asn>(i));
    if (n.tier == Tier::kTier1) continue;
    bool has_provider = false;
    for (const Adjacency& adj : g.adjacencies(n.asn)) {
      if (adj.role == Role::kProvider) has_provider = true;
    }
    EXPECT_TRUE(has_provider) << "AS" << n.asn << " tier " << tier_name(n.tier);
  }
}

TEST(Generator, Tier1HasNoProviders) {
  util::Rng rng(7);
  const AsGraph g = generate_topology(small_params(), rng);
  for (Asn a : g.ases_of_tier(Tier::kTier1)) {
    for (const Adjacency& adj : g.adjacencies(a)) {
      EXPECT_NE(adj.role, Role::kProvider) << "tier1 AS" << a << " has a provider";
    }
  }
}

TEST(Generator, DeterministicForSameSeed) {
  util::Rng r1(42), r2(42);
  const AsGraph a = generate_topology(small_params(), r1);
  const AsGraph b = generate_topology(small_params(), r2);
  ASSERT_EQ(a.num_ases(), b.num_ases());
  ASSERT_EQ(a.num_links(), b.num_links());
  for (std::uint32_t i = 0; i < a.num_links(); ++i) {
    EXPECT_EQ(a.link(i).a, b.link(i).a);
    EXPECT_EQ(a.link(i).b, b.link(i).b);
    EXPECT_EQ(a.link(i).in_v6, b.link(i).in_v6);
    EXPECT_DOUBLE_EQ(a.link(i).metrics.latency_ms, b.link(i).metrics.latency_ms);
  }
  for (std::size_t i = 0; i < a.num_ases(); ++i) {
    EXPECT_EQ(a.node(static_cast<Asn>(i)).has_v6, b.node(static_cast<Asn>(i)).has_v6);
  }
}

TEST(Generator, V6AdoptionTracksTierProbabilities) {
  util::Rng rng(8);
  TopologyParams p = small_params();
  p.num_stub = 1500;
  const AsGraph g = generate_topology(p, rng);
  std::size_t stub_v6 = 0;
  for (Asn a : g.ases_of_tier(Tier::kStub)) {
    if (!g.node(a).is_cdn) stub_v6 += g.node(a).has_v6 ? 1u : 0u;
  }
  const double frac = static_cast<double>(stub_v6) / static_cast<double>(p.num_stub);
  EXPECT_NEAR(frac, p.v6.stub_adoption, 0.05);
}

TEST(Generator, V6LinksOnlyBetweenV6Ases) {
  util::Rng rng(9);
  const AsGraph g = generate_topology(small_params(), rng);
  for (std::uint32_t i = 0; i < g.num_links(); ++i) {
    const AsLink& l = g.link(i);
    if (l.in_v6) {
      EXPECT_TRUE(g.node(l.a).has_v6 && g.node(l.b).has_v6);
    }
  }
}

TEST(Generator, PeeringParityKnobMonotone) {
  // Higher p2p_parity must produce at least as many v6 peer links.
  TopologyParams low = small_params();
  low.v6.p2p_parity = 0.1;
  TopologyParams high = small_params();
  high.v6.p2p_parity = 0.95;
  util::Rng r1(10), r2(10);
  const AsGraph gl = generate_topology(low, r1);
  const AsGraph gh = generate_topology(high, r2);
  auto count_v6_peer = [](const AsGraph& g) {
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < g.num_links(); ++i) {
      const AsLink& l = g.link(i);
      if (l.in_v6 && l.rel == Relationship::kPeerPeer) ++n;
    }
    return n;
  };
  EXPECT_GT(count_v6_peer(gh), count_v6_peer(gl));
}

TEST(Generator, LinkMetricsWithinConfiguredRanges) {
  util::Rng rng(11);
  const auto p = small_params();
  const AsGraph g = generate_topology(p, rng);
  for (std::uint32_t i = 0; i < g.num_links(); ++i) {
    const AsLink& l = g.link(i);
    // CDN peering is POP-local by design: latency ignores nominal regions.
    if (g.node(l.a).is_cdn || g.node(l.b).is_cdn) continue;
    const bool same_region = g.node(l.a).region == g.node(l.b).region;
    // Peering links are IX shortcuts: latency scaled by peer_latency_factor.
    const double scale =
        l.rel == Relationship::kPeerPeer ? p.peer_latency_factor : 1.0;
    if (same_region) {
      EXPECT_GE(l.metrics.latency_ms, p.latency_same_region_lo * scale);
      EXPECT_LE(l.metrics.latency_ms, p.latency_same_region_hi * scale);
    } else {
      EXPECT_GE(l.metrics.latency_ms, p.latency_cross_region_lo * scale);
      EXPECT_LE(l.metrics.latency_ms, p.latency_cross_region_hi * scale);
    }
    EXPECT_GT(l.metrics.bandwidth_kBps, 0.0);
  }
}

TEST(Generator, RejectsDegenerateParams) {
  util::Rng rng(12);
  TopologyParams p = small_params();
  p.num_tier1 = 1;
  EXPECT_THROW(generate_topology(p, rng), v6mon::ConfigError);
  p = small_params();
  p.stub_providers_min = 0;
  EXPECT_THROW(generate_topology(p, rng), v6mon::ConfigError);
}

TEST(AddressPlan, AssignsUniquePrefixes) {
  util::Rng rng(13);
  AsGraph g = generate_topology(small_params(), rng);
  assign_addresses(g, {}, rng);
  std::set<std::string> v4_seen, v6_seen;
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsNode& n = g.node(static_cast<Asn>(i));
    ASSERT_EQ(n.v4_prefixes.size(), 1u);
    EXPECT_TRUE(v4_seen.insert(n.v4_prefixes[0].to_string()).second);
    if (n.has_v6) {
      ASSERT_EQ(n.v6_prefixes.size(), 1u);
      EXPECT_TRUE(v6_seen.insert(n.v6_prefixes[0].to_string()).second);
    } else {
      EXPECT_TRUE(n.v6_prefixes.empty());
    }
  }
}

TEST(AddressPlan, SixToFourPrefixesDeriveFromV4) {
  util::Rng rng(14);
  AsGraph g = generate_topology(small_params(), rng);
  AddressPlanParams app;
  app.six_to_four_fraction = 0.5;  // make them common for the test
  assign_addresses(g, app, rng);
  std::size_t six_to_four = 0;
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsNode& n = g.node(static_cast<Asn>(i));
    if (n.v6_prefixes.empty()) continue;
    if (n.v6_prefixes[0].network().is_6to4()) {
      ++six_to_four;
      EXPECT_EQ(n.v6_prefixes[0].network().embedded_6to4_v4(),
                n.v4_prefixes[0].network());
      EXPECT_EQ(n.v6_prefixes[0].length(), 48u);
    }
  }
  EXPECT_GT(six_to_four, 0u);
}

TEST(OriginMap, ResolvesHostAddressesToOwningAs) {
  util::Rng rng(15);
  AsGraph g = generate_topology(small_params(), rng);
  assign_addresses(g, {}, rng);
  const OriginMap om = OriginMap::build(g);
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsNode& n = g.node(static_cast<Asn>(i));
    const auto v4_host = ip::offset_address(n.v4_prefixes[0].network(), 7, 32);
    ASSERT_TRUE(om.origin_v4(v4_host).has_value());
    EXPECT_EQ(*om.origin_v4(v4_host), n.asn);
    if (n.has_v6) {
      const auto v6_host = ip::offset_address(n.v6_prefixes[0].network(), 7, 128);
      ASSERT_TRUE(om.origin_v6(v6_host).has_value());
      EXPECT_EQ(*om.origin_v6(v6_host), n.asn);
    }
  }
  EXPECT_FALSE(om.origin_v4(ip::Ipv4Address::parse_or_throw("8.8.8.8")).has_value());
  EXPECT_FALSE(om.origin_v6(ip::Ipv6Address::parse_or_throw("fe80::1")).has_value());
}

// The epoch engine updates the origin map one prefix at a time; after any
// mix of announcements (including one shared by two ASes) and
// withdrawals, lookups must answer exactly as a fresh build's do.
TEST(OriginMap, RefreshV6MatchesRebuild) {
  util::Rng rng(16);
  AsGraph g = generate_topology(small_params(), rng);
  assign_addresses(g, {}, rng);
  OriginMap om = OriginMap::build(g);
  std::vector<Asn> v6_ases;
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    if (g.node(static_cast<Asn>(i)).has_v6) v6_ases.push_back(static_cast<Asn>(i));
  }
  ASSERT_GE(v6_ases.size(), 3u);
  const auto extra = ip::Ipv6Prefix::parse_or_throw("2001:db8:77::/48");
  const auto shared = ip::Ipv6Prefix::parse_or_throw("2001:db8:78::/48");
  const Asn a = v6_ases[0];
  const Asn b = v6_ases[1];
  const Asn c = v6_ases[2];
  const auto host = [](const ip::Ipv6Prefix& p) {
    return ip::offset_address(p.network(), 9, 128);
  };
  auto expect_as_built = [&] {
    const OriginMap fresh = OriginMap::build(g);
    for (const auto& p : {extra, shared, g.node(c).v6_prefixes.front()}) {
      EXPECT_EQ(om.origin_v6(host(p)), fresh.origin_v6(host(p)));
    }
  };
  g.node(a).v6_prefixes.push_back(extra);  // announce
  om.refresh_v6(g, extra);
  expect_as_built();
  g.node(b).v6_prefixes.push_back(shared);  // one prefix, two announcers
  g.node(c).v6_prefixes.push_back(shared);
  om.refresh_v6(g, shared);
  expect_as_built();
  g.node(c).v6_prefixes.pop_back();  // withdraw one of them
  om.refresh_v6(g, shared);
  expect_as_built();
  g.node(a).v6_prefixes.pop_back();  // withdraw the last announcer
  om.refresh_v6(g, extra);
  expect_as_built();
  EXPECT_FALSE(om.origin_v6(host(extra)).has_value());
}

}  // namespace
}  // namespace v6mon::topo
