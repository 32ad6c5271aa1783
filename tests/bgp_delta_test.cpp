// Oracle tests for the incremental route engine (bgp/delta.h): after any
// sequence of edge changes, compute_routes_delta applied to the old table
// must be *byte-identical* to compute_routes_to run from scratch on the
// post-change view — for every destination, across multiple epochs, in
// both families. This is the contract the epoch engine's determinism
// rests on (a single divergent tie-break would fan out into different
// AS paths, path characteristics and download speeds).

#include "bgp/delta.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgp/route_computer.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace v6mon::bgp {
namespace {

using topo::AsGraph;
using topo::Asn;
using topo::Region;
using topo::Relationship;
using topo::Tier;

topo::TopologyParams small_params() {
  topo::TopologyParams p;
  p.num_tier1 = 4;
  p.num_transit = 20;
  p.num_stub = 80;
  return p;
}

/// Every destination's delta-updated table equals a from-scratch rebuild
/// on `view`. `tables` holds the pre-change tables and is updated in
/// place (ready for the next epoch).
void expect_oracle(const FamilyView& view, std::vector<RouteTable>& tables,
                   const std::vector<EdgeChange>& changes) {
  for (RouteTable& table : tables) {
    const Asn dest = table.dest();
    const DeltaStats stats = compute_routes_delta(view, table, changes);
    const RouteTable fresh = compute_routes_to(view, dest);
    ASSERT_EQ(table, fresh) << "incremental != rebuild for dest " << dest
                            << " (invalidated=" << stats.invalidated
                            << " reevaluated=" << stats.reevaluated
                            << " fell_back=" << stats.fell_back << ")";
  }
}

std::vector<RouteTable> all_dest_tables(const FamilyView& view) {
  std::vector<RouteTable> tables;
  for (Asn d = 0; d < view.num_ases(); ++d) {
    tables.push_back(compute_routes_to(view, d));
  }
  return tables;
}

// --- IPv6: real graph mutations across three epochs ----------------------

TEST(BgpDelta, IncrementalMatchesRebuildAcrossEpochsV6) {
  util::Rng rng(42);
  AsGraph g = topo::generate_topology(small_params(), rng);

  FamilyView view(g, ip::Family::kIpv6);
  std::vector<RouteTable> tables = all_dest_tables(view);

  // Epoch 1: enable IPv6 on a batch of not-yet-v6 links between v6 ASes.
  std::vector<EdgeChange> changes;
  for (std::uint32_t id = 0; id < g.num_links() && changes.size() < 6; ++id) {
    const topo::AsLink& l = g.link(id);
    if (l.in_v6 || l.v6_tunnel) continue;
    if (!g.node(l.a).has_v6 || !g.node(l.b).has_v6) continue;
    g.enable_v6_on_link(id);
    changes.push_back({l.a, l.b, /*added=*/true});
  }
  ASSERT_FALSE(changes.empty()) << "topology has no v6-enable candidates";
  view = FamilyView(g, ip::Family::kIpv6);
  expect_oracle(view, tables, changes);

  // Epoch 2: lay tunnels (adds), creating removable v6 edges.
  changes.clear();
  std::vector<std::uint32_t> tunnel_ids;
  const Asn relay = g.ases_of_tier(Tier::kTier1).front();
  for (Asn a = 0; a < g.num_ases() && tunnel_ids.size() < 3; ++a) {
    if (g.node(a).tier != Tier::kStub || g.node(a).has_v6 || a == relay) continue;
    // One link per AS pair: skip islands already adjacent to the relay
    // in either family (a tunnel from the generator, or a native link).
    bool adjacent = false;
    for (const topo::Adjacency& adj : g.adjacencies(a)) {
      adjacent = adjacent || adj.neighbor == relay;
    }
    if (adjacent) continue;
    const std::uint32_t id = g.add_tunnel(relay, a, {}, 2, 15.0, 0.9);
    tunnel_ids.push_back(id);
    changes.push_back({relay, a, /*added=*/true});
  }
  ASSERT_FALSE(tunnel_ids.empty());
  view = FamilyView(g, ip::Family::kIpv6);
  // New-edge endpoints grow the table domain? No: AS count is fixed; the
  // tables were sized for all ASes from the start, so changes are legal.
  expect_oracle(view, tables, changes);

  // Epoch 3: retire one tunnel (edge removal; its island may go fully
  // unreachable — the count-to-infinity guard must converge to kNone) and
  // enable one more native link in the same batch.
  changes.clear();
  {
    const topo::AsLink& l = g.link(tunnel_ids.front());
    g.retire_tunnel(tunnel_ids.front());
    changes.push_back({l.a, l.b, /*added=*/false});
  }
  for (std::uint32_t id = 0; id < g.num_links(); ++id) {
    const topo::AsLink& l = g.link(id);
    if (l.in_v6 || l.v6_tunnel) continue;
    if (!g.node(l.a).has_v6 || !g.node(l.b).has_v6) continue;
    g.enable_v6_on_link(id);
    changes.push_back({l.a, l.b, /*added=*/true});
    break;
  }
  view = FamilyView(g, ip::Family::kIpv6);
  expect_oracle(view, tables, changes);
}

// --- IPv4: clone-variant graphs (the v4 link set is frozen in the real
// vocabulary, so the oracle drives the engine with hand-built pre/post
// graph pairs instead) ----------------------------------------------------

/// Clone `g` minus the links in `skip` (ids into g's link table).
AsGraph clone_without(const AsGraph& g, const std::vector<std::uint32_t>& skip) {
  AsGraph out;
  for (Asn a = 0; a < g.num_ases(); ++a) {
    const topo::AsNode& n = g.node(a);
    const Asn id = out.add_as(n.tier, n.region);
    out.node(id).has_v6 = n.has_v6;
  }
  for (std::uint32_t id = 0; id < g.num_links(); ++id) {
    bool skipped = false;
    for (const std::uint32_t s : skip) skipped = skipped || s == id;
    if (skipped) continue;
    const topo::AsLink& l = g.link(id);
    out.add_link(l.a, l.b, l.rel, l.in_v4, l.in_v6, l.metrics);
  }
  return out;
}

TEST(BgpDelta, IncrementalMatchesRebuildAcrossEpochsV4) {
  util::Rng rng(7);
  const AsGraph full = topo::generate_topology(small_params(), rng);

  // Pick removable v4 links whose endpoints stay connected (stub
  // multihoming and peering links are ideal; avoid a stub's only uplink —
  // though even disconnection must reproduce, pick a mix anyway).
  std::vector<std::uint32_t> removable;
  for (std::uint32_t id = 0; id < full.num_links() && removable.size() < 4; ++id) {
    if (full.link(id).rel == Relationship::kPeerPeer) removable.push_back(id);
  }
  ASSERT_GE(removable.size(), 4u);

  // Epoch 0 world: `full` minus all four links.
  AsGraph pre = clone_without(full, removable);
  FamilyView view(pre, ip::Family::kIpv4);
  std::vector<RouteTable> tables = all_dest_tables(view);

  // Epoch 1: two of the links appear.
  AsGraph mid = clone_without(full, {removable[2], removable[3]});
  std::vector<EdgeChange> changes;
  for (const std::uint32_t id : {removable[0], removable[1]}) {
    changes.push_back({full.link(id).a, full.link(id).b, /*added=*/true});
  }
  view = FamilyView(mid, ip::Family::kIpv4);
  expect_oracle(view, tables, changes);

  // Epoch 2: the other two appear.
  changes.clear();
  for (const std::uint32_t id : {removable[2], removable[3]}) {
    changes.push_back({full.link(id).a, full.link(id).b, /*added=*/true});
  }
  view = FamilyView(full, ip::Family::kIpv4);
  expect_oracle(view, tables, changes);

  // Epoch 3: all four vanish again in one batch (removal stress: the
  // invalidation closure must chase every dependent chain).
  changes.clear();
  for (const std::uint32_t id : removable) {
    changes.push_back({full.link(id).a, full.link(id).b, /*added=*/false});
  }
  view = FamilyView(pre, ip::Family::kIpv4);
  expect_oracle(view, tables, changes);
}

// --- Random churn: links of every role come and go in mixed batches -------

class RandomChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChurn, IncrementalMatchesRebuildEveryEpoch) {
  util::Rng rng(GetParam());
  const AsGraph full = topo::generate_topology(small_params(), rng);
  // A pool of toggling links of both relationships; each epoch flips a
  // random subset, so one batch mixes additions and removals.
  std::vector<std::uint32_t> pool;
  for (std::uint32_t id = 0; id < full.num_links(); ++id) {
    if (rng.chance(0.12)) pool.push_back(id);
  }
  ASSERT_GE(pool.size(), 8u);
  std::vector<char> present(pool.size(), 0);
  auto absent_links = [&] {
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (present[i] == 0) out.push_back(pool[i]);
    }
    return out;
  };
  FamilyView view(clone_without(full, absent_links()), ip::Family::kIpv4);
  std::vector<RouteTable> tables = all_dest_tables(view);
  for (int epoch = 0; epoch < 5; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    std::vector<EdgeChange> changes;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!rng.chance(0.3)) continue;
      present[i] ^= 1;
      const topo::AsLink& l = full.link(pool[i]);
      changes.push_back({l.a, l.b, /*added=*/present[i] != 0});
    }
    view = FamilyView(clone_without(full, absent_links()), ip::Family::kIpv4);
    expect_oracle(view, tables, changes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurn, ::testing::Values(11, 12, 13, 14, 15, 16));

// --- Edge cases -----------------------------------------------------------

TEST(BgpDelta, EmptyChangeListIsANoOp) {
  util::Rng rng(3);
  const AsGraph g = topo::generate_topology(small_params(), rng);
  const FamilyView view(g, ip::Family::kIpv4);
  RouteTable table = compute_routes_to(view, 0);
  const RouteTable before = table;
  const DeltaStats stats = compute_routes_delta(view, table, {});
  EXPECT_EQ(table, before);
  EXPECT_EQ(stats.changed, 0u);
  EXPECT_FALSE(stats.fell_back);
}

TEST(BgpDelta, RemovalDisconnectingTheDestinationConverges) {
  // s -- t -- d chain: removing t--d strands both s and t. The engine
  // must converge them to unreachable (no count-to-infinity) and match
  // the rebuild.
  AsGraph g;
  const Asn d = g.add_as(Tier::kStub, Region::kEurope);
  const Asn t = g.add_as(Tier::kTransit, Region::kEurope);
  const Asn s = g.add_as(Tier::kStub, Region::kEurope);
  g.add_link(t, d, Relationship::kProviderCustomer, true, true, {});
  g.add_link(t, s, Relationship::kProviderCustomer, true, true, {});

  FamilyView view(g, ip::Family::kIpv4);
  RouteTable table = compute_routes_to(view, d);
  ASSERT_TRUE(table.reachable(s));

  AsGraph post;
  post.add_as(Tier::kStub, Region::kEurope);
  post.add_as(Tier::kTransit, Region::kEurope);
  post.add_as(Tier::kStub, Region::kEurope);
  post.add_link(t, s, Relationship::kProviderCustomer, true, true, {});

  const FamilyView post_view(post, ip::Family::kIpv4);
  const std::vector<EdgeChange> changes = {{t, d, /*added=*/false}};
  compute_routes_delta(post_view, table, changes);
  const RouteTable fresh = compute_routes_to(post_view, d);
  EXPECT_EQ(table, fresh);
  EXPECT_FALSE(table.reachable(s));
  EXPECT_FALSE(table.reachable(t));
  EXPECT_TRUE(table.reachable(d));  // the origin itself always stays
}

}  // namespace
}  // namespace v6mon::bgp
