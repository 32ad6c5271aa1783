#include "bgp/route_computer.h"

#include <cassert>
#include <string_view>

#include "util/contracts.h"
#include "util/error.h"
#include "util/rng.h"

namespace v6mon::bgp {

using topo::Adjacency;
using topo::AsGraph;
using topo::Asn;
using topo::kNoAs;
using topo::Role;

namespace detail {

std::uint64_t tie_break_prefix(std::uint64_t dest) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(dest >> (8 * i)));
  for (char c : std::string_view("bgp-tie")) mix_byte(static_cast<unsigned char>(c));
  return h;
}

std::uint64_t tie_break_rank(std::uint64_t prefix, std::uint64_t index) {
  std::uint64_t h = prefix;
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<unsigned char>(index >> (8 * i));
    h *= 1099511628211ULL;
  }
  // splitmix64 finisher, exactly as util::hash_combine.
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace detail

RouteTable::RouteTable(Asn dest, ip::Family family, std::size_t num_ases)
    : dest_(dest),
      family_(family),
      routes_(num_ases) {}

std::vector<Asn> RouteTable::as_path(Asn src) const {
  std::vector<Asn> path;
  if (src == dest_ || routes_[src].cls == RouteClass::kNone) return path;
  path.reserve(routes_[src].length);
  Asn cur = src;
  while (cur != dest_) {
    const Asn nh = routes_[cur].next_hop;
    if (nh == kNoAs || path.size() > routes_.size()) {
      throw Error("corrupt route table: broken next-hop chain");
    }
    path.push_back(nh);
    cur = nh;
  }
  V6MON_ENSURE(!path.empty() && path.back() == dest_,
               "AS_PATH must terminate at the destination");
  V6MON_ENSURE(path.size() == routes_[src].length,
               "selected route length disagrees with the next-hop chain");
  return path;
}

FamilyView::FamilyView(const AsGraph& graph, ip::Family family)
    : family_(family) {
  const std::size_t n = graph.num_ases();
  bounds_.resize(3 * n + 1);
  for (Asn u = 0; u < n; ++u) append_runs(graph, u, bounds_, neighbors_);
  bounds_[3 * n] = static_cast<std::uint32_t>(neighbors_.size());
}

void FamilyView::refresh(const AsGraph& graph, std::span<const Asn> dirty) {
  const std::size_t n = num_ases();
  std::vector<char> is_dirty(n, 0);
  for (Asn u : dirty) is_dirty[u] = 1;
  std::vector<std::uint32_t> bounds(3 * n + 1);
  std::vector<Asn> neighbors;
  neighbors.reserve(neighbors_.size() + 2 * dirty.size());
  for (Asn u = 0; u < n; ++u) {
    if (is_dirty[u] != 0) {
      append_runs(graph, u, bounds, neighbors);
      continue;
    }
    const std::size_t first = 3 * std::size_t{u};
    for (std::size_t k = 0; k < 3; ++k) {
      bounds[first + k] = static_cast<std::uint32_t>(neighbors.size()) +
                          (bounds_[first + k] - bounds_[first]);
    }
    neighbors.insert(neighbors.end(), neighbors_.begin() + bounds_[first],
                     neighbors_.begin() + bounds_[first + 3]);
  }
  bounds[3 * n] = static_cast<std::uint32_t>(neighbors.size());
  bounds_.swap(bounds);
  neighbors_.swap(neighbors);
}

void FamilyView::append_runs(const AsGraph& graph, Asn asn,
                             std::vector<std::uint32_t>& bounds,
                             std::vector<Asn>& neighbors) const {
  constexpr Role kRunRoles[3] = {Role::kProvider, Role::kPeer, Role::kCustomer};
  for (std::size_t k = 0; k < 3; ++k) {
    bounds[3 * std::size_t{asn} + k] = static_cast<std::uint32_t>(neighbors.size());
    for (const Adjacency& adj : graph.adjacencies(asn)) {
      if (adj.role == kRunRoles[k] && graph.link_in_family(adj.link_id, family_)) {
        neighbors.push_back(adj.neighbor);
      }
    }
  }
}

RouteTable compute_routes_to(const AsGraph& graph, ip::Family family, Asn dest) {
  return compute_routes_to(FamilyView(graph, family), dest);
}

RouteTable compute_routes_to(const FamilyView& view, Asn dest) {
  const std::size_t n = view.num_ases();
  if (dest >= n) throw ConfigError("compute_routes_to: destination out of range");
  RouteTable t(dest, view.family(), n);

  // Final BGP tie-break between equal-preference, equal-length candidates.
  // Real routers fall back to router-id / route age — arbitrary but
  // stable per (AS, neighbor, destination). A deterministic hash models
  // that; lowest-ASN would instead make one provider win *every* tie,
  // which no real multi-homed network observes. The hash is family-blind
  // on purpose: a dual-stack router applies the same preferences to both
  // families, so IPv6 follows the IPv4 choice whenever the IPv6 topology
  // still contains it — path divergence then reflects genuinely missing
  // IPv6 adjacencies, not coin flips.
  // hash_combine(dest, "bgp-tie", idx) mixes (dest || "bgp-tie" || idx)
  // byte-wise; the first fifteen bytes are loop-invariant, and tie_rank is
  // the hottest scalar op in the whole RIB build — fold them once and
  // continue the FNV-1a stream per candidate. Bit-identical by
  // construction (route_computer_test pins this against hash_combine).
  const std::uint64_t tie_prefix =
      detail::tie_break_prefix(static_cast<std::uint64_t>(dest));
  auto tie_rank = [tie_prefix](Asn at, Asn via) {
    return detail::tie_break_rank(tie_prefix,
                                  (static_cast<std::uint64_t>(at) << 32) | via);
  };

  t.routes_[dest].cls = RouteClass::kOrigin;

  // Every hop adds exactly one to the length, and each stage below visits
  // the exporting ASes in order of their selected length — a bucket
  // queue, where Dijkstra's heap is unnecessary. An AS's first offer is
  // therefore final in length, and a later offer of the same class and
  // length can only win the tie-break. The winner is the minimum tie
  // rank whatever the visiting order inside a length, so each stage is
  // free to touch only the role run it reads, and only at ASes that hold
  // a route to export.
  auto offer = [&](Asn x, RouteClass cls, std::uint16_t len, Asn via,
                   std::vector<Asn>& taken) {
    RouteTable::Route& r = t.routes_[x];
    if (r.cls == RouteClass::kNone) {
      r = RouteTable::Route{via, len, cls};
      taken.push_back(x);
    } else if (r.cls == cls && r.length == len &&
               tie_rank(x, via) < tie_rank(x, r.next_hop)) {
      r.next_hop = via;
    }
  };
  auto next_len = [&](Asn u) {
    return static_cast<std::uint16_t>(t.routes_[u].length + 1);
  };

  // ---- Stage 1: customer routes -----------------------------------------
  // A route announced by the destination climbs provider chains: every AS
  // on an all-downhill path to `dest` selects a customer route. BFS from
  // the destination over customer->provider edges; `customer_routes` is
  // the FIFO queue, so it ends up ordered by length.
  std::vector<Asn> customer_routes{dest};
  for (std::size_t i = 0; i < customer_routes.size(); ++i) {
    const Asn u = customer_routes[i];
    for (Asn p : view.providers(u)) {  // u's providers hear the route
      offer(p, RouteClass::kCustomer, next_len(u), u, customer_routes);
    }
  }

  // ---- Stage 2: peer routes ----------------------------------------------
  // An AS without a customer route can reach `dest` through a peer that
  // has one (valley-free: a peer edge may only be followed by downhill
  // edges — which a customer route is made of). Peering is symmetric, so
  // walking the peer runs of the customer routes in length order finds
  // every peer route, again ordered by length.
  std::vector<Asn> peer_routes;
  for (Asn y : customer_routes) {
    for (Asn x : view.peers(y)) offer(x, RouteClass::kPeer, next_len(y), y, peer_routes);
  }

  // ---- Stage 3: provider routes -------------------------------------------
  // Providers export their *selected* route (whatever its class) to
  // customers, and those provider routes chain further down. Every AS
  // already holding a customer/peer route is a fixed seed (class
  // preference dominates, so no provider route can displace it). Level
  // `len` exports the seeds of that length, merged from the two
  // length-ordered lists, and the provider routes taken one level up.
  std::vector<Asn> level_routes;  // provider routes of the current length
  std::vector<Asn> next_routes;
  auto export_down = [&](Asn u) {
    for (Asn c : view.customers(u)) {  // u exports to its customers
      offer(c, RouteClass::kProvider, next_len(u), u, next_routes);
    }
  };
  std::size_t ci = 0;
  std::size_t pi = 0;
  for (std::size_t len = 0; ci < customer_routes.size() ||
                            pi < peer_routes.size() || !level_routes.empty();
       ++len) {
    next_routes.clear();
    for (; ci < customer_routes.size() && t.routes_[customer_routes[ci]].length == len;
         ++ci) {
      export_down(customer_routes[ci]);
    }
    for (; pi < peer_routes.size() && t.routes_[peer_routes[pi]].length == len; ++pi) {
      export_down(peer_routes[pi]);
    }
    for (Asn u : level_routes) export_down(u);
    level_routes.swap(next_routes);
  }

  V6MON_ENSURE(t.routes_[dest].cls == RouteClass::kOrigin && t.routes_[dest].length == 0,
               "the destination must keep its origin route");
  return t;
}

namespace {

/// Roles `to` can play relative to `from` across the from-to links carried
/// by the given family. A pair of ASes can be connected by more than one
/// link in a family (e.g. a native relationship link plus a v6 tunnel
/// pseudo-link), so this returns every distinct option.
struct StepRoles {
  bool provider = false;
  bool peer = false;
  bool customer = false;
  [[nodiscard]] bool any() const { return provider || peer || customer; }
};

StepRoles step_roles(const AsGraph& graph, ip::Family family, Asn from, Asn to) {
  StepRoles roles;
  for (const Adjacency& adj : graph.adjacencies(from)) {
    if (adj.neighbor != to) continue;
    if (!graph.link_in_family(adj.link_id, family)) continue;
    switch (adj.role) {
      case Role::kProvider: roles.provider = true; break;
      case Role::kPeer: roles.peer = true; break;
      case Role::kCustomer: roles.customer = true; break;
    }
  }
  return roles;
}

}  // namespace

bool is_valley_free(const AsGraph& graph, ip::Family family, Asn src,
                    const std::vector<Asn>& path) {
  if (path.empty()) return true;
  // Phases: 0 = climbing (up edges), 1 = after the single peer edge,
  // 2 = descending (down edges only). Legality is monotone in the phase
  // (everything legal at phase 1/2 is legal at phase 0), so when a step
  // has several role options the greedy choice — the one leaving the
  // smallest phase — never rules out a viable continuation.
  int phase = 0;
  Asn prev = src;
  for (Asn cur : path) {
    const StepRoles roles = step_roles(graph, family, prev, cur);
    if (!roles.any()) return false;  // path uses a non-existent adjacency
    if (roles.provider && phase == 0) {
      // uphill: stay in phase 0
    } else if (roles.peer && phase == 0) {
      phase = 1;
    } else if (roles.customer) {
      phase = 2;  // downhill
    } else {
      return false;
    }
    prev = cur;
  }
  return true;
}

}  // namespace v6mon::bgp
