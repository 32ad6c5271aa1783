#include "bgp/delta.h"

#include <algorithm>
#include <vector>

#include "util/contracts.h"

namespace v6mon::bgp {

using topo::Asn;
using topo::kNoAs;

namespace {

/// A candidate route during declarative re-selection. `rank` encodes the
/// Gao-Rexford class preference (0 customer, 1 peer, 2 provider, 4 no
/// route); comparison is lexicographic (rank, length, tie), exactly the
/// order the staged algorithm realizes.
struct Selection {
  int rank = 4;
  std::uint16_t length = 0;
  std::uint64_t tie = 0;
  Asn next_hop = kNoAs;

  [[nodiscard]] RouteClass cls() const {
    switch (rank) {
      case 0: return RouteClass::kCustomer;
      case 1: return RouteClass::kPeer;
      case 2: return RouteClass::kProvider;
      default: return RouteClass::kNone;
    }
  }
};

/// The Selection rank of a held route's class (the origin never competes).
int class_rank(RouteClass cls) {
  switch (cls) {
    case RouteClass::kCustomer: return 0;
    case RouteClass::kPeer: return 1;
    case RouteClass::kProvider: return 2;
    default: return 4;
  }
}

}  // namespace

DeltaStats compute_routes_delta(const FamilyView& view, RouteTable& table,
                                std::span<const EdgeChange> changes,
                                std::vector<Asn>* rerouted) {
  DeltaStats stats;
  if (changes.empty()) return stats;

  const std::size_t n = view.num_ases();
  const Asn dest = table.dest();
  V6MON_REQUIRE(table.family() == view.family(),
                "delta convergence needs the table's own family view");
  V6MON_REQUIRE(table.routes_.size() == n,
                "family view and route table disagree on the AS count");
  std::vector<RouteTable::Route>& routes = table.routes_;
  // An epoch re-converges far more tables than stay cached, so this one
  // arrives cold. Touching every endpoint's route up front overlaps the
  // cache misses that the seed checks below would otherwise take one by
  // one.
  for (const EdgeChange& ch : changes) {
    V6MON_REQUIRE(ch.a < n && ch.b < n, "edge change endpoint out of range");
    __builtin_prefetch(&routes[ch.a]);
    __builtin_prefetch(&routes[ch.b]);
  }

  const std::uint64_t tie_prefix =
      detail::tie_break_prefix(static_cast<std::uint64_t>(dest));
  auto tie_rank = [tie_prefix](Asn at, Asn via) {
    return detail::tie_break_rank(tie_prefix,
                                  (static_cast<std::uint64_t>(at) << 32) | via);
  };
  // Any length this large cannot appear in a fixpoint (support chains are
  // simple paths), so rejecting such candidates cannot lose a real route —
  // it only stops count-to-infinity chatter from growing unboundedly.
  const std::size_t max_len = std::min<std::size_t>(n - 1, 0xfffe);

  // ---- Route selection ---------------------------------------------------
  // Classes are tried in preference order (customer, peer, provider), one
  // FamilyView run each; the first class with a candidate wins outright,
  // so the rest are never read. Within a class the order is the view's
  // (AsGraph::adjacencies) order, and strict comparisons keep the first
  // of equal candidates — the order the staged algorithm realizes.
  auto downhill = [&](Asn nb) {
    return routes[nb].cls == RouteClass::kOrigin ||
           routes[nb].cls == RouteClass::kCustomer;
  };
  // Offer `best` the class-`rank` candidate x hears from nb, if it wins.
  auto consider = [&](Selection& best, Asn x, int rank, Asn nb) {
    const std::size_t cand_len = static_cast<std::size_t>(routes[nb].length) + 1;
    if (cand_len > max_len) return;
    const std::uint16_t len = static_cast<std::uint16_t>(cand_len);
    if (rank > best.rank || (best.rank == rank && len > best.length)) return;
    const std::uint64_t tie = tie_rank(x, nb);
    if (rank < best.rank || len < best.length || tie < best.tie) {
      best = Selection{rank, len, tie, nb};
    }
  };
  auto select = [&](Asn x) {
    Selection best;
    for (Asn nb : view.customers(x)) {  // customer routes
      if (downhill(nb)) consider(best, x, 0, nb);
    }
    if (best.rank != 4) return best;
    for (Asn nb : view.peers(x)) {  // valley-free: the peer's route is downhill
      if (downhill(nb)) consider(best, x, 1, nb);
    }
    if (best.rank != 4) return best;
    for (Asn nb : view.providers(x)) {  // providers export whatever they selected
      if (routes[nb].cls != RouteClass::kNone) consider(best, x, 2, nb);
    }
    return best;
  };
  // Does nb — x's customer, peer and/or provider, as flagged — offer x a
  // candidate that beats the route x holds? Over parallel links nb offers
  // the same length under each role, so its best offer is the lowest
  // eligible rank; tie ranks are only hashed for an exact (rank, length)
  // tie.
  auto improved_by = [&](Asn x, Asn nb, bool customer, bool peer, bool provider) {
    const RouteTable::Route& held = routes[x];
    if (held.cls == RouteClass::kOrigin) return false;
    int rank = 4;
    if ((customer || peer) && downhill(nb)) {
      rank = customer ? 0 : 1;
    } else if (provider && routes[nb].cls != RouteClass::kNone) {
      rank = 2;
    }
    const std::size_t len = static_cast<std::size_t>(routes[nb].length) + 1;
    if (rank == 4 || len > max_len) return false;
    const int held_rank = class_rank(held.cls);
    if (rank != held_rank) return rank < held_rank;
    if (len != held.length) return len < held.length;
    return nb != held.next_hop && tie_rank(x, nb) < tie_rank(x, held.next_hop);
  };
  auto contains = [](std::span<const Asn> run, Asn a) {
    return std::find(run.begin(), run.end(), a) != run.end();
  };

  // Most tables an epoch visits need no repair at all, so the per-AS
  // flags are only allocated once something is queued or invalidated.
  std::vector<char> queued;
  std::vector<Asn> work;
  auto is_queued = [&](Asn x) { return !queued.empty() && queued[x] != 0; };
  auto enqueue = [&](Asn x) {
    if (x == dest || is_queued(x)) return;
    if (queued.empty()) queued.assign(n, 0);
    queued[x] = 1;
    work.push_back(x);
  };

  // ---- Seed: invalidation closure over withdrawn support ----------------
  // Forcing a node to kNone before re-evaluating it (rather than merely
  // enqueueing) is load-bearing: a chain of routes that supported each
  // other through the removed edge must not survive as a self-consistent
  // island of stale state.
  std::vector<char> invalidated;
  std::vector<Asn> closure;
  auto invalidate = [&](Asn x) {
    if (x == dest || (!invalidated.empty() && invalidated[x] != 0)) return;
    if (invalidated.empty()) invalidated.assign(n, 0);
    invalidated[x] = 1;
    routes[x] = RouteTable::Route{};
    ++stats.invalidated;
    if (rerouted != nullptr) rerouted->push_back(x);
    closure.push_back(x);
    enqueue(x);
  };
  for (const EdgeChange& ch : changes) {
    if (ch.added) continue;
    // Conservative: the pair may still be connected by a parallel link,
    // but re-selection restores any route that is in fact still best.
    if (routes[ch.a].next_hop == ch.b) invalidate(ch.a);
    if (routes[ch.b].next_hop == ch.a) invalidate(ch.b);
  }
  while (!closure.empty()) {
    const Asn x = closure.back();
    closure.pop_back();
    // Every dependent of x still in the table routes *through* x, so it
    // is necessarily one of x's surviving view-neighbors.
    for (Asn nb : view.neighbors(x)) {
      if (routes[nb].next_hop == x) invalidate(nb);
    }
  }
  // The table is a fixpoint of the old view, so a removed link the
  // closure left alone carried no selected route, and an added link moves
  // an endpoint only if the other end's offer over it beats the held
  // route. Later changes reach the endpoints through the worklist.
  for (const EdgeChange& ch : changes) {
    if (!ch.added) continue;
    // What b is to a, over every link between them, read off the shorter
    // of the two adjacency runs.
    bool b_customer;
    bool b_peer;
    bool b_provider;
    if (view.neighbors(ch.a).size() <= view.neighbors(ch.b).size()) {
      b_customer = contains(view.customers(ch.a), ch.b);
      b_peer = contains(view.peers(ch.a), ch.b);
      b_provider = contains(view.providers(ch.a), ch.b);
    } else {
      b_customer = contains(view.providers(ch.b), ch.a);
      b_peer = contains(view.peers(ch.b), ch.a);
      b_provider = contains(view.customers(ch.b), ch.a);
    }
    if (!is_queued(ch.a) && improved_by(ch.a, ch.b, b_customer, b_peer, b_provider)) {
      enqueue(ch.a);
    }
    if (!is_queued(ch.b) && improved_by(ch.b, ch.a, b_provider, b_peer, b_customer)) {
      enqueue(ch.b);
    }
  }

  // ---- Re-converge the frontier -----------------------------------------
  const std::size_t round_budget = 2 * n + 64;
  std::vector<Asn> next;
  for (std::size_t round = 0; !work.empty(); ++round) {
    if (round >= round_budget) {
      // Count-to-infinity corner: rebuild from scratch. Same fixpoint,
      // so byte-identity with the oracle is preserved either way.
      stats.fell_back = true;
      table = compute_routes_to(view, dest);
      return stats;
    }
    std::sort(work.begin(), work.end());
    for (Asn x : work) queued[x] = 0;
    next.clear();
    for (Asn x : work) {
      ++stats.reevaluated;
      const Selection sel = select(x);
      const RouteTable::Route now{sel.next_hop, sel.length, sel.cls()};
      if (now == routes[x]) continue;
      const RouteTable::Route old = routes[x];
      routes[x] = now;
      ++stats.changed;
      if (rerouted != nullptr) rerouted->push_back(x);
      // A neighbor's selection reads x only through the candidate x offers
      // it — its providers and peers only while x's route is downhill, its
      // customers whenever x has a route — and only through that route's
      // length, never x's next hop. In a role whose offer moved, a
      // neighbor routing through x must re-select; any other neighbor
      // keeps its (still best) route unless x's new offer beats it.
      auto offer_moved = [&](bool offered_before, bool offered_now) {
        return offered_before != offered_now ||
               (offered_now && old.length != now.length);
      };
      auto requeue = [&](std::span<const Asn> run, bool customer, bool peer,
                         bool provider) {
        for (Asn nb : run) {
          if (nb == dest || queued[nb] != 0) continue;
          if (routes[nb].next_hop != x && !improved_by(nb, x, customer, peer, provider)) {
            continue;
          }
          queued[nb] = 1;
          next.push_back(nb);
        }
      };
      if (offer_moved(old.cls == RouteClass::kCustomer, now.cls == RouteClass::kCustomer)) {
        requeue(view.providers(x), /*customer=*/true, false, false);
        requeue(view.peers(x), false, /*peer=*/true, false);
      }
      if (offer_moved(old.cls != RouteClass::kNone, now.cls != RouteClass::kNone)) {
        requeue(view.customers(x), false, false, /*provider=*/true);
      }
    }
    work.swap(next);
  }

  V6MON_ENSURE(routes[dest].cls == RouteClass::kOrigin && routes[dest].length == 0,
               "the destination must keep its origin route");
  return stats;
}

}  // namespace v6mon::bgp
