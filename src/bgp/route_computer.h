#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ip/prefix.h"
#include "topo/as_graph.h"

namespace v6mon::bgp {

struct EdgeChange;
struct DeltaStats;

/// Class of the selected route at an AS, in *decreasing* preference order
/// per the Gao-Rexford economic model: routes learned from customers are
/// preferred over routes learned from peers over routes learned from
/// providers, regardless of AS-path length.
enum class RouteClass : std::uint8_t { kNone, kOrigin, kCustomer, kPeer, kProvider };

[[nodiscard]] constexpr const char* route_class_name(RouteClass c) {
  switch (c) {
    case RouteClass::kNone: return "none";
    case RouteClass::kOrigin: return "origin";
    case RouteClass::kCustomer: return "customer";
    case RouteClass::kPeer: return "peer";
    case RouteClass::kProvider: return "provider";
  }
  return "?";
}

/// One-family projection of the AS graph in CSR (compressed sparse row)
/// form: per AS, three runs of neighbor ASNs — its providers,
/// its peers, its customers — filtered down to the links the family
/// actually carries. Built in one O(V+E) pass and then shared — read-only
/// — by every compute_routes_to call for that family, so converging
/// thousands of destinations stops paying the per-edge link_in_family
/// lookup and the AsLink indirection, and parallel workers share one
/// cache-friendly structure. Each stage of the computation reads exactly
/// one role, so splitting by role removes the role test from every hot
/// loop and halves the edge to a bare 4-byte ASN. Each run keeps
/// AsGraph::adjacencies order (filtered), so route selection is
/// bit-identical to computing straight off the graph.
class FamilyView {
 public:
  FamilyView(const topo::AsGraph& graph, ip::Family family);

  /// Re-derive the runs of the `dirty` ASes from `graph` and keep every
  /// other AS's runs. Equals FamilyView(graph, family()) when the only
  /// links that joined or left the family since are incident to a dirty
  /// AS — the epoch engine's per-epoch update, far cheaper than a
  /// rebuild.
  void refresh(const topo::AsGraph& graph, std::span<const topo::Asn> dirty);

  [[nodiscard]] ip::Family family() const { return family_; }
  [[nodiscard]] std::size_t num_ases() const { return (bounds_.size() - 1) / 3; }

  /// Neighbors that are `asn`'s providers / peers / customers.
  [[nodiscard]] std::span<const topo::Asn> providers(topo::Asn asn) const {
    return run(3 * std::size_t{asn}, 1);
  }
  [[nodiscard]] std::span<const topo::Asn> peers(topo::Asn asn) const {
    return run(3 * std::size_t{asn} + 1, 1);
  }
  [[nodiscard]] std::span<const topo::Asn> customers(topo::Asn asn) const {
    return run(3 * std::size_t{asn} + 2, 1);
  }
  /// All three runs back to back: providers, then peers, then customers.
  [[nodiscard]] std::span<const topo::Asn> neighbors(topo::Asn asn) const {
    return run(3 * std::size_t{asn}, 3);
  }

 private:
  /// Append `asn`'s three runs, read off `graph`, to `neighbors` and
  /// record where they start in `bounds`.
  void append_runs(const topo::AsGraph& graph, topo::Asn asn,
                   std::vector<std::uint32_t>& bounds,
                   std::vector<topo::Asn>& neighbors) const;
  /// `runs` consecutive runs starting at run index `first`.
  [[nodiscard]] std::span<const topo::Asn> run(std::size_t first,
                                               std::size_t runs) const {
    return {neighbors_.data() + bounds_[first], bounds_[first + runs] - bounds_[first]};
  }

  ip::Family family_;
  /// size 3·num_ases + 1; run k (0 providers, 1 peers, 2 customers) of AS
  /// u is neighbors_[bounds_[3u+k], bounds_[3u+k+1]).
  std::vector<std::uint32_t> bounds_;
  std::vector<topo::Asn> neighbors_;
};

/// Best routes from *every* AS toward one destination AS, in one family.
///
/// BGP convergence is destination-rooted, so this is the natural unit of
/// computation: stage 1 propagates customer routes up provider chains,
/// stage 2 extends them one peer hop, stage 3 floods provider routes
/// downhill (a bucket queue over selected-route lengths: every hop adds
/// one, so a provider route is final when first assigned). Each stage
/// walks one FamilyView role run, and the whole table costs O(V + E) in
/// the edges that role touches. Selection prefers
/// customer > peer > provider, then shortest AS path, then a stable
/// per-(AS, neighbor, destination) hash — deterministic, but spreading
/// ties across neighbors the way router-id/route-age tie-breaks do in
/// the wild.
class RouteTable {
 public:
  RouteTable(topo::Asn dest, ip::Family family, std::size_t num_ases);

  [[nodiscard]] topo::Asn dest() const { return dest_; }
  [[nodiscard]] ip::Family family() const { return family_; }

  [[nodiscard]] bool reachable(topo::Asn src) const {
    return routes_[src].cls != RouteClass::kNone;
  }
  [[nodiscard]] RouteClass route_class(topo::Asn src) const { return routes_[src].cls; }
  /// AS-path length in edges (0 at the destination itself).
  [[nodiscard]] unsigned path_length(topo::Asn src) const { return routes_[src].length; }
  [[nodiscard]] topo::Asn next_hop(topo::Asn src) const { return routes_[src].next_hop; }

  /// Full AS_PATH from `src`: [first-hop, ..., dest]. Empty when src is
  /// the destination or has no route. Mirrors what `show ip bgp` would
  /// print at a router inside `src` (local AS excluded, origin included).
  [[nodiscard]] std::vector<topo::Asn> as_path(topo::Asn src) const;

  /// Byte-wise table equality — the oracle check of the epoch engine's
  /// incremental-equals-rebuild contract (bgp/delta.h).
  [[nodiscard]] bool operator==(const RouteTable&) const = default;

 private:
  friend RouteTable compute_routes_to(const topo::AsGraph&, ip::Family, topo::Asn);
  friend RouteTable compute_routes_to(const FamilyView&, topo::Asn);
  friend DeltaStats compute_routes_delta(const FamilyView&, RouteTable&,
                                         std::span<const EdgeChange>,
                                         std::vector<topo::Asn>*);

  /// One AS's selected route, packed in 8 bytes so that reading or
  /// writing it touches one cache line.
  struct Route {
    topo::Asn next_hop = topo::kNoAs;
    std::uint16_t length = 0;
    RouteClass cls = RouteClass::kNone;
    bool operator==(const Route&) const = default;
  };

  topo::Asn dest_;
  ip::Family family_;
  std::vector<Route> routes_;
};

/// Run the three-stage Gao-Rexford computation for one destination over a
/// prebuilt family view. Pure: reads only `view`, so tables for different
/// destinations can be computed concurrently against one shared view
/// (scenario::build_ribs fans them out on a pool).
[[nodiscard]] RouteTable compute_routes_to(const FamilyView& view, topo::Asn dest);

/// Convenience for one-off computations: builds the family view, then
/// delegates. Callers converging many destinations should build the
/// FamilyView once and use the overload above.
[[nodiscard]] RouteTable compute_routes_to(const topo::AsGraph& graph,
                                           ip::Family family, topo::Asn dest);

namespace detail {
/// Split evaluation of util::hash_combine(dest, "bgp-tie", index): the
/// (dest || "bgp-tie") FNV-1a prefix is loop-invariant per destination,
/// so compute_routes_to folds it once and finishes the stream per tie
/// candidate. tie_break_rank(tie_break_prefix(d), i) must equal
/// hash_combine(d, "bgp-tie", i) bit-for-bit (pinned by a test).
[[nodiscard]] std::uint64_t tie_break_prefix(std::uint64_t dest);
[[nodiscard]] std::uint64_t tie_break_rank(std::uint64_t prefix, std::uint64_t index);
}  // namespace detail

/// Verify a whole AS path is valley-free (up* [peer] down*) using only the
/// links carried by `family` — a pair of ASes may be connected by several
/// links with different roles (native + tunnel pseudo-link), and a step is
/// accepted if any same-family option keeps the path valid. Used by tests
/// and by debug assertions; a policy-routing bug would show up here first.
[[nodiscard]] bool is_valley_free(const topo::AsGraph& graph, ip::Family family,
                                  topo::Asn src,
                                  const std::vector<topo::Asn>& path);

}  // namespace v6mon::bgp
