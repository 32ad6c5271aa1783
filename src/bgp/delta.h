#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bgp/route_computer.h"
#include "topo/as_graph.h"

namespace v6mon::bgp {

/// One undirected adjacency change in a family's edge set: the {a, b}
/// link became usable (`added`) or stopped being usable in the family
/// the view projects. A pair connected by several links (native + tunnel
/// pseudo-link) reports a change per link; the engine treats endpoint
/// invalidation conservatively, so over-reporting is safe.
struct EdgeChange {
  topo::Asn a = topo::kNoAs;
  topo::Asn b = topo::kNoAs;
  bool added = true;
};

/// Work accounting for one incremental convergence, surfaced through
/// core::WorldTimeline::epoch_stats() so tests and the BM_EpochAdvance
/// bench can assert the frontier actually stayed small.
struct DeltaStats {
  std::size_t invalidated = 0;   ///< Routes force-withdrawn by the closure.
  std::size_t reevaluated = 0;   ///< Selection re-runs (worklist pops).
  std::size_t changed = 0;       ///< Re-runs that altered the selected route.
  bool fell_back = false;        ///< Budget exhausted -> full recompute.
};

/// Incrementally re-converge `table` (a fixpoint of the *pre-change*
/// view) against `view` (the *post-change* edge set), given the edge
/// changes between them. On return `table` is byte-identical to
/// `compute_routes_to(view, table.dest())` — the staged Gao-Rexford
/// computation has a unique fixpoint (route preference is a strict
/// order and support cycles are length-contradictory), so any
/// convergent re-evaluation order lands on the same table; the oracle
/// test in tests/bgp_delta_test.cpp pins this per epoch.
///
/// Algorithm: withdrawn next-hops seed an invalidation closure over the
/// dependents frontier (y depends on x iff next_hop(y) == x, and y is
/// then a view-neighbor of x, so no reverse index is needed); the
/// closure plus every added-link endpoint whose held route the new link
/// beats form a worklist that is re-run through the declarative route
/// selection in synchronous rounds until quiescent. A changed route
/// re-queues only the neighbors whose candidate from it moved: its
/// customers when its length or reachability moved, its providers and
/// peers when its downhill (customer-class) offer did. Cost is
/// proportional to the perturbed region's degree sum, not the graph, and
/// a table the changes cannot improve is left after O(|changes|) probes. A round budget of 2·|AS|+64 guards the
/// count-to-infinity corner (a withdrawal that disconnects a region);
/// on exhaustion the table is rebuilt from scratch — still
/// byte-identical, just not incremental (stats.fell_back).
///
/// When `rerouted` is given, every AS whose route was withdrawn or
/// re-selected is appended to it (possibly more than once), so a caller
/// can tell which next-hop chains moved: a chain none of whose ASes is
/// listed is the one it was before. After a fallback the list is
/// incomplete — treat every chain as moved.
DeltaStats compute_routes_delta(const FamilyView& view, RouteTable& table,
                                std::span<const EdgeChange> changes,
                                std::vector<topo::Asn>* rerouted = nullptr);

}  // namespace v6mon::bgp
