//===- coalescing/ChordalStrategy.h - Theorem 5 as a coalescer --*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coalescing strategy the paper proposes after Theorem 5 ("we could
/// design an incremental conservative coalescing strategy for chordal
/// graphs"): process affinities by decreasing weight; for each, decide
/// optimally (in polynomial time) whether the current chordal graph admits
/// a k-coloring identifying the two endpoints, and if so merge the whole
/// interval chain produced by the decision procedure. Because the chain's
/// subtrees tile the clique-tree path disjointly, the quotient is again
/// chordal with an unchanged clique number, so the procedure can iterate.
///
/// As the paper notes, the artificial chain merges "may prevent coalescing
/// more important affinities afterwards" -- the strategy is per-affinity
/// optimal, not globally optimal (that problem is NP-complete, Theorem 3).
///
/// The driver computes one perfect elimination order per graph it decides
/// on (the input, then each committed quotient), asserts on it that the
/// graph is chordal with clique number at most k, and builds that graph's
/// clique tree from it. It builds no witness coloring: a chordal graph with
/// clique number at most k is k-colorable, so the quotient's check already
/// shows a k-coloring that gives the whole merged chain one color, which is
/// all a witness would show. No invariant goes unchecked on the driver's
/// path; the one-shot decisions in ChordalIncremental.h still build and
/// check witnesses for the tests and the fuzz oracles.
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_CHORDALSTRATEGY_H
#define COALESCING_CHORDALSTRATEGY_H

#include "coalescing/Problem.h"
#include "coalescing/Telemetry.h"
#include "support/CancelToken.h"

namespace rc {

/// Which interval chain the strategy merges for each feasible affinity.
enum class ChordalChain {
  /// Any chain, found by BFS marking (chordalIncrementalCoalescing); the
  /// `chordal-thm5` strategy.
  Any,
  /// The chain with the fewest slack intervals, then the fewest real
  /// merges, found by the clique-tree DP (chordalIncrementalDP); the
  /// `exact-chordal-dp` strategy.
  FewestMerges,
};

/// Result of the chordal Theorem 5 strategy.
///
/// Every feasible affinity's chain is merged: the quotient stays chordal
/// even when the chain threads slack slots (GapFree false), which
/// chordalCoalesce asserts after each merge. The argument works in the
/// clique tree T of the current graph; P is the tree path the chain tiles.
///  - Let W be the union of the chain vertices' subtrees, and W+ be W plus
///    the chain's slack nodes. The merged vertex s is adjacent to v iff T_v
///    meets W. W+ is connected, because the chain tiles P, so with W+ in
///    place of W the quotient would be a subtree graph, hence chordal.
///  - So a chordless cycle of length >= 4 through s (cycles avoiding s are
///    cycles of G) has a vertex c, not adjacent to s, whose subtree holds a
///    slack node p of the chain. T_c misses W, so its interval on P lies
///    inside the run of slack nodes around p.
///  - Cycle vertices holding p are pairwise adjacent, so only c and one
///    neighbour of c can hold p. From c's other neighbour the cycle reaches
///    s without holding p, so it stays in one component K of T - p, and W
///    meets K. A chain subtree meets P away from p, so K holds a path
///    neighbour of p, and T_c, which holds p and meets K, holds it too.
///  - c's interval therefore covers two or more slack nodes, and both rules
///    would have put c in their place: BFS marking takes the fewest
///    intervals, the DP the fewest slack intervals. A rule that may pick
///    any chain can break chordality (the path 0-1-2-3-4 at k = 3 with the
///    all-slack chain for (0, 4) leaves a chordless 4-cycle).
struct ChordalStrategyResult {
  CoalescingSolution Solution;
  CoalescingStats Stats;
  /// Affinities whose optimal incremental decision was "impossible".
  unsigned InfeasibleAffinities = 0;
  /// Extra (non-affinity) vertices merged through chain merges.
  unsigned ChainMerges = 0;
  /// True when a CancelToken expired mid-run; the solution holds the
  /// merges accepted so far (each individually optimal, still valid).
  bool TimedOut = false;
};

/// Runs the Theorem 5 strategy on \p P, merging the chains \p Chain
/// selects. Requires \p P.G chordal and \p P.K >= omega(P.G) (asserted).
/// When \p Telemetry is non-null, merge attempt/commit counters accumulate
/// into it. Polls \p Cancel between affinities.
ChordalStrategyResult chordalCoalesce(const CoalescingProblem &P,
                                      ChordalChain Chain = ChordalChain::Any,
                                      CoalescingTelemetry *Telemetry = nullptr,
                                      const CancelToken *Cancel = nullptr);

} // namespace rc

#endif // COALESCING_CHORDALSTRATEGY_H
