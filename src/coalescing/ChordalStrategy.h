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
struct ChordalStrategyResult {
  CoalescingSolution Solution;
  CoalescingStats Stats;
  /// Affinities whose optimal incremental decision was "impossible".
  unsigned InfeasibleAffinities = 0;
  /// Extra (non-affinity) vertices merged through chain merges.
  unsigned ChainMerges = 0;
  /// Affinities that were incrementally feasible, but only through a slack
  /// (gapped) chain whose merge was checked to break chordality; they are
  /// left uncoalesced rather than destroying the invariant every later
  /// decision relies on. (Gapped chains whose quotient happens to stay
  /// chordal are still committed.)
  unsigned DeferredGapped = 0;
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
