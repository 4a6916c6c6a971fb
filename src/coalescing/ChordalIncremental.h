//===- coalescing/ChordalIncremental.h - Theorem 5 --------------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental conservative coalescing on chordal graphs, solved in
/// polynomial time (Theorem 5 of the paper): given a chordal graph G, k
/// colors, and one affinity (x, y), decide whether G admits a k-coloring f
/// with f(x) = f(y), and produce a witness coloring.
///
/// Algorithm (following the proof): represent G as subtrees of a clique
/// tree; take the unique shortest tree path P between the subtrees T_x and
/// T_y; intersect every subtree with P to get intervals; pad positions whose
/// clique has fewer than k vertices with one-node slack intervals; then x
/// and y can share a color iff a chain of contiguous disjoint intervals,
/// starting with I_x and ending with I_y, covers P. The paper's Figure 5
/// illustrates the interval cover.
///
/// Two decision procedures search for that chain:
///  - chordalIncrementalCoalescing takes any chain, found by left-to-right
///    BFS marking;
///  - chordalIncrementalDP (ExactChordalDP.cpp) takes the best one, by a DP
///    over path positions minimizing (slack intervals, real merges).
///
/// Each builds its own intervals and searches its own chain, so a bug in
/// one search cannot hide in both: the fuzz property `exact-gap-sound` and
/// tests/ExactBaselineTest.cpp diff the two per affinity, plus the
/// equality-constrained exact coloring oracle.
///
/// Each procedure has two forms. The form on a prebuilt clique tree returns
/// the decision and the chain only; chordalCoalesce, which calls it once per
/// affinity, checks the chain's soundness on the quotient it commits. The
/// one-shot form (G, X, Y, K), which tests and the fuzz oracles call, builds
/// the tree from one perfect elimination order of G, runs the tree form,
/// and completes the chain to a witness coloring while the tree is alive:
/// one artificial vertex per slack clique the chain threads through,
/// adjacent to exactly that clique, turns the chain into a tiling; the
/// merged augmented graph is chordal with clique number at most K, and its
/// optimal coloring restricted to G is the witness. Sharing that completion
/// hides no decision bug: the one-shot form asserts that the witness is a
/// valid K-coloring giving X and Y the same color.
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_CHORDALINCREMENTAL_H
#define COALESCING_CHORDALINCREMENTAL_H

#include "graph/Coloring.h"
#include "graph/Graph.h"

namespace rc {

class CliqueTree;

/// A decision on a prebuilt clique tree: the answer and the chain, without
/// a witness coloring.
struct ChordalChainDecision {
  /// True iff a k-coloring with f(X) = f(Y) exists.
  bool Feasible = false;
  /// The vertices merged with X and Y to realize the coloring (the chain of
  /// real intervals selected on the path), from X to Y; empty when
  /// infeasible.
  std::vector<unsigned> MergedChain;
  /// The clique-tree nodes of the slack intervals the chain threads
  /// through, from Y back to X.
  std::vector<unsigned> SlackNodes;

  /// True when the chain tiles the whole path with real vertices (see
  /// ChordalIncrementalResult::GapFree).
  bool gapFree() const { return Feasible && SlackNodes.empty(); }
};

/// Result of a one-shot chordal incremental coalescing decision.
struct ChordalIncrementalResult {
  /// True iff a k-coloring with f(X) = f(Y) exists.
  bool Feasible = false;
  /// A witness k-coloring with Witness[X] == Witness[Y] when Feasible.
  Coloring Witness;
  /// The chain, as in ChordalChainDecision::MergedChain.
  std::vector<unsigned> MergedChain;
  /// True when the chain tiles the whole path with real vertices (no slack
  /// interval used). A gapped chain still witnesses feasibility (the color
  /// threads through free slots). Merging an arbitrary gapped chain may
  /// break chordality; the chains both decision procedures pick do not
  /// (the argument is on ChordalStrategyResult).
  bool GapFree = false;
};

/// Decides incremental conservative coalescing of the affinity (\p X, \p Y)
/// on the chordal graph \p G with \p K colors by BFS interval marking.
/// Asserts that \p G is chordal. Returns Feasible = false when (X, Y) is an
/// interference or K < omega(G).
ChordalIncrementalResult chordalIncrementalCoalescing(const Graph &G,
                                                      unsigned X, unsigned Y,
                                                      unsigned K);

/// As above, on a prebuilt clique tree \p T of \p G. Requires
/// K >= omega(G); the caller checks it.
ChordalChainDecision chordalIncrementalCoalescing(const Graph &G,
                                                  const CliqueTree &T,
                                                  unsigned X, unsigned Y,
                                                  unsigned K);

/// Decides the same question by the clique-tree DP, returning a chain with
/// the fewest slack intervals and, among those, the fewest real merges.
/// Asserts that \p G is chordal.
ChordalIncrementalResult chordalIncrementalDP(const Graph &G, unsigned X,
                                              unsigned Y, unsigned K);

/// As above, on a prebuilt clique tree \p T of \p G. Requires
/// K >= omega(G); the caller checks it.
ChordalChainDecision chordalIncrementalDP(const Graph &G, const CliqueTree &T,
                                          unsigned X, unsigned Y, unsigned K);

} // namespace rc

#endif // COALESCING_CHORDALINCREMENTAL_H
