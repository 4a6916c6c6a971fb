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
/// equality-constrained exact coloring oracle. Only the witness assembly,
/// chordalChainWitness, is shared. Sharing it hides no decision bug: each
/// decision still asserts that the witness it returns is a valid k-coloring
/// giving X and Y the same color.
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_CHORDALINCREMENTAL_H
#define COALESCING_CHORDALINCREMENTAL_H

#include "graph/Coloring.h"
#include "graph/Graph.h"

namespace rc {

class CliqueTree;

/// Result of a chordal incremental coalescing decision.
struct ChordalIncrementalResult {
  /// True iff a k-coloring with f(X) = f(Y) exists.
  bool Feasible = false;
  /// A witness k-coloring with Witness[X] == Witness[Y] when Feasible.
  Coloring Witness;
  /// The vertices merged with X and Y to realize the coloring (the chain of
  /// real intervals selected on the path), from X to Y; empty when
  /// infeasible.
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
ChordalIncrementalResult chordalIncrementalCoalescing(const Graph &G,
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
ChordalIncrementalResult chordalIncrementalDP(const Graph &G,
                                              const CliqueTree &T, unsigned X,
                                              unsigned Y, unsigned K);

/// Builds the witness coloring of G for an interval chain: \p Chain holds
/// its real vertices, \p SlackCliques the cliques of the slack intervals it
/// threads through. Merging only the real vertices can leave their subtree
/// union disconnected (the quotient need not be chordal), so the chain is
/// completed on an augmented graph first: one artificial vertex per slack
/// clique, adjacent to exactly that clique. Each is simplicial, so the
/// augmented graph stays chordal, and its clique has fewer than \p K
/// vertices, so the clique number stays within K. The augmented chain tiles
/// the path, its quotient is chordal with clique number at most K, and its
/// optimal coloring restricted to G is the witness.
Coloring
chordalChainWitness(const Graph &G, const std::vector<unsigned> &Chain,
                    const std::vector<const std::vector<unsigned> *>
                        &SlackCliques,
                    unsigned K);

} // namespace rc

#endif // COALESCING_CHORDALINCREMENTAL_H
