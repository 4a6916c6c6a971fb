//===- coalescing/Spilling.h - Chaitin-style spilling -----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph-level spilling: remove (spill) vertices until the remaining graph
/// is greedy-k-colorable, Chaitin's fallback when the elimination gets
/// stuck. This substrate lets benchmarks and examples drive the two-phase
/// "first spill so that Maxlive <= k, then color/coalesce" flow the paper's
/// introduction attributes to Appel–George and the SSA-based allocators.
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_SPILLING_H
#define COALESCING_SPILLING_H

#include "graph/Graph.h"

#include <vector>

namespace rc {

/// Result of graph-level spilling.
struct SpillResult {
  /// Spilled vertex ids (in the original graph's numbering), sorted.
  std::vector<unsigned> Spilled;
  /// The surviving vertices (complement of Spilled), sorted. The subgraph
  /// they induce (Graph::inducedSubgraph) is greedy-k-colorable.
  std::vector<unsigned> Kept;
};

/// Spills vertices until the kept graph is greedy-k-colorable, in one
/// resumable k-core peel: vertices of degree < K are peeled; when the peel
/// is stuck, the stuck core's vertex minimizing cost / degree among the
/// kept vertices is spilled (Chaitin's heuristic; the lowest id wins ties)
/// and the peel resumes from its neighbors. The stuck core is the k-core
/// of the kept graph, which is unique, so this spills exactly what
/// re-running greedyEliminate on each kept subgraph would. O(V + E +
/// spills * |core|).
///
/// \param SpillCosts optional per-vertex costs; uniform when empty.
SpillResult spillToGreedyK(const Graph &G, unsigned K,
                           const std::vector<double> &SpillCosts = {});

} // namespace rc

#endif // COALESCING_SPILLING_H
