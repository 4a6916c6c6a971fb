//===- coalescing/Problem.h - Coalescing problem types ----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common problem/solution vocabulary for the paper's four coalescing
/// problems. A coalescing is a partition of the vertices such that no class
/// contains two interfering vertices (equivalently, a coloring with no bound
/// on the number of colors); an affinity is coalesced when its endpoints
/// share a class. The coalesced graph G_f is the quotient of G by the
/// partition.
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_PROBLEM_H
#define COALESCING_PROBLEM_H

#include "graph/Graph.h"
#include "graph/GraphWriter.h"

#include <string>
#include <vector>

namespace rc {

/// A coalescing problem instance: interference graph, affinities, and the
/// number of registers k (ignored by aggressive coalescing).
struct CoalescingProblem {
  Graph G;
  std::vector<Affinity> Affinities;
  unsigned K = 0;
  /// Optional vertex names for diagnostics and DOT output.
  std::vector<std::string> Names;
};

/// A coalescing (partition of the vertices into merge classes).
struct CoalescingSolution {
  /// Maps each vertex to a dense class id in 0..NumClasses-1.
  std::vector<unsigned> ClassIds;
  unsigned NumClasses = 0;

  /// Returns true if the two vertices were merged.
  bool merged(unsigned U, unsigned V) const {
    return ClassIds[U] == ClassIds[V];
  }
};

/// Summary statistics of a coalescing solution against its problem.
struct CoalescingStats {
  unsigned CoalescedAffinities = 0;
  unsigned UncoalescedAffinities = 0;
  double CoalescedWeight = 0;
  double UncoalescedWeight = 0;
};

/// Returns true if \p S is a valid coalescing of \p G: class ids are dense
/// and no class contains two interfering vertices.
bool isValidCoalescing(const Graph &G, const CoalescingSolution &S);

/// Computes the affinity statistics of \p S on \p P.
CoalescingStats evaluateSolution(const CoalescingProblem &P,
                                 const CoalescingSolution &S);

/// Builds the coalesced graph G_f. Asserts that \p S is a valid coalescing.
Graph buildCoalescedGraph(const Graph &G, const CoalescingSolution &S);

/// The identity solution (nothing coalesced).
CoalescingSolution identitySolution(const Graph &G);

/// The solution whose classes are the vertices sharing a label in
/// \p Labels (one per vertex, each below Labels.size()), with dense ids in
/// order of first appearance by vertex id.
CoalescingSolution solutionFromLabels(const std::vector<unsigned> &Labels);

/// Total weight of all affinities of \p P.
double totalAffinityWeight(const CoalescingProblem &P);

} // namespace rc

#endif // COALESCING_PROBLEM_H
