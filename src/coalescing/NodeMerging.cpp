//===- coalescing/NodeMerging.cpp - Vegdahl-style merging -----------------===//

#include "coalescing/NodeMerging.h"

#include "coalescing/WorkGraph.h"
#include "graph/GreedyColorability.h"

using namespace rc;

NodeMergingResult rc::mergeNodesForColorability(const Graph &G, unsigned K) {
  NodeMergingResult Result;
  WorkGraph WG(G);

  for (;;) {
    Graph Quotient = WG.quotientGraph();
    EliminationResult E = greedyEliminate(Quotient, K);
    if (E.Success) {
      Result.GreedyKColorable = true;
      break;
    }

    // Map stuck quotient ids back to representatives.
    CoalescingSolution S = WG.solution();
    std::vector<unsigned> RepOfDense(S.NumClasses, ~0u);
    for (unsigned V = 0; V < G.numVertices(); ++V)
      if (RepOfDense[S.ClassIds[V]] == ~0u)
        RepOfDense[S.ClassIds[V]] = WG.classOf(V);

    // Best non-adjacent stuck pair by common-neighbor count, counted on
    // the quotient: its class ids map one-to-one onto the representatives.
    unsigned BestA = ~0u, BestB = ~0u, BestCommon = 0;
    for (size_t I = 0; I < E.Stuck.size(); ++I) {
      unsigned A = E.Stuck[I];
      for (size_t J = I + 1; J < E.Stuck.size(); ++J) {
        unsigned B = E.Stuck[J];
        if (Quotient.hasEdge(A, B))
          continue;
        // Two-pointer intersection count over the sorted neighbor rows.
        unsigned Common = 0;
        VertexSpan NA = Quotient.neighbors(A);
        VertexSpan NB = Quotient.neighbors(B);
        for (size_t IA = 0, IB = 0; IA < NA.size() && IB < NB.size();) {
          if (NA[IA] < NB[IB])
            ++IA;
          else if (NA[IA] > NB[IB])
            ++IB;
          else {
            ++Common;
            ++IA;
            ++IB;
          }
        }
        if (Common > BestCommon) {
          BestA = RepOfDense[A];
          BestB = RepOfDense[B];
          BestCommon = Common;
        }
      }
    }
    if (BestA == ~0u)
      break; // No degree-reducing merge exists: give up.
    WG.merge(BestA, BestB);
    ++Result.Merges;
  }

  Result.Solution = WG.solution();
  assert(isValidCoalescing(G, Result.Solution) &&
         "node merging produced an invalid partition");
  return Result;
}
