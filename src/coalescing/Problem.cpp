//===- coalescing/Problem.cpp - Coalescing problem types ------------------===//

#include "coalescing/Problem.h"

using namespace rc;

bool rc::isValidCoalescing(const Graph &G, const CoalescingSolution &S) {
  if (S.ClassIds.size() != G.numVertices())
    return false;
  for (unsigned V = 0; V < G.numVertices(); ++V)
    if (S.ClassIds[V] >= S.NumClasses)
      return false;
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V : G.neighbors(U))
      if (V > U && S.ClassIds[U] == S.ClassIds[V])
        return false;
  return true;
}

CoalescingStats rc::evaluateSolution(const CoalescingProblem &P,
                                     const CoalescingSolution &S) {
  CoalescingStats Stats;
  for (const Affinity &A : P.Affinities) {
    if (S.merged(A.U, A.V)) {
      ++Stats.CoalescedAffinities;
      Stats.CoalescedWeight += A.Weight;
    } else {
      ++Stats.UncoalescedAffinities;
      Stats.UncoalescedWeight += A.Weight;
    }
  }
  return Stats;
}

Graph rc::buildCoalescedGraph(const Graph &G, const CoalescingSolution &S) {
  assert(isValidCoalescing(G, S) && "invalid coalescing");
  bool SelfLoop = false;
  Graph Quotient = G.quotient(S.ClassIds, S.NumClasses, &SelfLoop);
  assert(!SelfLoop && "valid coalescing produced a self loop");
  return Quotient;
}

CoalescingSolution rc::identitySolution(const Graph &G) {
  CoalescingSolution S;
  S.NumClasses = G.numVertices();
  S.ClassIds.resize(G.numVertices());
  for (unsigned V = 0; V < G.numVertices(); ++V)
    S.ClassIds[V] = V;
  return S;
}

CoalescingSolution rc::solutionFromLabels(const std::vector<unsigned> &Labels) {
  CoalescingSolution S;
  S.ClassIds.resize(Labels.size());
  std::vector<unsigned> DenseId(Labels.size(), ~0u);
  for (size_t V = 0; V < Labels.size(); ++V) {
    unsigned L = Labels[V];
    assert(L < Labels.size() && "label out of range");
    if (DenseId[L] == ~0u)
      DenseId[L] = S.NumClasses++;
    S.ClassIds[V] = DenseId[L];
  }
  return S;
}

double rc::totalAffinityWeight(const CoalescingProblem &P) {
  double Total = 0;
  for (const Affinity &A : P.Affinities)
    Total += A.Weight;
  return Total;
}
