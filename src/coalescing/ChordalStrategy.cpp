//===- coalescing/ChordalStrategy.cpp - Theorem 5 as a coalescer ----------===//

#include "coalescing/ChordalStrategy.h"

#include "coalescing/ChordalIncremental.h"
#include "coalescing/WorkGraph.h"
#include "graph/Chordal.h"
#include "graph/CliqueTree.h"

#include <algorithm>
#include <numeric>
#include <optional>

using namespace rc;

ChordalStrategyResult rc::chordalCoalesce(const CoalescingProblem &P,
                                          ChordalChain Chain,
                                          CoalescingTelemetry *Telemetry,
                                          const CancelToken *Cancel) {
  auto Count = [Telemetry](EngineEvent E) {
    if (Telemetry)
      Telemetry->count(E);
  };
  // One perfect elimination order per graph the driver decides on: it
  // serves the asserts and that graph's clique tree.
  std::vector<unsigned> Peo = mcsEliminationOrder(P.G);
  assert(isPerfectEliminationOrder(P.G, Peo) &&
         "chordal strategy requires a chordal graph");
  assert(P.K >= chordalCliqueNumber(P.G, Peo) &&
         "chordal strategy requires k >= omega");

  unsigned N = P.G.numVertices();
  // The committed classes. No telemetry is attached: the strategy counts
  // one attempt per decided affinity and one commit per class a chain
  // merges away, so the commits total N minus the final class count.
  WorkGraph Classes(P.G);

  // Current quotient graph, whose vertices are the dense class ids in
  // DenseIds; its clique tree, built from Peo on first use after each
  // commit so rejected affinities share it; and per class one original
  // vertex.
  Graph Current = P.G;
  std::vector<unsigned> DenseIds(N);
  std::iota(DenseIds.begin(), DenseIds.end(), 0u);
  std::optional<CliqueTree> Tree;
  std::vector<unsigned> ClassRep = DenseIds;

  auto decide = [&](unsigned X, unsigned Y) {
    if (!Tree)
      Tree = CliqueTree::build(Current, Peo);
    return Chain == ChordalChain::Any
               ? chordalIncrementalCoalescing(Current, *Tree, X, Y, P.K)
               : chordalIncrementalDP(Current, *Tree, X, Y, P.K);
  };

  std::vector<unsigned> Order(P.Affinities.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&P](unsigned A, unsigned B) {
    return P.Affinities[A].Weight > P.Affinities[B].Weight;
  });

  ChordalStrategyResult Result;
  for (unsigned Idx : Order) {
    // pollNow, not expired(): nothing else polls this token here, so a
    // deadline-armed token would otherwise never trip. Once per affinity
    // decision, the clock read is noise.
    if (Cancel && Cancel->pollNow()) {
      Result.TimedOut = true;
      break;
    }
    const Affinity &A = P.Affinities[Idx];
    unsigned X = DenseIds[A.U], Y = DenseIds[A.V];
    if (X == Y)
      continue; // Already coalesced (directly or by a chain).
    Count(EngineEvent::MergeAttempted);
    if (Current.hasEdge(X, Y)) {
      ++Result.InfeasibleAffinities;
      continue;
    }
    ChordalChainDecision Decision = decide(X, Y);
    if (!Decision.Feasible) {
      ++Result.InfeasibleAffinities;
      continue;
    }
    // Merge the whole chain (it includes X and Y). Its vertices are current
    // classes whose intervals are disjoint, so no two interfere; merge one
    // original vertex of each. The quotient stays chordal, gapped chain or
    // not (the argument is on ChordalStrategyResult), and its clique number
    // stays within K; both are asserted on the quotient's one PEO (the file
    // comment of ChordalStrategy.h says why that replaces a witness).
    const std::vector<unsigned> &Merged = Decision.MergedChain;
    assert(Merged.size() >= 2 && "chain must contain x and y");
    unsigned Root = ClassRep[Merged.front()];
    for (size_t I = 1; I < Merged.size(); ++I)
      Classes.merge(Root, ClassRep[Merged[I]]);
    CoalescingSolution Tentative = Classes.solution();
    // P.G's quotient by the new classes, built from Current's fewer edges.
    std::vector<unsigned> NextIds(Current.numVertices());
    for (unsigned C = 0; C < NextIds.size(); ++C)
      NextIds[C] = Tentative.ClassIds[ClassRep[C]];
    Graph Quotient = Current.quotient(NextIds, Tentative.NumClasses);
    Peo = mcsEliminationOrder(Quotient);
    assert(isPerfectEliminationOrder(Quotient, Peo) &&
           "chain merge broke chordality, contradicting Theorem 5");
    assert(chordalCliqueNumber(Quotient, Peo) <= P.K &&
           "chain merge raised the clique number above k");
    DenseIds = std::move(Tentative.ClassIds);
    Current = std::move(Quotient);
    Tree.reset();
    ClassRep.assign(Tentative.NumClasses, ~0u);
    for (unsigned V = 0; V < N; ++V)
      if (ClassRep[DenseIds[V]] == ~0u)
        ClassRep[DenseIds[V]] = V;
    Result.ChainMerges += static_cast<unsigned>(Merged.size()) - 2;
    for (size_t I = 1; I < Merged.size(); ++I)
      Count(EngineEvent::MergeCommitted);
  }

  Result.Solution = Classes.solution();
  Result.Stats = evaluateSolution(P, Result.Solution);
  assert(isValidCoalescing(P.G, Result.Solution) &&
         "chordal strategy produced an invalid coalescing");
  return Result;
}
