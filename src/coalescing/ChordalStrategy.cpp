//===- coalescing/ChordalStrategy.cpp - Theorem 5 as a coalescer ----------===//

#include "coalescing/ChordalStrategy.h"

#include "coalescing/ChordalIncremental.h"
#include "graph/Chordal.h"
#include "graph/CliqueTree.h"
#include "support/UnionFind.h"

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
  assert(isChordal(P.G) && "chordal strategy requires a chordal graph");
  assert(P.K >= chordalCliqueNumber(P.G) &&
         "chordal strategy requires k >= omega");

  unsigned N = P.G.numVertices();
  UnionFind Classes(N);

  // Current quotient graph, whose vertices are the dense class ids in
  // DenseIds; its clique tree, built on first use after each commit so
  // rejected affinities share it; and per class one original vertex and
  // the class size.
  Graph Current = P.G;
  std::vector<unsigned> DenseIds(N);
  std::iota(DenseIds.begin(), DenseIds.end(), 0u);
  std::optional<CliqueTree> Tree;
  std::vector<unsigned> ClassRep = DenseIds, ClassSize(N, 1);

  // Applies the tentative partition when its quotient stays chordal —
  // guaranteed for gap-free chains (asserted), checked for chains that
  // threaded a slack slot. Returns false (and leaves the state untouched)
  // when the merge would break the chordality every later exact decision
  // depends on.
  auto tryCommit = [&](UnionFind &&Tentative, bool GapFree) {
    std::vector<unsigned> Dense = Tentative.denseClassIds();
    Graph Quotient = P.G.quotient(Dense, Tentative.numClasses());
    bool Chordal = isChordal(Quotient);
    assert((Chordal || !GapFree) &&
           "gap-free chain merge broke chordality, contradicting Theorem 5");
    (void)GapFree;
    if (!Chordal)
      return false;
    Classes = std::move(Tentative);
    DenseIds = std::move(Dense);
    Current = std::move(Quotient);
    Tree.reset();
    ClassRep.assign(Classes.numClasses(), ~0u);
    ClassSize.assign(Classes.numClasses(), 0);
    for (unsigned V = 0; V < N; ++V)
      if (ClassSize[DenseIds[V]]++ == 0)
        ClassRep[DenseIds[V]] = V;
    return true;
  };

  auto decide = [&](unsigned X, unsigned Y) {
    if (!Tree)
      Tree = CliqueTree::build(Current);
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
    ChordalIncrementalResult Decision = decide(X, Y);
    if (!Decision.Feasible) {
      ++Result.InfeasibleAffinities;
      continue;
    }
    // Merge the whole chain (it includes X and Y). Its vertices are
    // current classes; union one original vertex of each.
    const std::vector<unsigned> &Merged = Decision.MergedChain;
    assert(Merged.size() >= 2 && "chain must contain x and y");
    UnionFind Tentative = Classes;
    unsigned MergedVertices = 0;
    for (unsigned Class : Merged) {
      Tentative.merge(ClassRep[Merged.front()], ClassRep[Class]);
      MergedVertices += ClassSize[Class];
    }
    if (!tryCommit(std::move(Tentative), Decision.GapFree)) {
      // The chain threads through free color slots and merging its real
      // vertices would break chordality, which every later exact decision
      // depends on. Leave the affinity uncoalesced instead.
      ++Result.DeferredGapped;
      continue;
    }
    Result.ChainMerges += static_cast<unsigned>(Merged.size()) - 2;
    for (unsigned I = 1; I < MergedVertices; ++I)
      Count(EngineEvent::MergeCommitted);
  }

  Result.Solution.ClassIds = Classes.denseClassIds();
  Result.Solution.NumClasses = Classes.numClasses();
  Result.Stats = evaluateSolution(P, Result.Solution);
  assert(isValidCoalescing(P.G, Result.Solution) &&
         "chordal strategy produced an invalid coalescing");
  return Result;
}
