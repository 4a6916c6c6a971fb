//===- coalescing/ChordalStrategy.cpp - Theorem 5 as a coalescer ----------===//

#include "coalescing/ChordalStrategy.h"

#include "coalescing/ChordalIncremental.h"
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

  // The committed classes: DenseIds maps each vertex to its class, numbered
  // in order of first appearance by vertex id, and Current is P.G's
  // quotient by them. Tree is Current's clique tree, built from Peo on
  // first use after each commit so rejected affinities share it. The
  // strategy counts one attempt per decided affinity and one commit per
  // class a chain merges away, so the commits total n minus the final
  // class count.
  Graph Current = P.G;
  std::vector<unsigned> DenseIds(P.G.numVertices());
  std::iota(DenseIds.begin(), DenseIds.end(), 0u);
  std::optional<CliqueTree> Tree;

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
    // classes whose intervals are disjoint, so no two interfere; they get
    // one label. The quotient stays chordal, gapped chain or not (the
    // argument is on ChordalStrategyResult), and its clique number stays
    // within K; both are asserted on the quotient's one PEO (the file
    // comment of ChordalStrategy.h says why that replaces a witness).
    const std::vector<unsigned> &Merged = Decision.MergedChain;
    assert(Merged.size() >= 2 && "chain must contain x and y");
    std::vector<unsigned> Labels(Current.numVertices());
    std::iota(Labels.begin(), Labels.end(), 0u);
    for (unsigned C : Merged)
      Labels[C] = Merged.front();
    // Class ids rise with their classes' first vertices, so numbering the
    // new classes by first appearance over class ids numbers them by first
    // appearance over vertex ids too.
    CoalescingSolution Next = solutionFromLabels(Labels);
    const std::vector<unsigned> &NextIds = Next.ClassIds;
    // P.G's quotient by the new classes, built from Current's fewer edges.
    Graph Quotient = Current.quotient(NextIds, Next.NumClasses);
    Peo = mcsEliminationOrder(Quotient);
    assert(isPerfectEliminationOrder(Quotient, Peo) &&
           "chain merge broke chordality, contradicting Theorem 5");
    assert(chordalCliqueNumber(Quotient, Peo) <= P.K &&
           "chain merge raised the clique number above k");
    for (unsigned &Id : DenseIds)
      Id = NextIds[Id];
    Current = std::move(Quotient);
    Tree.reset();
    Result.ChainMerges += static_cast<unsigned>(Merged.size()) - 2;
    for (size_t I = 1; I < Merged.size(); ++I)
      Count(EngineEvent::MergeCommitted);
  }

  Result.Solution.ClassIds = std::move(DenseIds);
  Result.Solution.NumClasses = Current.numVertices();
  Result.Stats = evaluateSolution(P, Result.Solution);
  assert(isValidCoalescing(P.G, Result.Solution) &&
         "chordal strategy produced an invalid coalescing");
  return Result;
}
