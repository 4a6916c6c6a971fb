//===- coalescing/Optimistic.cpp - Optimistic coalescing ------------------===//

#include "coalescing/Optimistic.h"

#include "coalescing/Conservative.h"
#include "coalescing/WorkGraph.h"
#include "graph/GreedyColorability.h"

#include <algorithm>
#include <numeric>

using namespace rc;

OptimisticResult rc::optimisticCoalesce(const CoalescingProblem &P,
                                        const OptimisticOptions &Options,
                                        CoalescingTelemetry *Telemetry,
                                        const CancelToken *Cancel) {
  OptimisticResult Result;
  unsigned NumAffinities = static_cast<unsigned>(P.Affinities.size());

  std::vector<unsigned> Order(NumAffinities);
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&P](unsigned A, unsigned B) {
    return P.Affinities[A].Weight > P.Affinities[B].Weight;
  });

  // One engine for every phase: partitions for a kept affinity set are
  // re-derived by rolling back to the base checkpoint and re-merging in
  // decreasing weight order (so conflicting merges resolve in favor of
  // expensive moves, like the aggressive phase), skipping any kept affinity
  // that became conflicting.
  WorkGraph WG(P.G);
  WG.attachTelemetry(Telemetry);
  WG.setCancelToken(Cancel);
  WorkGraph::Checkpoint Base = WG.checkpoint();
  auto applyKept = [&](const std::vector<bool> &Kept) {
    for (unsigned Idx : Order) {
      if (!Kept[Idx])
        continue;
      const Affinity &A = P.Affinities[Idx];
      if (!WG.sameClass(A.U, A.V) && !WG.interfere(A.U, A.V))
        WG.merge(A.U, A.V);
    }
  };

  // Phase 1 -- aggressive: keep everything the greedy aggressive pass can
  // coalesce.
  std::vector<bool> Kept(NumAffinities, false);
  applyKept(std::vector<bool>(NumAffinities, true));
  for (unsigned Idx = 0; Idx < NumAffinities; ++Idx)
    Kept[Idx] = WG.sameClass(P.Affinities[Idx].U, P.Affinities[Idx].V);

  // Phase 2 -- de-coalesce: while the quotient is not greedy-k-colorable,
  // dissolve the stuck merged class whose internal kept affinities are
  // cheapest to give up.
  for (;;) {
    WG.rollbackTo(Base);
    applyKept(Kept);
    std::vector<unsigned> StuckReps;
    if (WG.quotientGreedyKColorable(P.K, &StuckReps)) {
      Result.GreedyKColorable = true;
      break;
    }
    if (WG.cancelRequested()) {
      // Stop dissolving: the engine holds the valid Kept-induced partition,
      // but it never reached greedy-k-colorability.
      Result.TimedOut = true;
      break;
    }

    std::vector<bool> Stuck(P.G.numVertices(), false);
    for (unsigned R : StuckReps)
      Stuck[R] = true;

    // Internal kept affinity weight per stuck class.
    unsigned BestClass = ~0u;
    double BestScore = 0;
    std::vector<double> Cost(P.G.numVertices(), 0);
    std::vector<bool> HasInternal(P.G.numVertices(), false);
    for (unsigned Idx = 0; Idx < NumAffinities; ++Idx) {
      if (!Kept[Idx])
        continue;
      unsigned Rep = WG.classOf(P.Affinities[Idx].U);
      if (!Stuck[Rep])
        continue;
      Cost[Rep] += P.Affinities[Idx].Weight;
      HasInternal[Rep] = true;
    }
    for (unsigned Rep = 0; Rep < P.G.numVertices(); ++Rep) {
      if (!Stuck[Rep] || !HasInternal[Rep])
        continue;
      // Score to minimize: affinity weight lost (cheapest policy) or the
      // negated member count (biggest-class policy).
      double Score = Options.DissolveCheapest
                         ? Cost[Rep]
                         : -static_cast<double>(WG.members(Rep).size());
      if (BestClass == ~0u || Score < BestScore) {
        BestClass = Rep;
        BestScore = Score;
      }
    }
    if (BestClass == ~0u) {
      // Every stuck class is already a single vertex (or glued by nothing
      // we control): de-coalescing cannot help, G itself is not
      // greedy-k-colorable here.
      break;
    }

    for (unsigned Idx = 0; Idx < NumAffinities; ++Idx)
      if (Kept[Idx] && WG.classOf(P.Affinities[Idx].U) == BestClass)
        Kept[Idx] = false;
    WG.note(EngineEvent::DeCoalesce, BestClass);
    ++Result.Dissolutions;
  }

  // Phase 3 -- restore: re-coalesce given-up affinities that are safe now
  // (Park and Moon's second chance), most expensive first. The loop-exit
  // engine state is already the partition induced by Kept.
  if (Result.GreedyKColorable && Options.Restore) {
    // From here the state is greedy-k-colorable and every accepted merge
    // keeps it so. Under that invariant a Briggs pass implies the
    // brute-force check would pass too, so the cached Briggs test (degree
    // cache enabled only now — brute-force probes are the sole rollbacks
    // after this point) screens out most of the colorability checks
    // without changing any accept/reject decision, and the probes that
    // remain check only the merged class's neighbourhood.
    WG.enableDegreeCache(P.K);
    for (unsigned Idx : Order) {
      if (WG.cancelRequested()) {
        Result.TimedOut = true;
        break;
      }
      if (Kept[Idx])
        continue;
      const Affinity &A = P.Affinities[Idx];
      if (WG.sameClass(A.U, A.V))
        continue;
      WG.note(EngineEvent::MergeAttempted, A.U, A.V);
      if (WG.interfere(A.U, A.V))
        continue;
      if (!briggsTest(WG, A.U, A.V, P.K) &&
          !bruteForceTest(WG, A.U, A.V, P.K, nullptr,
                          /*PreMergeGreedy=*/true))
        continue;
      WG.merge(A.U, A.V);
      Kept[Idx] = true;
      WG.note(EngineEvent::AffinityRestored, A.U, A.V);
      ++Result.Restored;
    }
  }

  WG.commit();
  Result.Solution = WG.solution();
  Result.Stats = evaluateSolution(P, Result.Solution);
  // Whole-graph recheck; see the matching RC_EXPENSIVE_CHECKS note in
  // Conservative.cpp.
#ifdef RC_EXPENSIVE_CHECKS
  assert((!Result.GreedyKColorable ||
          isGreedyKColorable(buildCoalescedGraph(P.G, Result.Solution),
                             P.K)) &&
         "optimistic result lost greedy-k-colorability");
#endif
  return Result;
}
