//===- coalescing/Aggressive.cpp - Aggressive coalescing ------------------===//

#include "coalescing/Aggressive.h"

#include "coalescing/WorkGraph.h"

#include <algorithm>
#include <numeric>

using namespace rc;

AggressiveResult rc::aggressiveCoalesceGreedy(const CoalescingProblem &P,
                                              CoalescingTelemetry *Telemetry) {
  WorkGraph WG(P.G);
  WG.attachTelemetry(Telemetry);
  std::vector<unsigned> Order(P.Affinities.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&P](unsigned A, unsigned B) {
    return P.Affinities[A].Weight > P.Affinities[B].Weight;
  });

  for (unsigned Idx : Order) {
    const Affinity &A = P.Affinities[Idx];
    if (WG.sameClass(A.U, A.V))
      continue;
    WG.note(EngineEvent::MergeAttempted, A.U, A.V);
    if (!WG.interfere(A.U, A.V))
      WG.merge(A.U, A.V);
  }

  AggressiveResult Result;
  Result.Solution = WG.solution();
  Result.Stats = evaluateSolution(P, Result.Solution);
  return Result;
}
