//===- testing/LegacyConservative.cpp - Fixpoint conservative driver ------===//

#include "testing/LegacyConservative.h"

#include "graph/GreedyColorability.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace rc;

/// The plain safety-test dispatch: \p Rule's test(s) through the public
/// entry points, with none of the worklist driver's watch-set collection
/// or cached-test screening of brute-force probes.
static bool ruleAllows(WorkGraph &WG, unsigned U, unsigned V, unsigned K,
                       ConservativeRule Rule) {
  switch (Rule) {
  case ConservativeRule::Briggs:
    return briggsTest(WG, U, V, K);
  case ConservativeRule::George:
    // The test is asymmetric; try both directions.
    return georgeTest(WG, U, V, K) || georgeTest(WG, V, U, K);
  case ConservativeRule::BriggsOrGeorge:
    return briggsTest(WG, U, V, K) || georgeTest(WG, U, V, K) ||
           georgeTest(WG, V, U, K);
  case ConservativeRule::BruteForce:
    return bruteForceTest(WG, U, V, K);
  }
  return false;
}

ConservativeResult
testing::conservativeCoalesceLegacy(const CoalescingProblem &P,
                                    ConservativeRule Rule,
                                    CoalescingTelemetry *Telemetry,
                                    const CancelToken *Cancel) {
  WorkGraph WG(P.G);
  WG.attachTelemetry(Telemetry);
  WG.setCancelToken(Cancel);
  // The safety tests read the degree cache, as in the worklist driver;
  // brute-force probes roll back only their own merge.
  WG.enableDegreeCache(P.K);
  std::vector<unsigned> Order(P.Affinities.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&P](unsigned A, unsigned B) {
    return P.Affinities[A].Weight > P.Affinities[B].Weight;
  });

#ifdef RC_EXPENSIVE_CHECKS
  bool InputGreedy = isGreedyKColorable(P.G, P.K);
#endif

  ConservativeResult Result;
  std::vector<bool> Done(P.Affinities.size(), false);
  bool Progress = true;
  while (Progress && !Result.TimedOut) {
    Progress = false;
    if (Cancel)
      Cancel->pollNow();
    Result.TestRejections = 0;
    Result.InterferenceRejections = 0;
    for (unsigned Idx : Order) {
      if (WG.cancelRequested()) {
        Result.TimedOut = true;
        break;
      }
      if (Done[Idx])
        continue;
      const Affinity &A = P.Affinities[Idx];
      if (WG.sameClass(A.U, A.V)) {
        Done[Idx] = true;
        continue;
      }
      WG.note(EngineEvent::MergeAttempted);
      if (WG.interfere(A.U, A.V)) {
        ++Result.InterferenceRejections;
        continue;
      }
      if (!ruleAllows(WG, A.U, A.V, P.K, Rule)) {
        ++Result.TestRejections;
        continue;
      }
      WG.merge(A.U, A.V);
      Done[Idx] = true;
      Progress = true;
    }
  }

  Result.Solution = WG.solution();
  Result.Stats = evaluateSolution(P, Result.Solution);
  // All three tests preserve greedy-k-colorability (Section 4). The full
  // rebuild-and-recheck is two orders of magnitude more work than the
  // driver itself at scale, so it compiles in only under
  // RC_EXPENSIVE_CHECKS, which sanitizer builds (-DRC_SANITIZE=...) define;
  // the coalescer-sound fuzz property checks the same claim continuously.
#ifdef RC_EXPENSIVE_CHECKS
  assert((!InputGreedy ||
          isGreedyKColorable(buildCoalescedGraph(P.G, Result.Solution),
                             P.K)) &&
         "conservative rule broke greedy-k-colorability");
#endif
  return Result;
}
