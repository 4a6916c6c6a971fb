//===- coalescing/Conservative.h - Conservative coalescing ------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative coalescing (Section 4 of the paper): remove as many moves as
/// possible while keeping the interference graph k-colorable. NP-complete
/// even for k = 3 and a greedy-2-colorable input graph (Theorem 3). In
/// practice heuristics coalesce one affinity at a time with a local safety
/// test; this module implements the paper's three tests:
///
///  - Briggs: the merged node has fewer than k neighbors of degree >= k.
///  - George: every neighbor of u of degree >= k is a neighbor of v.
///  - Brute force: merge, then check greedy-k-colorability (the "simply
///    use brute force" test suggested in Section 4). From a
///    greedy-k-colorable quotient the check stays in the merged class's
///    neighbourhood; otherwise it re-peels the whole quotient in linear
///    time.
///
/// Each test preserves greedy-k-colorability, so running the driver on a
/// greedy-k-colorable graph keeps it greedy-k-colorable (asserted).
///
/// Briggs and George are one engine query each (WorkGraph::briggsSafe /
/// georgeSafe) over the degree cache, which every caller enables at k
/// before testing; the engine, not the caller, picks the sweep for its
/// adjacency representation.
///
/// The driver is incremental: it parks rejected affinities on the classes
/// that caused the rejection, re-testing one only after a merge touches a
/// watched class. The original fixpoint re-scan survives only as
/// a differential-testing reference (testing/LegacyConservative.h); both
/// produce identical solutions.
///
/// The exact conservative optimum (Theorem 3) is exactCoalesceSearch's
/// ExactColor regime, and the greedy-k-colorable one its Greedy regime
/// (coalescing/ExactSearch.h).
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_CONSERVATIVE_H
#define COALESCING_CONSERVATIVE_H

#include "coalescing/Problem.h"
#include "coalescing/WorkGraph.h"

#include <cstdint>

namespace rc {

/// Which incremental safety test the conservative driver uses.
enum class ConservativeRule {
  Briggs,
  George,
  /// Briggs or George (either passing suffices), as advocated by the paper
  /// for the spilling-free setting.
  BriggsOrGeorge,
  /// Merge speculatively and re-check greedy-k-colorability.
  BruteForce,
};

/// Returns true if merging the classes of \p U and \p V passes Briggs' test
/// on \p WG with \p K registers: the merged class has < k neighbor classes
/// of degree >= k (common neighbors counted once, with degree reduced by
/// the merge). Requires the degree cache enabled at \p K; the engine
/// answers from it (WorkGraph::briggsSafe) in either adjacency mode.
/// Counts one test run, and one pass when it passes, in the engine's
/// telemetry.
bool briggsTest(const WorkGraph &WG, unsigned U, unsigned V, unsigned K);

/// Returns true if merging passes George's test: every neighbor class of
/// \p U with degree >= k is also a neighbor of \p V. Asymmetric. Requires
/// the degree cache enabled at \p K, like briggsTest
/// (WorkGraph::georgeSafe).
bool georgeTest(const WorkGraph &WG, unsigned U, unsigned V, unsigned K);

/// Returns true if the quotient graph remains greedy-k-colorable after
/// merging the classes of \p U and \p V. The merge is probed under a
/// checkpoint and rolled back, so \p WG is unchanged on return (but must be
/// mutable). \p StuckReps, when non-null, receives (replacing its
/// contents) the representatives of the classes of the speculative state's
/// stuck k-core — empty on success; all of them remain valid
/// representatives after the rollback.
///
/// \p PreMergeGreedy is the caller's promise that the current quotient is
/// greedy-k-colorable, and requires the degree cache enabled at \p K.
/// With it the probe checks only the merged class's k-core neighbourhood,
/// peeling as it explores and stopping once the merged class peels
/// (WorkGraph::mergedQuotientGreedyKColorable); otherwise it re-peels the
/// whole quotient (WorkGraph::quotientGreedyKColorable). Both give the same
/// answer and stuck set.
bool bruteForceTest(WorkGraph &WG, unsigned U, unsigned V, unsigned K,
                    std::vector<unsigned> *StuckReps = nullptr,
                    bool PreMergeGreedy = false);

/// Result of a conservative coalescing run.
struct ConservativeResult {
  CoalescingSolution Solution;
  CoalescingStats Stats;
  /// Affinities whose safety test failed (they stay uncoalesced).
  unsigned TestRejections = 0;
  /// Affinities rejected because their classes interfere.
  unsigned InterferenceRejections = 0;
  /// True when the run stopped on an expired CancelToken. The solution is
  /// the valid partial coalescing reached so far (conservative merges
  /// preserve greedy-k-colorability at every prefix).
  bool TimedOut = false;
};

/// Conservative coalescing driver: processes affinities in decreasing
/// weight order, merging when the classes do not interfere and \p Rule
/// deems the merge safe. A merge can enable previously rejected affinities;
/// instead of re-scanning the whole list to a fixed point, rejected
/// affinities park on the classes that caused the rejection and are
/// re-tested only once a merge dirties a watched class. Produces the same
/// solution as the fixpoint re-scan (testing::conservativeCoalesceLegacy).
/// When \p Telemetry is non-null the engine's event counters accumulate
/// into it. When \p Cancel is non-null the driver stops at the first
/// affinity boundary after the token expires, returning the partial result
/// with TimedOut set; the rejection counters always describe exactly the
/// affinities tested and still rejected in the returned (possibly partial)
/// solution.
ConservativeResult conservativeCoalesce(const CoalescingProblem &P,
                                        ConservativeRule Rule,
                                        CoalescingTelemetry *Telemetry =
                                            nullptr,
                                        const CancelToken *Cancel = nullptr);

} // namespace rc

#endif // COALESCING_CONSERVATIVE_H
