//===- coalescing/Optimistic.h - Optimistic coalescing ----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optimistic coalescing (Section 5 of the paper, after Park and Moon):
/// first coalesce moves aggressively regardless of colorability, then
/// de-coalesce ("give up") as few moves as possible until the graph becomes
/// greedy-k-colorable. The optimal de-coalescing problem is NP-complete even
/// for k = 4 and chordal graphs (Theorem 6, from vertex cover), so this
/// module provides a heuristic; the exact optimum is exactCoalesceSearch's
/// Greedy regime (coalescing/ExactSearch.h).
///
/// De-coalescing semantics: a kept affinity set S induces the partition by
/// connected components of S (within the aggressive classes); giving up an
/// affinity removes it from S. This matches the structures used in the
/// proof of Theorem 6.
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_OPTIMISTIC_H
#define COALESCING_OPTIMISTIC_H

#include "coalescing/Conservative.h"
#include "coalescing/Problem.h"

namespace rc {

/// Tuning knobs for the optimistic heuristic (ablation points; see
/// bench_ablations).
struct OptimisticOptions {
  /// Run the final conservative restore pass over given-up affinities.
  bool Restore = true;
  /// Dissolution victim policy: pick the stuck class whose internal
  /// affinities are cheapest (true) or the one with most members (false).
  bool DissolveCheapest = true;
};

/// Result of optimistic coalescing.
struct OptimisticResult {
  CoalescingSolution Solution;
  CoalescingStats Stats;
  /// True if the de-coalescing phase reached a greedy-k-colorable graph.
  bool GreedyKColorable = false;
  /// Classes dissolved during de-coalescing.
  unsigned Dissolutions = 0;
  /// Affinities re-coalesced by the final conservative restore pass.
  unsigned Restored = 0;
  /// True when the run stopped on an expired CancelToken. The solution is
  /// the valid partition induced by the affinities kept so far, but the
  /// de-coalescing loop may not have reached greedy-k-colorability.
  bool TimedOut = false;
};

/// The Park–Moon-style heuristic: aggressive phase (weight-greedy), then
/// repeatedly dissolve the cheapest merged class stuck in the greedy
/// elimination, then conservatively restore given-up affinities that have
/// become safe. If \p P.G itself is greedy-k-colorable the result always is
/// (dissolving everything restores G). When \p Telemetry is non-null the
/// engine's event counters accumulate into it. When \p Cancel is non-null
/// the driver stops at the next dissolve/restore boundary after the token
/// expires and returns the partial result with TimedOut set.
OptimisticResult optimisticCoalesce(const CoalescingProblem &P,
                                    const OptimisticOptions &Options = {},
                                    CoalescingTelemetry *Telemetry = nullptr,
                                    const CancelToken *Cancel = nullptr);

} // namespace rc

#endif // COALESCING_OPTIMISTIC_H
