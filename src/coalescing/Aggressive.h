//===- coalescing/Aggressive.h - Aggressive coalescing ----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggressive coalescing (Section 3 of the paper): remove as many moves as
/// possible with no constraint on the number of registers; only
/// interferences can prevent coalescing. NP-complete by reduction from
/// multiway cut (Theorem 2), so the module offers a weight-greedy heuristic;
/// the exact optimum is exactCoalesceSearch's Any regime
/// (coalescing/ExactSearch.h).
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_AGGRESSIVE_H
#define COALESCING_AGGRESSIVE_H

#include "coalescing/Problem.h"
#include "coalescing/Telemetry.h"

namespace rc {

/// Result of an aggressive coalescing run.
struct AggressiveResult {
  CoalescingSolution Solution;
  CoalescingStats Stats;
};

/// Weight-greedy aggressive coalescing: processes affinities in decreasing
/// weight order, merging whenever the two classes do not interfere.
/// Runs in roughly O(A log A + E alpha(V)). When \p Telemetry is non-null
/// the engine's event counters accumulate into it.
AggressiveResult aggressiveCoalesceGreedy(const CoalescingProblem &P,
                                          CoalescingTelemetry *Telemetry =
                                              nullptr);

} // namespace rc

#endif // COALESCING_AGGRESSIVE_H
