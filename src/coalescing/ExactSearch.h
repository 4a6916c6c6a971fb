//===- coalescing/ExactSearch.h - Exact B&B coalescing search ---*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's one exact coalescing solver: every optimum — the
/// optimality-gap dashboard's (tools/rc_gap) baselines, the reduction
/// checks of Theorems 2, 3 and 6, the exact-bb strategy — comes from this
/// branch and bound. It maximizes coalesced affinity weight over the
/// partitions induced by affinity subsets, under a selectable feasibility
/// regime:
///
///  - Greedy:     the quotient must stay greedy-k-colorable — the exact
///                version of the conservative/optimistic objective (the
///                aggressive-then-optimal-de-coalescing problem of
///                Theorem 6).
///  - ExactColor: the quotient must be k-colorable (checked by exact
///                search); the right bound for strategies whose chain
///                merges leave the affinity-subset space (Theorem 5
///                chains).
///  - Any:        no colorability constraint — the exact aggressive
///                optimum (Theorem 2's objective). Because the coalesced
///                affinity set of ANY valid partition is realized by the
///                refinement that merges only those affinities' endpoint
///                components, this optimum upper-bounds every strategy's
///                coalesced weight, chain merges included: a strategy
///                exceeding it has merged interfering vertices.
///
/// The regimes are the paper's three NP-complete optimization problems,
/// which share this search space and differ only in the leaf test:
/// aggressive coalescing (Any, Theorem 2), conservative coalescing
/// (ExactColor, Theorem 3) and optimal de-coalescing (Greedy, Theorem 6).
/// The fuzz oracles check all three against an independent naive subset
/// enumerator (testing::bruteForceOptima).
///
/// The search follows the explicit undo-stack idiom (SNIPPETS.md,
/// rakdver/coloring-book): an iterative decision stack over WorkGraph
/// checkpoints, processing affinities in decreasing weight order, with two
/// admissible bounds — a free suffix-weight bound and a per-node
/// still-mergeable scan — plus the engine's cached safety tests:
/// while every merge on the current branch passed the (cached, popcount)
/// Briggs test the quotient is known greedy-k-colorable, so leaf
/// colorability checks are skipped outright.
///
/// Deterministic: identical inputs and node limits produce identical
/// results at any thread count or wall-clock speed. A CancelToken expiry
/// unwinds every live checkpoint before returning, so the engine lands
/// back in its consistent pre-search state (TimedOut partial results are
/// sound).
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_EXACTSEARCH_H
#define COALESCING_EXACTSEARCH_H

#include "coalescing/Problem.h"
#include "coalescing/Telemetry.h"
#include "support/CancelToken.h"

#include <cstdint>

namespace rc {

/// Which leaf feasibility test the exact search enforces.
enum class ExactFeasibility {
  /// No colorability requirement: the exact aggressive optimum.
  Any,
  /// Quotient greedy-k-colorable: the conservative/optimistic optimum.
  Greedy,
  /// Quotient k-colorable by exact search (slow; tiny instances only).
  ExactColor,
};

/// Short stable name of \p F ("any", "greedy", "kcolor").
const char *exactFeasibilityName(ExactFeasibility F);

/// Knobs for one exactCoalesceSearch call.
struct ExactSearchOptions {
  ExactFeasibility Feasibility = ExactFeasibility::Greedy;
  /// Search-node budget; the search stops (deterministically) when
  /// exceeded and reports Optimal = false.
  uint64_t NodeLimit = UINT64_MAX;
};

/// Result of an exact branch-and-bound search.
struct ExactSearchResult {
  /// The best feasible partition found (identity when none was).
  CoalescingSolution Solution;
  CoalescingStats Stats;
  /// Coalesced weight of the decisions along the best branch; Stats holds
  /// the full evaluation of Solution (equal when Optimal).
  double BestWeight = 0;
  /// True when the search ran to completion: BestWeight is the optimum.
  bool Optimal = false;
  /// True when an expired CancelToken abandoned the search; the solution
  /// is the best feasible one found so far.
  bool TimedOut = false;
  uint64_t NodesExplored = 0;
  /// Subtrees cut by the admissible bounds.
  uint64_t BoundPrunes = 0;
  /// Leaf colorability checks skipped because every merge on the branch
  /// passed the cached Briggs test (Greedy feasibility only).
  uint64_t CachedTestLeafSkips = 0;
};

/// Runs the undo-stack branch-and-bound search on \p P. When \p Telemetry
/// is non-null the engine's event counters accumulate into it. When
/// \p Cancel is non-null the search stops at the next node boundary after
/// the token expires, unwinding all speculative merges before returning.
ExactSearchResult exactCoalesceSearch(const CoalescingProblem &P,
                                      const ExactSearchOptions &Options = {},
                                      CoalescingTelemetry *Telemetry =
                                          nullptr,
                                      const CancelToken *Cancel = nullptr);

} // namespace rc

#endif // COALESCING_EXACTSEARCH_H
