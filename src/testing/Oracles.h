//===- testing/Oracles.h - Paper invariants as predicates -------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline results, packaged as reusable oracle predicates over
/// generated programs and graphs. Every oracle returns true when the
/// invariant holds and fills a diagnostic string otherwise; the fuzzing
/// harness (testing/PropertyCheck) runs them over thousands of random
/// instances and the unit tests call them directly on hand-built ones.
///
///  1. checkSsaChordalMaxlive     -- Theorem 1: strict-SSA interference
///     graphs are chordal with omega(G) = Maxlive.
///  2. checkOutOfSsaSemantics     -- Section 3: out-of-SSA lowering (a form
///     of aggressive coalescing) preserves observable behavior.
///  3. checkCoalescerSoundness    -- Section 4: conservative coalescers must
///     never merge interfering nodes and must preserve
///     greedy-k-colorability.
///  4. checkDifferentialExact     -- heuristics differentially compared to
///     the exact branch-and-bound on small instances: a heuristic beating
///     the optimum proves an unsound merge.
///  5. checkWorkGraphIncremental  -- the incremental merged-graph state
///     matches a rebuild-from-scratch quotient after every operation.
///  6. checkWorkGraphRollback     -- checkpoint/rollback round-trips restore
///     the exact partition, and the dense (BitRows) and sparse
///     (sorted-vector) adjacency representations agree on everything.
///  7. checkExactGapSound         -- the exact branch-and-bound agrees with
///     an independent brute-force subset enumerator (bruteForceOptima) on
///     the optimum in all three feasibility regimes, every strategy is
///     bounded by the matching optimum, and on chordal inputs the three
///     Theorem 5 decision implementations (BFS marking, clique-tree DP,
///     equality-constrained exact coloring) agree per affinity.
///
//===----------------------------------------------------------------------===//

#ifndef TESTING_ORACLES_H
#define TESTING_ORACLES_H

#include "coalescing/Problem.h"
#include "graph/Graph.h"
#include "ir/Function.h"
#include "support/Random.h"

#include <string>

namespace rc {
namespace testing {

/// Oracle 1 (Theorem 1). Verifies that \p F is strict SSA, that its
/// interference graph is chordal, and that the clique number equals Maxlive.
/// On graphs of at most \p BruteForceLimit vertices the clique number is
/// cross-checked against Bron-Kerbosch enumeration.
bool checkSsaChordalMaxlive(const ir::Function &F, std::string *Error,
                            unsigned BruteForceLimit = 12);

/// Oracle 2 (Section 3). Interprets \p F, lowers a copy out of SSA, and
/// checks that the lowered program is a valid CFG producing identical return
/// values. \p F must be strict SSA.
bool checkOutOfSsaSemantics(const ir::Function &F, std::string *Error);

/// Shared soundness predicate for one produced solution: class ids dense and
/// valid, no two interfering vertices merged, affinity stats consistent,
/// and -- when \p RequireGreedy -- the coalesced graph G_f still
/// greedy-k-colorable with \p P.K colors.
bool checkSolutionSound(const CoalescingProblem &P,
                        const CoalescingSolution &S, bool RequireGreedy,
                        std::string *Error);

/// Oracle 3 (Section 4). Runs every strategy in the StrategyRegistry with
/// default options and checks each output with checkSolutionSound, plus
/// IRC's coloring/spill invariants directly. Greedy-k-colorability of the
/// quotient is required whenever the input graph is greedy-k-colorable
/// (except for the aggressive baseline, which ignores k by design); on
/// chordal inputs with omega <= k the chordal strategy's quotient must
/// additionally stay chordal with omega <= k. Engine telemetry counters
/// must stay mutually consistent for every strategy. \p Only, when non-null
/// and non-empty, restricts the check to the named strategies (the
/// rc_fuzz --strategies filter).
bool checkCoalescerSoundness(const CoalescingProblem &P, std::string *Error,
                             const std::vector<std::string> *Only = nullptr);

/// Oracle 4. Differential comparison against exact search, intended for
/// instances of at most ~12 vertices: the greedy-regime optimum of
/// exactCoalesceSearch upper-bounds every conservative rule's coalesced
/// weight, and the k-colorable-regime optimum the Theorem 5 strategy's --
/// a heuristic exceeding its bound has performed a merge outside the
/// feasible space (unsound). Also re-validates each heuristic quotient with
/// an exact k-coloring. \p GapOut, when non-null, receives the worst
/// heuristic optimality gap (optimum minus heuristic weight).
bool checkDifferentialExact(const CoalescingProblem &P, std::string *Error,
                            double *GapOut = nullptr);

/// The three exact optima of one instance (coalesced weight), one per
/// exactCoalesceSearch feasibility regime.
struct BruteForceOptima {
  double Greedy = 0;
  double KColor = 0;
  double Any = 0;
};

/// The most affinities bruteForceOptima accepts (2^14 subsets).
constexpr size_t BruteForceAffinityLimit = 14;

/// The independent reference for exactCoalesceSearch: enumerates every
/// affinity subset, builds the induced partition with a UnionFind (no
/// WorkGraph), and keeps the best weight whose quotient passes each
/// regime's test -- none, exact k-coloring, greedy-k-colorability.
/// Exponential in the number of affinities; requires at most
/// BruteForceAffinityLimit of them. A regime with no feasible subset
/// reports 0; when the input is greedy-k-colorable the identity is
/// feasible in all three.
BruteForceOptima bruteForceOptima(const CoalescingProblem &P);

/// The textbook Briggs rule on a plain graph — the reference for the
/// engine's cached test (WorkGraph::briggsSafe): merging vertices \p U and
/// \p V of \p Quotient is safe iff fewer than \p K neighbors of the merged
/// vertex have degree >= \p K afterwards. A common neighbor of \p U and
/// \p V loses one degree in the merge; \p U and \p V themselves are never
/// counted. \p Quotient is typically WorkGraph::quotientGraph(), with \p U
/// and \p V the class ids WorkGraph::solution() assigns; no engine state is
/// read.
bool briggsOnQuotient(const Graph &Quotient, unsigned U, unsigned V,
                      unsigned K);

/// The textbook George rule on a plain graph — the reference for
/// WorkGraph::georgeSafe: merging \p U into \p V is safe iff every
/// neighbor of \p U other than \p V with degree >= \p K is a neighbor of
/// \p V. Asymmetric.
bool georgeOnQuotient(const Graph &Quotient, unsigned U, unsigned V,
                      unsigned K);

/// Oracle 7. Cross-checks the exact optimal baselines on instances of at
/// most 12 vertices and BruteForceAffinityLimit affinities:
/// exactCoalesceSearch (unlimited) must reach the bruteForceOptima optimum
/// in all three feasibility regimes -- Greedy, ExactColor and Any -- and
/// the three optima must nest (greedy <= kcolor <= aggressive); every
/// registered strategy must stay within the aggressive optimum, every one
/// but aggressive within the k-colorable optimum, and the affinity-subset
/// conservative strategies within the greedy optimum; on chordal inputs
/// with omega <= k, the BFS Theorem 5 decision, the clique-tree DP, and
/// exactKColoringWithEquality must agree per affinity (plus the DP's
/// minimality guarantees against the BFS chain). Trivially true when the
/// input is not greedy-k-colorable.
bool checkExactGapSound(const CoalescingProblem &P, std::string *Error);

/// Oracle 5. Drives a WorkGraph over \p Steps random merge attempts drawn
/// from \p Rand and compares, after every operation, sameClass / interfere /
/// degree / numClasses and periodically the whole quotient graph against a
/// naive rebuild-from-scratch oracle (union-find labels + all-pairs member
/// scans on the original graph).
bool checkWorkGraphIncremental(const Graph &G, unsigned Steps, Rng &Rand,
                               std::string *Error);

/// Oracle 6. Drives a forced-dense and a forced-sparse WorkGraph through
/// the same \p Steps random checkpoint / merge / rollback script and
/// checks that (a) every rollback restores the partition captured at its
/// checkpoint, (b) both adjacency representations agree on interference,
/// degrees, partitions and quotients throughout, and (c) the engine
/// telemetry counters are consistent with the script.
bool checkWorkGraphRollback(const Graph &G, unsigned Steps, Rng &Rand,
                            std::string *Error);

/// Oracle 7. Drives three WorkGraphs with degree caches at pressure \p K
/// through the same \p Steps random checkpoint / merge / rollback script:
/// a forced-sparse one tiling every class row (setTileMinDegree(0)), a
/// forced-sparse one never tiling (setTileMinDegree(~0u)), and a
/// forced-dense one. For random class pairs it checks that (a) the tiled
/// popcount sweeps and the sorted-row merge-walks return identical Briggs
/// (across a spread of limits) and George decisions, pitted directly
/// against each other on both sparse engines, and (b) briggsSafe and
/// georgeSafe on all three engines match the textbook rules
/// (briggsOnQuotient / georgeOnQuotient) on the current quotient graph.
bool checkSparseTiledParity(const Graph &G, unsigned K, unsigned Steps,
                            Rng &Rand, std::string *Error);

/// Oracle 8. On a greedy-k-colorable \p G (trivially true otherwise),
/// drives a forced-dense and a forced-sparse WorkGraph with degree caches
/// at \p K through \p Steps random merge probes. Each probe merges under a
/// checkpoint and checks that the local test
/// (mergedQuotientGreedyKColorable) and the whole-quotient peel
/// (quotientGreedyKColorable) agree on pass/fail and on the exact sorted
/// stuck set; a passing merge is committed, a failing one rolled back, so
/// the quotient stays greedy-k-colorable — the local test's precondition.
/// Both engines must decide every probe alike and count one colorability
/// check per call.
bool checkMergeColorabilityParity(const Graph &G, unsigned K, unsigned Steps,
                                  Rng &Rand, std::string *Error);

/// Oracle 9. An answer is a function of the instance: \p P's edges rebuilt
/// in reversed insertion order, in an order shuffled by \p Rand (each with
/// its endpoints flipped), and \p P read back from its text and its RCBF
/// serializations must give every registered strategy the same outcome
/// bytes (writeOutcomeJson without timing) as \p P itself.
bool checkOrderInvariance(const CoalescingProblem &P, Rng &Rand,
                          std::string *Error);

} // namespace testing
} // namespace rc

#endif // TESTING_ORACLES_H
