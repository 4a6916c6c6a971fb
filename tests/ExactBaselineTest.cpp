//===- tests/ExactBaselineTest.cpp - Exact optimal baselines ----------------===//
//
// Differential tests locking the exact branch and bound to the independent
// brute-force enumerator (testing::bruteForceOptima) in all three
// feasibility regimes, plus the cancellation / determinism contracts the gap
// dashboard (runner/GapReport, tools/rc_gap) relies on.

#include "challenge/ChallengeInstance.h"
#include "challenge/StrategyRegistry.h"
#include "coalescing/ChordalIncremental.h"
#include "coalescing/ChordalStrategy.h"
#include "coalescing/ExactSearch.h"
#include "graph/Chordal.h"
#include "graph/ExactColoring.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"
#include "runner/GapReport.h"
#include "support/CancelToken.h"
#include "testing/Oracles.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rc;
using namespace rc::testing;

namespace {

constexpr double Eps = 1e-9;

/// A small random instance with K at least the coloring number, so the
/// greedy regime always has the identity as a feasible point.
CoalescingProblem smallInstance(Rng &Rand, bool Chordal) {
  CoalescingProblem P;
  unsigned N = 5 + static_cast<unsigned>(Rand.nextBelow(5));
  P.G = Chordal ? randomChordalGraph(N, N, 3, Rand)
                : randomGraph(N, 0.3 + 0.3 * Rand.nextDouble(), Rand);
  P.K = coloringNumber(P.G) + static_cast<unsigned>(Rand.nextBelow(2));
  for (unsigned A = 0; A < 9; ++A) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U != V && !P.G.hasEdge(U, V))
      P.Affinities.push_back(
          {U, V, 1.0 + static_cast<double>(Rand.nextBelow(9))});
  }
  return P;
}

CoalescingProblem challengeInstance(uint64_t Seed, unsigned N,
                                    unsigned Slack) {
  Rng Rand(Seed);
  ChallengeOptions Options;
  Options.NumValues = N;
  Options.TreeSize = N / 2;
  Options.PressureSlack = Slack;
  return generateChallengeInstance(Options, Rand);
}

ExactSearchResult searchWith(const CoalescingProblem &P,
                             ExactFeasibility Feasibility,
                             uint64_t NodeLimit = UINT64_MAX,
                             const CancelToken *Cancel = nullptr) {
  ExactSearchOptions Options;
  Options.Feasibility = Feasibility;
  Options.NodeLimit = NodeLimit;
  return exactCoalesceSearch(P, Options, /*Telemetry=*/nullptr, Cancel);
}

} // namespace

//===----------------------------------------------------------------------===//
// Agreement with brute force, in all three feasibility regimes.
//===----------------------------------------------------------------------===//

TEST(ExactBaselineTest, SolversMatchBruteForceEnumeration) {
  Rng Rand(4201);
  for (int Trial = 0; Trial < 24; ++Trial) {
    CoalescingProblem P = smallInstance(Rand, Trial % 2 == 0);
    ASSERT_LE(P.Affinities.size(), BruteForceAffinityLimit);
    BruteForceOptima Brute = bruteForceOptima(P);
    ASSERT_LE(Brute.Greedy, Brute.KColor + Eps);
    ASSERT_LE(Brute.KColor, Brute.Any + Eps);

    ExactSearchResult BBGreedy = searchWith(P, ExactFeasibility::Greedy);
    ASSERT_TRUE(BBGreedy.Optimal);
    EXPECT_FALSE(BBGreedy.TimedOut);
    EXPECT_NEAR(BBGreedy.BestWeight, Brute.Greedy, Eps) << "trial " << Trial;
    ExactSearchResult BBColor = searchWith(P, ExactFeasibility::ExactColor);
    ASSERT_TRUE(BBColor.Optimal);
    EXPECT_NEAR(BBColor.BestWeight, Brute.KColor, Eps) << "trial " << Trial;
    ExactSearchResult BBAny = searchWith(P, ExactFeasibility::Any);
    ASSERT_TRUE(BBAny.Optimal);
    EXPECT_NEAR(BBAny.BestWeight, Brute.Any, Eps) << "trial " << Trial;

    // The winning solutions must themselves be sound for their regime.
    std::string Err;
    EXPECT_TRUE(checkSolutionSound(P, BBGreedy.Solution,
                                   /*RequireGreedy=*/true, &Err))
        << Err;
    EXPECT_TRUE(
        checkSolutionSound(P, BBAny.Solution, /*RequireGreedy=*/false, &Err))
        << Err;
  }
}

TEST(ExactBaselineTest, GapSoundOracleHoldsOnRandomInstances) {
  Rng Rand(4202);
  for (int Trial = 0; Trial < 12; ++Trial) {
    CoalescingProblem P = smallInstance(Rand, Trial % 2 == 0);
    std::string Err;
    EXPECT_TRUE(checkExactGapSound(P, &Err)) << "trial " << Trial << ": "
                                             << Err;
  }
}

//===----------------------------------------------------------------------===//
// The Theorem 5 decision implementations on the canonical gapped chain.
//===----------------------------------------------------------------------===//

TEST(ExactBaselineTest, GappedChainDecisionAgreesAcrossImplementations) {
  // Path 0-2-3-1 at k = 3 (the checked-in exact-gap-sound reproducer): the
  // affinity (0, 1) is feasible only through the free color slot of the
  // middle clique {2, 3} -- no real-vertex chain tiles the clique-tree
  // path, so every implementation must agree on "feasible, gapped".
  GraphBuilder GB(4);
  GB.addEdge(0, 2);
  GB.addEdge(1, 3);
  GB.addEdge(2, 3);
  const unsigned K = 3;
  Graph G = std::move(GB).build();
  ASSERT_TRUE(isChordal(G));

  ChordalIncrementalResult Bfs = chordalIncrementalCoalescing(G, 0, 1, K);
  EXPECT_TRUE(Bfs.Feasible);
  EXPECT_FALSE(Bfs.GapFree);
  ASSERT_EQ(static_cast<int>(Bfs.Witness.size()), 4);
  EXPECT_EQ(Bfs.Witness[0], Bfs.Witness[1]);
  EXPECT_TRUE(isValidColoring(G, Bfs.Witness, static_cast<int>(K)));

  ChordalIncrementalResult Dp = chordalIncrementalDP(G, 0, 1, K);
  EXPECT_TRUE(Dp.Feasible);
  EXPECT_FALSE(Dp.GapFree);
  EXPECT_EQ(Dp.MergedChain, (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(Dp.Witness[0], Dp.Witness[1]);
  EXPECT_TRUE(isValidColoring(G, Dp.Witness, static_cast<int>(K)));

  EXPECT_TRUE(exactKColoringWithEquality(G, 0, 1, K).Colorable);

  // At k = 2 the slack disappears and all three must flip to infeasible.
  EXPECT_FALSE(chordalIncrementalCoalescing(G, 0, 1, 2).Feasible);
  EXPECT_FALSE(chordalIncrementalDP(G, 0, 1, 2).Feasible);
  EXPECT_FALSE(exactKColoringWithEquality(G, 0, 1, 2).Colorable);
}

TEST(ExactBaselineTest, DpStrategyQuotientStaysChordalWithinK) {
  Rng Rand(4203);
  for (int Trial = 0; Trial < 8; ++Trial) {
    CoalescingProblem P;
    unsigned N = 16 + static_cast<unsigned>(Rand.nextBelow(9));
    P.G = randomChordalGraph(N, N / 2, 3, Rand);
    P.K = chordalCliqueNumber(P.G) + Trial % 3;
    for (unsigned A = 0; A < N; ++A) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
      if (U != V && !P.G.hasEdge(U, V))
        P.Affinities.push_back(
            {U, V, 1.0 + static_cast<double>(Rand.nextBelow(9))});
    }
    ChordalStrategyResult R = chordalCoalesce(P, ChordalChain::FewestMerges);
    EXPECT_FALSE(R.TimedOut);
    EXPECT_TRUE(isValidCoalescing(P.G, R.Solution));
    Graph Q = buildCoalescedGraph(P.G, R.Solution);
    EXPECT_TRUE(isChordal(Q));
    EXPECT_LE(chordalCliqueNumber(Q), P.K);
    EXPECT_NEAR(R.Stats.CoalescedWeight + R.Stats.UncoalescedWeight,
                totalAffinityWeight(P), Eps);
  }
}

//===----------------------------------------------------------------------===//
// Cancellation: pre-cancelled tokens and armed deadlines.
//===----------------------------------------------------------------------===//

TEST(ExactBaselineTest, PreCancelledTokenAbortsExactSearchSoundly) {
  CoalescingProblem P = challengeInstance(/*Seed=*/11, /*N=*/48, /*Slack=*/2);
  CancelToken Token;
  Token.cancel();
  ExactSearchResult R =
      searchWith(P, ExactFeasibility::Greedy, UINT64_MAX, &Token);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_FALSE(R.Optimal);
  std::string Err;
  EXPECT_TRUE(checkSolutionSound(P, R.Solution,
                                 isGreedyKColorable(P.G, P.K), &Err))
      << Err;
}

TEST(ExactBaselineTest, ExpiredDeadlineAbortsExactSearchSoundly) {
  // A zero-length deadline is only noticed through polling -- this locks
  // the search's safe points actually polling the token.
  CoalescingProblem P = challengeInstance(/*Seed=*/12, /*N=*/64, /*Slack=*/0);
  CancelToken Token(std::chrono::milliseconds(0));
  ExactSearchResult R =
      searchWith(P, ExactFeasibility::Greedy, UINT64_MAX, &Token);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_FALSE(R.Optimal);
  std::string Err;
  EXPECT_TRUE(checkSolutionSound(P, R.Solution,
                                 isGreedyKColorable(P.G, P.K), &Err))
      << Err;
}

TEST(ExactBaselineTest, PreCancelledTokenAbortsChordalDP) {
  CoalescingProblem P = challengeInstance(/*Seed=*/13, /*N=*/48, /*Slack=*/2);
  ASSERT_TRUE(isChordal(P.G));
  for (ChordalChain Chain : {ChordalChain::Any, ChordalChain::FewestMerges}) {
    CancelToken Token;
    Token.cancel();
    ChordalStrategyResult R = chordalCoalesce(P, Chain, nullptr, &Token);
    EXPECT_TRUE(R.TimedOut);
    EXPECT_EQ(R.Stats.CoalescedAffinities, 0u);
    std::string Err;
    EXPECT_TRUE(
        checkSolutionSound(P, R.Solution, /*RequireGreedy=*/true, &Err))
        << Err;
  }
}

TEST(ExactBaselineTest, ExpiredDeadlineAbortsChordalDP) {
  CoalescingProblem P = challengeInstance(/*Seed=*/14, /*N=*/48, /*Slack=*/0);
  for (ChordalChain Chain : {ChordalChain::Any, ChordalChain::FewestMerges}) {
    CancelToken Token(std::chrono::milliseconds(0));
    ChordalStrategyResult R = chordalCoalesce(P, Chain, nullptr, &Token);
    EXPECT_TRUE(R.TimedOut);
    EXPECT_EQ(R.Stats.CoalescedAffinities, 0u);
    std::string Err;
    EXPECT_TRUE(
        checkSolutionSound(P, R.Solution, /*RequireGreedy=*/true, &Err))
        << Err;
  }
}

//===----------------------------------------------------------------------===//
// Deterministic node limits -- the dashboard's reproducibility contract.
//===----------------------------------------------------------------------===//

TEST(ExactBaselineTest, NodeLimitedSearchIsDeterministic) {
  CoalescingProblem P = challengeInstance(/*Seed=*/15, /*N=*/64, /*Slack=*/0);
  const uint64_t Limit = 2000;
  ExactSearchResult First = searchWith(P, ExactFeasibility::Greedy, Limit);
  ExactSearchResult Second = searchWith(P, ExactFeasibility::Greedy, Limit);
  EXPECT_FALSE(First.TimedOut);
  EXPECT_EQ(First.Optimal, Second.Optimal);
  EXPECT_EQ(First.NodesExplored, Second.NodesExplored);
  EXPECT_EQ(First.BoundPrunes, Second.BoundPrunes);
  EXPECT_EQ(First.BestWeight, Second.BestWeight);
  EXPECT_EQ(First.Solution.ClassIds, Second.Solution.ClassIds);
  EXPECT_LE(First.NodesExplored, Limit + 1);
  std::string Err;
  EXPECT_TRUE(checkSolutionSound(P, First.Solution,
                                 isGreedyKColorable(P.G, P.K), &Err))
      << Err;
}

TEST(ExactBaselineTest, ScaledNodeLimitMatchesDocumentedSchedule) {
  EXPECT_EQ(scaledNodeLimit(400000, 32), 400000u);
  EXPECT_EQ(scaledNodeLimit(400000, 64), 400000u);
  EXPECT_EQ(scaledNodeLimit(400000, 96), 100000u);
  EXPECT_EQ(scaledNodeLimit(400000, 128), 100000u);
  EXPECT_EQ(scaledNodeLimit(400000, 256), 25000u);
  EXPECT_EQ(scaledNodeLimit(8, 512), 1000u) << "floor at 1000 nodes";
}

//===----------------------------------------------------------------------===//
// The gap report: byte-stable across worker counts, invariants hold.
//===----------------------------------------------------------------------===//

TEST(ExactBaselineTest, GapReportIsByteStableAcrossJobCounts) {
  std::vector<LabeledProblem> Problems;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    std::ostringstream Label;
    Label << "mini seed=" << Seed;
    Problems.push_back(
        {Label.str(), challengeInstance(Seed, /*N=*/24, /*Slack=*/2)});
  }
  std::vector<std::string> Specs = defaultGapSpecs();
  const uint64_t BaseNodeLimit = 20000;

  GapReport Serial = computeGapReport(Problems, Specs, BaseNodeLimit,
                                      /*Jobs=*/1);
  GapReport Parallel = computeGapReport(Problems, Specs, BaseNodeLimit,
                                        /*Jobs=*/3);
  std::ostringstream SerialJson, ParallelJson;
  writeGapJson(SerialJson, Serial);
  writeGapJson(ParallelJson, Parallel);
  EXPECT_EQ(SerialJson.str(), ParallelJson.str());

  std::string Err;
  EXPECT_TRUE(checkGapInvariants(Serial, &Err)) << Err;
  ASSERT_EQ(Serial.Instances.size(), Problems.size());
  for (const GapInstanceEntry &Instance : Serial.Instances) {
    ASSERT_EQ(Instance.Strategies.size(), Specs.size());
    EXPECT_GT(Instance.TotalWeight, 0.0);
  }
}

TEST(ExactBaselineTest, AffinitySubsetSpaceWhitelistMatchesRegistry) {
  // Every whitelisted name must exist in the registry, and the chain-merge /
  // pure-coloring strategies must stay off the whitelist -- a rename that
  // silently drops a strategy from the greedy bound would otherwise pass.
  StrategyRegistry &Registry = StrategyRegistry::instance();
  unsigned Whitelisted = 0;
  for (const std::string &Name : Registry.names())
    if (withinAffinitySubsetSpace(Name))
      ++Whitelisted;
  EXPECT_EQ(Whitelisted, 7u);
  EXPECT_TRUE(withinAffinitySubsetSpace("briggs"));
  EXPECT_TRUE(withinAffinitySubsetSpace("exact-bb"));
  EXPECT_FALSE(withinAffinitySubsetSpace("aggressive"));
  EXPECT_FALSE(withinAffinitySubsetSpace("chordal-thm5"));
  EXPECT_FALSE(withinAffinitySubsetSpace("exact-chordal-dp"));
  EXPECT_FALSE(withinAffinitySubsetSpace("biased-select"));
  EXPECT_FALSE(withinAffinitySubsetSpace("no-such-strategy"));
}
