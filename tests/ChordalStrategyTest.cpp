//===- tests/ChordalStrategyTest.cpp - Theorem 5 strategy -------------------===//

#include "coalescing/ChordalIncremental.h"
#include "coalescing/ChordalStrategy.h"
#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "graph/Chordal.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"
#include "runner/GapReport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace rc;

namespace {

constexpr ChordalChain BothChains[] = {ChordalChain::Any,
                                       ChordalChain::FewestMerges};

CoalescingProblem chordalInstance(Rng &Rand, unsigned N, unsigned NumAff,
                                  unsigned Slack) {
  CoalescingProblem P;
  P.G = randomChordalGraph(N, N / 2, 3, Rand);
  P.K = chordalCliqueNumber(P.G) + Slack;
  for (unsigned A = 0; A < NumAff; ++A) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U != V && !P.G.hasEdge(U, V))
      P.Affinities.push_back(
          {U, V, 1.0 + static_cast<double>(Rand.nextBelow(9))});
  }
  return P;
}

} // namespace

TEST(ChordalStrategyTest, CoalescesSimplePath) {
  CoalescingProblem P;
  P.G = Graph::path(3);
  P.K = 2;
  P.Affinities = {{0, 2, 1.0}};
  ChordalStrategyResult R = chordalCoalesce(P);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 1u);
  EXPECT_EQ(R.InfeasibleAffinities, 0u);
}

TEST(ChordalStrategyTest, ReportsInfeasibleAffinities) {
  // The 3-sun-like example where x and y can never share a color at k = 3.
  GraphBuilder GB(5);
  GB.addClique({0, 1, 2});
  GB.addEdge(3, 0);
  GB.addEdge(3, 1);
  GB.addEdge(4, 1);
  GB.addEdge(4, 2);
  CoalescingProblem P;
  Graph G = std::move(GB).build();
  P.G = G;
  P.K = 3;
  P.Affinities = {{3, 4, 1.0}};
  ChordalStrategyResult R = chordalCoalesce(P);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 0u);
  EXPECT_EQ(R.InfeasibleAffinities, 1u);
}

TEST(ChordalStrategyTest, QuotientStaysKColorable) {
  Rng Rand(181);
  for (int Trial = 0; Trial < 12; ++Trial) {
    CoalescingProblem P = chordalInstance(Rand, 18, 12, Trial % 3);
    for (ChordalChain Chain : BothChains) {
      ChordalStrategyResult R = chordalCoalesce(P, Chain);
      EXPECT_FALSE(R.TimedOut);
      EXPECT_TRUE(isValidCoalescing(P.G, R.Solution));
      Graph Q = buildCoalescedGraph(P.G, R.Solution);
      EXPECT_TRUE(isChordal(Q));
      EXPECT_LE(chordalCliqueNumber(Q), P.K);
      EXPECT_TRUE(isGreedyKColorable(Q, P.K));
      EXPECT_NEAR(R.Stats.CoalescedWeight + R.Stats.UncoalescedWeight,
                  totalAffinityWeight(P), 1e-9);
    }
  }
}

TEST(ChordalStrategyTest, ChainMergesKeepOmega) {
  // The defining property: chain merges never raise the clique number.
  Rng Rand(182);
  for (int Trial = 0; Trial < 12; ++Trial) {
    CoalescingProblem P = chordalInstance(Rand, 16, 10, 0);
    unsigned OmegaBefore = chordalCliqueNumber(P.G);
    for (ChordalChain Chain : BothChains) {
      ChordalStrategyResult R = chordalCoalesce(P, Chain);
      Graph Q = buildCoalescedGraph(P.G, R.Solution);
      EXPECT_LE(chordalCliqueNumber(Q), OmegaBefore);
    }
  }
}

TEST(ChordalStrategyTest, AtLeastAsGoodAsBriggsAtHighPressure) {
  // Aggregate comparison at k = omega (the regime where local rules starve,
  // Section 4): the Theorem 5 strategy decides each affinity optimally.
  Rng Rand(183);
  double Thm5 = 0, Briggs = 0;
  for (int Trial = 0; Trial < 12; ++Trial) {
    CoalescingProblem P = chordalInstance(Rand, 16, 10, 0);
    Thm5 += chordalCoalesce(P).Stats.CoalescedWeight;
    Briggs +=
        conservativeCoalesce(P, ConservativeRule::Briggs)
            .Stats.CoalescedWeight;
  }
  EXPECT_GE(Thm5 + 1e-9, Briggs * 0.9)
      << "Theorem 5 strategy collapsed versus Briggs";
}

TEST(ChordalStrategyTest, FirstAffinityDecisionIsOptimal) {
  // For the single heaviest affinity, the strategy's accept/reject decision
  // matches the exact constrained-coloring answer by construction; verify
  // end to end on instances with exactly one affinity.
  Rng Rand(184);
  for (int Trial = 0; Trial < 15; ++Trial) {
    CoalescingProblem P = chordalInstance(Rand, 14, 1, 0);
    if (P.Affinities.empty())
      continue;
    ExactSearchResult Exact =
        exactCoalesceSearch(P, {ExactFeasibility::ExactColor});
    ASSERT_TRUE(Exact.Optimal);
    for (ChordalChain Chain : BothChains)
      EXPECT_EQ(chordalCoalesce(P, Chain).Stats.CoalescedAffinities,
                Exact.Stats.CoalescedAffinities);
  }
}

TEST(ChordalStrategyTest, GappedChainsCommitAndStayChordal) {
  // The path 0-2-3-1 at k = 3: (0, 1) is feasible only through the free
  // slot of the middle clique {2, 3}, so both chain rules pick a gapped
  // chain, and the strategy merges it.
  CoalescingProblem Path;
  Path.K = 3;
  GraphBuilder GB(4);
  GB.addEdge(0, 2);
  GB.addEdge(2, 3);
  GB.addEdge(3, 1);
  Path.Affinities.push_back({0, 1, 1.0});
  Path.G = std::move(GB).build();
  EXPECT_FALSE(chordalIncrementalCoalescing(Path.G, 0, 1, 3).GapFree);
  EXPECT_FALSE(chordalIncrementalDP(Path.G, 0, 1, 3).GapFree);
  for (ChordalChain Chain : BothChains) {
    ChordalStrategyResult R = chordalCoalesce(Path, Chain);
    EXPECT_EQ(R.Solution.ClassIds[0], R.Solution.ClassIds[1]);
    EXPECT_EQ(R.InfeasibleAffinities, 0u);
  }

  // No chain either rule picks breaks chordality when merged (the argument
  // is on ChordalStrategyResult; chordalCoalesce asserts it per merge).
  // Random chordal and interval graphs, every non-edge an affinity.
  Rng Rand(4242);
  unsigned Gapped = 0;
  for (unsigned Trial = 0; Trial < 300; ++Trial) {
    unsigned N = 4 + static_cast<unsigned>(Rand.nextBelow(11));
    CoalescingProblem P;
    P.G = Trial % 2 ? randomIntervalGraph(N, 3 + N, 4, Rand)
                    : randomChordalGraph(N, 2 + N / 2, 2, Rand);
    P.K = chordalCliqueNumber(P.G) + static_cast<unsigned>(Rand.nextBelow(3));
    for (unsigned U = 0; U < N; ++U)
      for (unsigned V = U + 1; V < N; ++V)
        if (!P.G.hasEdge(U, V)) {
          P.Affinities.push_back(
              {U, V, 1.0 + static_cast<double>(Rand.nextBelow(9))});
          ChordalIncrementalResult D =
              chordalIncrementalCoalescing(P.G, U, V, P.K);
          Gapped += D.Feasible && !D.GapFree;
        }
    for (ChordalChain Chain : BothChains) {
      ChordalStrategyResult R = chordalCoalesce(P, Chain);
      ASSERT_TRUE(isValidCoalescing(P.G, R.Solution)) << Trial;
      EXPECT_TRUE(isChordal(
          P.G.quotient(R.Solution.ClassIds, R.Solution.NumClasses)))
          << Trial;
    }
  }
  EXPECT_GT(Gapped, 100u);
}

TEST(ChordalStrategyTest, MergesCountEachClassMergedAwayOnce) {
  // Each committed chain merges its classes into one, so the merge count
  // over a run is n minus the final class count, even when a class grows
  // over several commits. The class ids are numbered in order of first
  // appearance by vertex id: each is at most one more than the largest id
  // before it.
  for (const LabeledProblem &LP : goldenChallengeCorpus())
    for (ChordalChain Chain : BothChains) {
      std::string Name =
          LP.Label + (Chain == ChordalChain::Any ? " any" : " dp");
      CoalescingTelemetry T;
      ChordalStrategyResult R = chordalCoalesce(LP.Problem, Chain, &T);
      EXPECT_EQ(T.Merges, LP.Problem.G.numVertices() - R.Solution.NumClasses)
          << Name;
      EXPECT_EQ(T.MergesRolledBack, 0u) << Name;
      unsigned Seen = 0;
      for (unsigned V = 0; V < R.Solution.ClassIds.size(); ++V) {
        unsigned Id = R.Solution.ClassIds[V];
        ASSERT_LE(Id, Seen) << Name << " vertex " << V;
        Seen = std::max(Seen, Id + 1);
      }
      EXPECT_EQ(Seen, R.Solution.NumClasses) << Name;
    }
}
