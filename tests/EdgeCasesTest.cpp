//===- tests/EdgeCasesTest.cpp - degenerate inputs everywhere -----------------===//
//
// Every public entry point on empty / singleton / degenerate inputs.
//
//===----------------------------------------------------------------------===//

#include "challenge/StrategyRunner.h"
#include "coalescing/Aggressive.h"
#include "coalescing/BiasedColoring.h"
#include "coalescing/ChordalIncremental.h"
#include "coalescing/ChordalStrategy.h"
#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "coalescing/IteratedRegisterCoalescing.h"
#include "coalescing/NodeMerging.h"
#include "coalescing/Optimistic.h"
#include "coalescing/Spilling.h"
#include "graph/Chordal.h"
#include "graph/CliqueTree.h"
#include "graph/ExactColoring.h"
#include "graph/GreedyColorability.h"

#include <gtest/gtest.h>

using namespace rc;

namespace {

CoalescingProblem emptyProblem(unsigned K) {
  CoalescingProblem P;
  P.K = K;
  return P;
}

} // namespace

TEST(EdgeCasesTest, EmptyProblemAllStrategies) {
  CoalescingProblem P = emptyProblem(2);
  EXPECT_EQ(aggressiveCoalesceGreedy(P).Stats.CoalescedAffinities, 0u);
  EXPECT_TRUE(exactCoalesceSearch(P, {ExactFeasibility::Any}).Optimal);
  for (ConservativeRule Rule :
       {ConservativeRule::Briggs, ConservativeRule::George,
        ConservativeRule::BriggsOrGeorge, ConservativeRule::BruteForce})
    EXPECT_EQ(conservativeCoalesce(P, Rule).Solution.NumClasses, 0u);
  EXPECT_TRUE(optimisticCoalesce(P).GreedyKColorable);
  EXPECT_TRUE(iteratedRegisterCoalescing(P).Spilled.empty());
  EXPECT_TRUE(exactCoalesceSearch(P, {ExactFeasibility::Greedy}).Optimal);
  for (ChordalChain Chain : {ChordalChain::Any, ChordalChain::FewestMerges})
    EXPECT_EQ(chordalCoalesce(P, Chain).Stats.CoalescedAffinities, 0u);
  EXPECT_TRUE(biasedColoring(P).Colors.empty());
}

TEST(EdgeCasesTest, SingleVertexNoAffinities) {
  CoalescingProblem P;
  P.G = GraphBuilder(1).build();
  P.K = 1;
  OptimisticResult O = optimisticCoalesce(P);
  EXPECT_TRUE(O.GreedyKColorable);
  IrcResult I = iteratedRegisterCoalescing(P);
  EXPECT_EQ(I.Colors[0], 0);
  BiasedColoringResult B = biasedColoring(P);
  EXPECT_EQ(B.Colors[0], 0);
}

TEST(EdgeCasesTest, SelfAffinityEndpointsAlreadyMerged) {
  // An affinity whose endpoints are merged transitively: stats count it as
  // coalesced exactly once.
  CoalescingProblem P;
  P.G = GraphBuilder(3).build();
  P.K = 1;
  P.Affinities = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  AggressiveResult R = aggressiveCoalesceGreedy(P);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 3u);
  EXPECT_EQ(R.Solution.NumClasses, 1u);
}

TEST(EdgeCasesTest, DuplicateAffinitiesCountSeparately) {
  CoalescingProblem P;
  P.G = GraphBuilder(2).build();
  P.K = 1;
  P.Affinities = {{0, 1, 1.0}, {0, 1, 2.0}};
  AggressiveResult R = aggressiveCoalesceGreedy(P);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 2u);
  EXPECT_DOUBLE_EQ(R.Stats.CoalescedWeight, 3.0);
}

TEST(EdgeCasesTest, ZeroRegisterGraphs) {
  Graph Empty;
  EXPECT_TRUE(isGreedyKColorable(Empty, 0));
  EXPECT_TRUE(isChordal(Empty));
  EXPECT_EQ(chordalCliqueNumber(Empty), 0u);
  EXPECT_TRUE(exactKColoring(Empty, 0).Colorable);
  CliqueTree T = CliqueTree::build(Empty);
  EXPECT_EQ(T.numNodes(), 0u);
  EXPECT_TRUE(T.verify(Empty));
}

TEST(EdgeCasesTest, SpillEverythingWhenKIsOne) {
  Graph G = Graph::complete(4);
  SpillResult R = spillToGreedyK(G, 1);
  EXPECT_EQ(R.Spilled.size(), 3u);
  EXPECT_EQ(G.inducedSubgraph(R.Kept).numVertices(), 1u);
}

TEST(EdgeCasesTest, NodeMergingOnEmptyAndSingleton) {
  EXPECT_TRUE(mergeNodesForColorability(Graph(), 1).GreedyKColorable);
  EXPECT_TRUE(mergeNodesForColorability(GraphBuilder(1).build(), 1).GreedyKColorable);
}

TEST(EdgeCasesTest, StrategyRunnerOnEmptyProblem) {
  CoalescingProblem P = emptyProblem(3);
  for (const StrategyOutcome &O : runAllStrategies(P)) {
    EXPECT_EQ(O.Stats.CoalescedAffinities, 0u);
    EXPECT_DOUBLE_EQ(O.CoalescedWeightRatio, 1.0); // No weight to win.
    EXPECT_TRUE(O.QuotientGreedyKColorable);
  }
}

TEST(EdgeCasesTest, AffinityHeavierThanAllOthersWinsFirst) {
  // Conflict triangle: (0,1) blocks (1,2) and (0,2) via interference after
  // merging; heaviest must win in every greedy driver.
  CoalescingProblem P;
  GraphBuilder GB(3);
  GB.addEdge(0, 2); // 0 and 2 interfere.
  P.K = 2;
  P.Affinities = {{0, 1, 1.0}, {1, 2, 100.0}};
  P.G = std::move(GB).build();
  EXPECT_DOUBLE_EQ(aggressiveCoalesceGreedy(P).Stats.CoalescedWeight, 100.0);
  EXPECT_DOUBLE_EQ(
      conservativeCoalesce(P, ConservativeRule::BruteForce)
          .Stats.CoalescedWeight,
      100.0);
  EXPECT_DOUBLE_EQ(optimisticCoalesce(P).Stats.CoalescedWeight, 100.0);
}

TEST(EdgeCasesTest, IrcAllVerticesIsolated) {
  CoalescingProblem P;
  P.G = GraphBuilder(10).build();
  P.K = 1;
  IrcResult R = iteratedRegisterCoalescing(P);
  EXPECT_TRUE(R.Spilled.empty());
  for (int C : R.Colors)
    EXPECT_EQ(C, 0);
}

TEST(EdgeCasesTest, ChordalIncrementalOnTwoIsolatedVertices) {
  Graph G = GraphBuilder(2).build();
  for (const ChordalIncrementalResult &R :
       {chordalIncrementalCoalescing(G, 0, 1, 1),
        chordalIncrementalDP(G, 0, 1, 1)}) {
    ASSERT_TRUE(R.Feasible);
    EXPECT_EQ(R.Witness[0], R.Witness[1]);
  }
}
