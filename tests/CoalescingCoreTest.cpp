//===- tests/CoalescingCoreTest.cpp - Problem + WorkGraph -------------------===//

#include "coalescing/Problem.h"
#include "coalescing/WorkGraph.h"

#include <gtest/gtest.h>

using namespace rc;

TEST(ProblemTest, IdentitySolutionIsValid) {
  Graph G = Graph::cycle(5);
  CoalescingSolution S = identitySolution(G);
  EXPECT_TRUE(isValidCoalescing(G, S));
  EXPECT_EQ(S.NumClasses, 5u);
}

TEST(ProblemTest, InvalidWhenClassHasInterference) {
  GraphBuilder GB(3);
  GB.addEdge(0, 1);
  CoalescingSolution S;
  S.NumClasses = 2;
  S.ClassIds = {0, 0, 1}; // 0 and 1 interfere but share a class.
  Graph G = std::move(GB).build();
  EXPECT_FALSE(isValidCoalescing(G, S));
}

TEST(ProblemTest, EvaluateCountsWeights) {
  CoalescingProblem P;
  P.G = GraphBuilder(4).build();
  P.Affinities = {{0, 1, 2.0}, {2, 3, 5.0}};
  CoalescingSolution S;
  S.NumClasses = 3;
  S.ClassIds = {0, 0, 1, 2};
  CoalescingStats Stats = evaluateSolution(P, S);
  EXPECT_EQ(Stats.CoalescedAffinities, 1u);
  EXPECT_EQ(Stats.UncoalescedAffinities, 1u);
  EXPECT_DOUBLE_EQ(Stats.CoalescedWeight, 2.0);
  EXPECT_DOUBLE_EQ(Stats.UncoalescedWeight, 5.0);
  EXPECT_DOUBLE_EQ(totalAffinityWeight(P), 7.0);
}

TEST(ProblemTest, CoalescedGraphIsQuotient) {
  Graph G = Graph::path(4); // 0-1-2-3
  CoalescingSolution S;
  S.NumClasses = 3;
  S.ClassIds = {0, 1, 0, 2}; // Merge 0 and 2 (non-adjacent).
  Graph Q = buildCoalescedGraph(G, S);
  EXPECT_EQ(Q.numVertices(), 3u);
  EXPECT_TRUE(Q.hasEdge(0, 1));
  EXPECT_TRUE(Q.hasEdge(0, 2));
}

TEST(WorkGraphTest, InitialStateMirrorsGraph) {
  Graph G = Graph::path(3);
  WorkGraph WG(G);
  EXPECT_EQ(WG.numClasses(), 3u);
  EXPECT_TRUE(WG.interfere(0, 1));
  EXPECT_FALSE(WG.interfere(0, 2));
  EXPECT_EQ(WG.degree(1), 2u);
}

TEST(WorkGraphTest, MergeUnionsNeighborhoods) {
  Graph G = Graph::path(4); // 0-1-2-3
  WorkGraph WG(G);
  ASSERT_TRUE(WG.canMerge(0, 2));
  WG.merge(0, 2);
  EXPECT_TRUE(WG.sameClass(0, 2));
  EXPECT_EQ(WG.numClasses(), 3u);
  // Merged class {0,2} now interferes with both 1 and 3.
  EXPECT_TRUE(WG.interfere(0, 1));
  EXPECT_TRUE(WG.interfere(0, 3));
  EXPECT_TRUE(WG.interfere(2, 3));
  EXPECT_EQ(WG.degree(0), 2u);
}

TEST(WorkGraphTest, CannotMergeInterfering) {
  Graph G = Graph::path(2);
  WorkGraph WG(G);
  EXPECT_FALSE(WG.canMerge(0, 1));
}

TEST(WorkGraphTest, TransitiveInterferenceAfterMerges) {
  // 0-1, 2-3; merge 0,2 then the class interferes with both 1 and 3;
  // merging 1,3 afterwards gives two mutually interfering classes.
  GraphBuilder GB(4);
  GB.addEdge(0, 1);
  GB.addEdge(2, 3);
  Graph G = std::move(GB).build();
  WorkGraph WG(G);
  WG.merge(0, 2);
  ASSERT_TRUE(WG.canMerge(1, 3));
  WG.merge(1, 3);
  EXPECT_TRUE(WG.interfere(0, 1));
  EXPECT_EQ(WG.numClasses(), 2u);
}

TEST(WorkGraphTest, MembersTrackMergedVertices) {
  Graph G = GraphBuilder(5).build();
  WorkGraph WG(G);
  WG.merge(0, 3);
  WG.merge(3, 4);
  auto Members = WG.members(0);
  std::sort(Members.begin(), Members.end());
  EXPECT_EQ(Members, (std::vector<unsigned>{0, 3, 4}));
}

TEST(WorkGraphTest, SolutionRoundTripsThroughQuotient) {
  Graph G = Graph::cycle(6);
  WorkGraph WG(G);
  WG.merge(0, 2);
  WG.merge(3, 5);
  CoalescingSolution S = WG.solution();
  EXPECT_TRUE(isValidCoalescing(G, S));
  EXPECT_EQ(S.NumClasses, 4u);
  Graph Q1 = WG.quotientGraph();
  Graph Q2 = buildCoalescedGraph(G, S);
  EXPECT_EQ(Q1.numVertices(), Q2.numVertices());
  EXPECT_EQ(Q1.numEdges(), Q2.numEdges());
}

TEST(WorkGraphTest, CopySemantics) {
  Graph G = Graph::path(4);
  WorkGraph WG(G);
  WG.merge(0, 2);
  WorkGraph Copy = WG;
  Copy.merge(1, 3);
  EXPECT_EQ(WG.numClasses(), 3u);
  EXPECT_EQ(Copy.numClasses(), 2u);
  EXPECT_FALSE(WG.sameClass(1, 3));
  EXPECT_TRUE(Copy.sameClass(1, 3));
}
