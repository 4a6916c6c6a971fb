//===- tests/ColoringTest.cpp - coloring + greedy colorability -------------===//

#include "graph/Chordal.h"
#include "graph/Coloring.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"

#include <gtest/gtest.h>

using namespace rc;

TEST(ColoringTest, ValidColoringChecks) {
  Graph G = Graph::path(3);
  EXPECT_TRUE(isValidColoring(G, {0, 1, 0}, 2));
  EXPECT_FALSE(isValidColoring(G, {0, 0, 1}, 2)); // Monochromatic edge.
  EXPECT_FALSE(isValidColoring(G, {0, 1, 2}, 2)); // Exceeds bound.
  EXPECT_TRUE(isValidColoring(G, {0, 1, 2}, -1)); // Unbounded.
  EXPECT_FALSE(isValidColoring(G, {0, -1, 0}, 2)); // Uncolored vertex.
  EXPECT_FALSE(isValidColoring(G, {0, 1}, 2));     // Wrong size.
}

TEST(ColoringTest, PartialColoringValidity) {
  Graph G = Graph::path(3);
  EXPECT_TRUE(isPartialColoringValid(G, {0, -1, 0}));
  EXPECT_FALSE(isPartialColoringValid(G, {0, 0, -1}));
}

TEST(ColoringTest, NumColorsUsed) {
  EXPECT_EQ(numColorsUsed({}), 0u);
  EXPECT_EQ(numColorsUsed({-1, -1}), 0u);
  EXPECT_EQ(numColorsUsed({0, 2, 0}), 2u);
  EXPECT_EQ(numColorsUsed({0, 1, 2, 1}), 3u);
}

TEST(ColoringTest, GreedyColorInOrderIsValid) {
  Graph G = Graph::cycle(5);
  Coloring C = greedyColorInOrder(G, {0, 1, 2, 3, 4});
  EXPECT_TRUE(isValidColoring(G, C));
  EXPECT_LE(numColorsUsed(C), 3u); // Odd cycle needs exactly 3.
}

TEST(ColoringTest, GreedyExtendRespectsFixedColors) {
  Graph G = Graph::path(3);
  Coloring C = {1, -1, -1};
  greedyExtendColoring(G, C);
  EXPECT_EQ(C[0], 1);
  EXPECT_TRUE(isValidColoring(G, C));
}

// --- Greedy-k-colorability (Section 2.2) ----------------------------------

TEST(GreedyColorabilityTest, CompleteGraph) {
  Graph K4 = Graph::complete(4);
  EXPECT_FALSE(isGreedyKColorable(K4, 3));
  EXPECT_TRUE(isGreedyKColorable(K4, 4));
  EXPECT_EQ(coloringNumber(K4), 4u);
}

TEST(GreedyColorabilityTest, CycleNeedsThreeGreedily) {
  // Even cycles are 2-colorable but NOT greedy-2-colorable: every vertex
  // has degree 2, so elimination with k = 2 gets stuck immediately.
  Graph C6 = Graph::cycle(6);
  EXPECT_FALSE(isGreedyKColorable(C6, 2));
  EXPECT_TRUE(isGreedyKColorable(C6, 3));
  EXPECT_EQ(coloringNumber(C6), 3u);
}

TEST(GreedyColorabilityTest, PathIsGreedyTwoColorable) {
  Graph P5 = Graph::path(5);
  EXPECT_TRUE(isGreedyKColorable(P5, 2));
  EXPECT_FALSE(isGreedyKColorable(P5, 1));
  EXPECT_EQ(coloringNumber(P5), 2u);
}

TEST(GreedyColorabilityTest, EmptyAndSingleton) {
  Graph Empty;
  EXPECT_TRUE(isGreedyKColorable(Empty, 0));
  EXPECT_EQ(coloringNumber(Empty), 0u);
  Graph One = GraphBuilder(1).build();
  EXPECT_TRUE(isGreedyKColorable(One, 1));
  EXPECT_FALSE(isGreedyKColorable(One, 0));
  EXPECT_EQ(coloringNumber(One), 1u);
}

TEST(GreedyColorabilityTest, StuckSetHasAllHighDegrees) {
  // K4 plus a pendant: with k = 3 the pendant is removed, K4 is stuck.
  GraphBuilder GB(Graph::complete(4));
  unsigned P = GB.addVertices(1);
  GB.addEdge(0, P);
  Graph G = std::move(GB).build();
  EliminationResult E = greedyEliminate(G, 3);
  EXPECT_FALSE(E.Success);
  ASSERT_EQ(E.Stuck.size(), 4u);
  // Every stuck vertex has degree >= 3 within the stuck set (the
  // obstruction subgraph characterization of col(G)).
  Graph Sub = G.inducedSubgraph(E.Stuck);
  for (unsigned V = 0; V < Sub.numVertices(); ++V)
    EXPECT_GE(Sub.degree(V), 3u);
}

TEST(GreedyColorabilityTest, ColorGreedyProducesValidKColoring) {
  Graph G = Graph::cycle(7);
  Coloring C = colorGreedyKColorable(G, 3);
  EXPECT_TRUE(isValidColoring(G, C, 3));
}

TEST(GreedyColorabilityTest, SmallestLastOrderWitnessesColoringNumber) {
  Rng Rand(123);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Graph G = randomGraph(30, 0.2, Rand);
    std::vector<unsigned> Order;
    unsigned Col = coloringNumber(G, &Order);
    ASSERT_EQ(Order.size(), G.numVertices());
    Coloring C = greedyColorInOrder(G, Order);
    EXPECT_TRUE(isValidColoring(G, C));
    EXPECT_LE(numColorsUsed(C), Col);
    // col is tight: not greedy-(col-1)-colorable.
    EXPECT_TRUE(isGreedyKColorable(G, Col));
    if (Col > 0) {
      EXPECT_FALSE(isGreedyKColorable(G, Col - 1));
    }
  }
}

// Property 1: a k-colorable chordal graph is greedy-k-colorable. Chordal
// optimal colorings use omega colors, so chordal graphs must be
// greedy-omega-colorable.
TEST(GreedyColorabilityTest, Property1ChordalGraphsAreGreedyOmegaColorable) {
  Rng Rand(77);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Graph G = randomChordalGraph(40, 20, 3, Rand);
    ASSERT_TRUE(isChordal(G));
    unsigned Omega = chordalCliqueNumber(G);
    EXPECT_TRUE(isGreedyKColorable(G, Omega))
        << "Property 1 violated at trial " << Trial;
  }
}

// Greedy-k-colorable is strictly weaker than k-colorable in general: the
// even cycle is the classic witness.
TEST(GreedyColorabilityTest, GreedyIsStrictlyStrongerThanColorable) {
  Graph C4 = Graph::cycle(4);
  Coloring TwoColoring = {0, 1, 0, 1};
  EXPECT_TRUE(isValidColoring(C4, TwoColoring, 2));
  EXPECT_FALSE(isGreedyKColorable(C4, 2));
}

struct ColoringNumberSweep : public ::testing::TestWithParam<unsigned> {};

// coloring number is monotone under subgraphs and bounded by max degree + 1.
TEST_P(ColoringNumberSweep, BoundsHold) {
  Rng Rand(GetParam());
  Graph G = randomGraph(25, 0.25, Rand);
  unsigned MaxDeg = 0;
  for (unsigned V = 0; V < G.numVertices(); ++V)
    MaxDeg = std::max(MaxDeg, G.degree(V));
  unsigned Col = coloringNumber(G);
  EXPECT_LE(Col, MaxDeg + 1);
  // Removing a vertex cannot increase col.
  std::vector<unsigned> Keep;
  for (unsigned V = 1; V < G.numVertices(); ++V)
    Keep.push_back(V);
  EXPECT_LE(coloringNumber(G.inducedSubgraph(Keep)), Col);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringNumberSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));
