//===- tests/ChordalTest.cpp - chordal machinery + clique trees ------------===//

#include "graph/Chordal.h"
#include "graph/CliqueTree.h"
#include "graph/ExactColoring.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace rc;

namespace {

std::set<std::vector<unsigned>>
asSet(std::vector<std::vector<unsigned>> Cliques) {
  return {Cliques.begin(), Cliques.end()};
}

} // namespace

TEST(ChordalTest, KnownChordalGraphs) {
  EXPECT_TRUE(isChordal(Graph()));
  EXPECT_TRUE(isChordal(GraphBuilder(3).build()));
  EXPECT_TRUE(isChordal(Graph::complete(5)));
  EXPECT_TRUE(isChordal(Graph::path(6)));
  EXPECT_TRUE(isChordal(Graph::cycle(3)));
}

TEST(ChordalTest, ChordlessCyclesAreNotChordal) {
  for (unsigned N = 4; N <= 8; ++N)
    EXPECT_FALSE(isChordal(Graph::cycle(N))) << "C" << N;
}

TEST(ChordalTest, CycleWithChordIsChordal) {
  GraphBuilder GB(Graph::cycle(4));
  GB.addEdge(0, 2);
  EXPECT_TRUE(isChordal(std::move(GB).build()));
}

TEST(ChordalTest, McsOrderIsAPermutation) {
  Rng Rand(5);
  Graph G = randomGraph(20, 0.3, Rand);
  std::vector<unsigned> Order = mcsOrder(G);
  std::set<unsigned> Seen(Order.begin(), Order.end());
  EXPECT_EQ(Seen.size(), 20u);
}

TEST(ChordalTest, PeoRecognition) {
  // Path 0-1-2: [0, 2, 1] is a PEO; for the 4-cycle nothing is.
  Graph P3 = Graph::path(3);
  EXPECT_TRUE(isPerfectEliminationOrder(P3, {0, 2, 1}));
  EXPECT_TRUE(isPerfectEliminationOrder(P3, {0, 1, 2}));
  Graph C4 = Graph::cycle(4);
  EXPECT_FALSE(isPerfectEliminationOrder(C4, {0, 1, 2, 3}));
  EXPECT_FALSE(isPerfectEliminationOrder(C4, {0, 2, 1, 3}));

  // Under the order 0..4, vertex 0 has parent 2 and must see 4 next to it
  // (it is); vertex 1 has parent 3 and must see 4 next to it, but edge
  // (3, 4) is the one edge missing. 4 is a neighbor of the earlier parent
  // 2, so a check that remembers 2's row while checking 3 would pass it.
  GraphBuilder B(5);
  for (auto [U, V] : {std::pair{0u, 2u}, {0u, 4u}, {2u, 4u}, {1u, 3u},
                      {1u, 4u}})
    B.addEdge(U, V);
  Graph G = std::move(B).build();
  EXPECT_FALSE(isPerfectEliminationOrder(G, {0, 1, 2, 3, 4}));
  GraphBuilder WithEdge(G);
  WithEdge.addEdge(3, 4);
  EXPECT_TRUE(isPerfectEliminationOrder(std::move(WithEdge).build(),
                                        {0, 1, 2, 3, 4}));
}

TEST(ChordalTest, PeoRejectsNonPermutations) {
  Graph P3 = Graph::path(3);
  EXPECT_FALSE(isPerfectEliminationOrder(P3, {0, 0, 1}));
  EXPECT_FALSE(isPerfectEliminationOrder(P3, {0, 1}));
}

TEST(ChordalTest, CliqueNumberMatchesBruteForce) {
  Rng Rand(9);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Graph G = randomChordalGraph(18, 10, 3, Rand);
    ASSERT_TRUE(isChordal(G));
    EXPECT_EQ(chordalCliqueNumber(G), cliqueNumberBruteForce(G));
  }
}

TEST(ChordalTest, OptimalColoringUsesOmegaColors) {
  Rng Rand(10);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Graph G = randomChordalGraph(25, 12, 3, Rand);
    Coloring C = chordalOptimalColoring(G);
    EXPECT_TRUE(isValidColoring(G, C));
    EXPECT_EQ(numColorsUsed(C), chordalCliqueNumber(G));
  }
}

TEST(ChordalTest, MaximalCliquesMatchBronKerbosch) {
  Rng Rand(11);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Graph G = randomChordalGraph(15, 8, 3, Rand);
    ASSERT_TRUE(isChordal(G));
    EXPECT_EQ(asSet(chordalMaximalCliques(G)),
              asSet(maximalCliquesBruteForce(G)))
        << "trial " << Trial;
  }
}

TEST(ChordalTest, MaximalCliquesOfKnownGraphs) {
  Graph P3 = Graph::path(3);
  EXPECT_EQ(asSet(chordalMaximalCliques(P3)),
            asSet({{0, 1}, {1, 2}}));
  Graph K3 = Graph::complete(3);
  EXPECT_EQ(asSet(chordalMaximalCliques(K3)), asSet({{0, 1, 2}}));
}

TEST(ChordalTest, SimplicialVertexExistsInChordal) {
  Rng Rand(12);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Graph G = randomChordalGraph(15, 8, 3, Rand);
    unsigned S = findSimplicialVertex(G);
    ASSERT_NE(S, ~0u);
    EXPECT_TRUE(G.isClique(G.neighbors(S)));
  }
}

TEST(ChordalTest, NoSimplicialVertexInC4) {
  EXPECT_EQ(findSimplicialVertex(Graph::cycle(4)), ~0u);
}

TEST(ChordalTest, IntervalGraphsAreChordal) {
  Rng Rand(13);
  for (int Trial = 0; Trial < 10; ++Trial)
    EXPECT_TRUE(isChordal(randomIntervalGraph(30, 50, 8, Rand)));
}

// --- Clique trees (the Theorem 5 representation) ---------------------------

TEST(CliqueTreeTest, PathGraphTree) {
  Graph P4 = Graph::path(4);
  CliqueTree T = CliqueTree::build(P4);
  EXPECT_EQ(T.numNodes(), 3u);
  EXPECT_TRUE(T.verify(P4));
  // Middle vertices appear in two cliques.
  EXPECT_EQ(T.nodesContaining(1).size(), 2u);
  EXPECT_EQ(T.nodesContaining(0).size(), 1u);
}

TEST(CliqueTreeTest, CompleteGraphIsOneNode) {
  Graph K5 = Graph::complete(5);
  CliqueTree T = CliqueTree::build(K5);
  EXPECT_EQ(T.numNodes(), 1u);
  EXPECT_TRUE(T.verify(K5));
}

TEST(CliqueTreeTest, VerifiesOnRandomChordalGraphs) {
  Rng Rand(14);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Graph G = randomChordalGraph(30, 15, 3, Rand);
    CliqueTree T = CliqueTree::build(G);
    EXPECT_TRUE(T.verify(G)) << "trial " << Trial;
  }
}

TEST(CliqueTreeTest, PathBetweenNodes) {
  Graph P5 = Graph::path(5); // Cliques: {0,1},{1,2},{2,3},{3,4} in a chain.
  CliqueTree T = CliqueTree::build(P5);
  ASSERT_EQ(T.numNodes(), 4u);
  // Find the two leaf cliques (containing vertex 0 and vertex 4).
  unsigned A = T.nodesContaining(0)[0];
  unsigned B = T.nodesContaining(4)[0];
  std::vector<unsigned> Path = T.pathBetween(A, B);
  EXPECT_EQ(Path.size(), 4u);
  EXPECT_EQ(Path.front(), A);
  EXPECT_EQ(Path.back(), B);
}

TEST(CliqueTreeTest, PathBetweenSubtrees) {
  Graph P5 = Graph::path(5);
  CliqueTree T = CliqueTree::build(P5);
  auto Path = T.pathBetweenSubtrees(T.nodesContaining(1),
                                    T.nodesContaining(3));
  // Vertex 1 is in cliques {0,1},{1,2}; vertex 3 in {2,3},{3,4}; shortest
  // connection is {1,2} -> {2,3}.
  ASSERT_EQ(Path.size(), 2u);
  EXPECT_EQ(T.clique(Path[0]), (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(T.clique(Path[1]), (std::vector<unsigned>{2, 3}));
}

TEST(CliqueTreeTest, DisconnectedGraphStillVerifies) {
  GraphBuilder GB(6);
  GB.addClique({0, 1, 2});
  GB.addEdge(3, 4); // Vertex 5 isolated.
  Graph G = std::move(GB).build();
  CliqueTree T = CliqueTree::build(G);
  EXPECT_TRUE(T.verify(G));
  EXPECT_EQ(T.numNodes(), 3u);
}

TEST(CliqueTreeTest, SubtreeIntersectionMatchesAdjacency) {
  // Clique-tree characterization: u ~ v iff T_u and T_v share a node.
  Rng Rand(15);
  Graph G = randomChordalGraph(20, 10, 3, Rand);
  CliqueTree T = CliqueTree::build(G);
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V = U + 1; V < G.numVertices(); ++V) {
      bool Shares = false;
      for (unsigned N1 : T.nodesContaining(U))
        for (unsigned N2 : T.nodesContaining(V))
          Shares |= N1 == N2;
      EXPECT_EQ(Shares, G.hasEdge(U, V)) << U << "," << V;
    }
}
