//===- tests/ChordalTest.cpp - chordal machinery + clique trees ------------===//

#include "graph/Chordal.h"
#include "graph/CliqueTree.h"
#include "graph/ExactColoring.h"
#include "graph/Generators.h"
#include "runner/GapReport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace rc;

namespace {

std::set<std::vector<unsigned>>
asSet(std::vector<std::vector<unsigned>> Cliques) {
  return {Cliques.begin(), Cliques.end()};
}

/// The definition: every vertex's later neighbors are pairwise adjacent.
bool isPeoByDefinition(const Graph &G, const std::vector<unsigned> &Order) {
  std::vector<unsigned> Position(G.numVertices());
  for (unsigned I = 0; I < Order.size(); ++I)
    Position[Order[I]] = I;
  for (unsigned V = 0; V < G.numVertices(); ++V) {
    std::vector<unsigned> Later;
    for (unsigned W : G.neighbors(V))
      if (Position[W] > Position[V])
        Later.push_back(W);
    if (!G.isClique(Later))
      return false;
  }
  return true;
}

/// Asserts that two clique trees agree node by node: cliques, node order
/// and tree adjacency.
void expectSameTree(const CliqueTree &A, const CliqueTree &B,
                    const std::string &Where) {
  ASSERT_EQ(A.numNodes(), B.numNodes()) << Where;
  for (unsigned Node = 0; Node < A.numNodes(); ++Node) {
    EXPECT_EQ(A.clique(Node), B.clique(Node)) << Where << " node " << Node;
    EXPECT_EQ(A.treeNeighbors(Node), B.treeNeighbors(Node))
        << Where << " node " << Node;
  }
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

TEST(ChordalTest, McsOrderPicksAMaximumCardinalityVertex) {
  // Each selected vertex has at least as many already-selected neighbors
  // as any vertex still unselected.
  Rng Rand(6);
  for (int Trial = 0; Trial < 40; ++Trial) {
    Graph G = Trial % 2 ? randomGraph(24, 0.25, Rand)
                        : randomChordalGraph(24, 12, 4, Rand);
    std::vector<unsigned> Order = mcsOrder(G);
    ASSERT_EQ(Order.size(), G.numVertices());
    std::vector<unsigned> Weight(G.numVertices(), 0);
    std::vector<bool> Selected(G.numVertices(), false);
    for (unsigned V : Order) {
      ASSERT_FALSE(Selected[V]) << "trial " << Trial;
      for (unsigned U = 0; U < G.numVertices(); ++U)
        EXPECT_TRUE(Selected[U] || Weight[V] >= Weight[U])
            << "trial " << Trial << " vertex " << U;
      Selected[V] = true;
      for (unsigned W : G.neighbors(V))
        ++Weight[W];
    }
    EXPECT_EQ(mcsEliminationOrder(G),
              std::vector<unsigned>(Order.rbegin(), Order.rend()));
  }
}

TEST(ChordalTest, PeoCheckMatchesTheDefinition) {
  // Random orders of random chordal and non-chordal graphs, small enough
  // that a fair share of the orders are perfect elimination orders.
  Rng Rand(7);
  unsigned Perfect = 0, Imperfect = 0;
  for (int Trial = 0; Trial < 400; ++Trial) {
    unsigned N = 3 + static_cast<unsigned>(Rand.nextBelow(7));
    Graph G = Trial % 3 ? randomChordalGraph(N, N / 2 + 1, 3, Rand)
                        : randomGraph(N, 0.4, Rand);
    std::vector<unsigned> Order = Rand.permutation(N);
    bool Expected = isPeoByDefinition(G, Order);
    EXPECT_EQ(isPerfectEliminationOrder(G, Order), Expected)
        << "trial " << Trial;
    ++(Expected ? Perfect : Imperfect);
  }
  EXPECT_GT(Perfect, 50u);
  EXPECT_GT(Imperfect, 50u);
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

TEST(CliqueTreeTest, BuildFromAPeoMatchesBuild) {
  // Handing build the PEO it would compute gives the same tree, node for
  // node: on the golden-corpus graphs and on random chordal graphs up to
  // n = 512.
  std::vector<std::pair<std::string, Graph>> Graphs;
  for (LabeledProblem &LP : goldenChallengeCorpus())
    Graphs.emplace_back(LP.Label, std::move(LP.Problem.G));
  Rng Rand(16);
  for (unsigned N : {8u, 32u, 64u, 128u, 256u, 512u})
    for (int Trial = 0; Trial < 3; ++Trial)
      Graphs.emplace_back("random n=" + std::to_string(N) + " trial " +
                              std::to_string(Trial),
                          randomChordalGraph(N, N / 2, 4, Rand));
  for (const auto &[Where, G] : Graphs) {
    std::vector<unsigned> Peo = mcsEliminationOrder(G);
    ASSERT_TRUE(isPerfectEliminationOrder(G, Peo)) << Where;
    EXPECT_EQ(chordalCliqueNumber(G, Peo), chordalCliqueNumber(G)) << Where;
    EXPECT_EQ(chordalMaximalCliques(G, Peo), chordalMaximalCliques(G))
        << Where;
    CliqueTree FromPeo = CliqueTree::build(G, Peo);
    expectSameTree(FromPeo, CliqueTree::build(G), Where);
    EXPECT_TRUE(FromPeo.verify(G)) << Where;
  }
}

TEST(CliqueTreeTest, BuildsFromAnyPeo) {
  // Perfect elimination orders other than MCS's give the same maximal
  // cliques, the same clique number and a valid clique tree.
  Rng Rand(17);
  unsigned Tried = 0;
  for (int Trial = 0; Trial < 300; ++Trial) {
    unsigned N = 3 + static_cast<unsigned>(Rand.nextBelow(8));
    Graph G = randomChordalGraph(N, N / 2 + 1, 3, Rand);
    std::vector<unsigned> Order = Rand.permutation(N);
    if (!isPeoByDefinition(G, Order))
      continue;
    ++Tried;
    EXPECT_EQ(asSet(chordalMaximalCliques(G, Order)),
              asSet(chordalMaximalCliques(G)))
        << "trial " << Trial;
    EXPECT_EQ(chordalCliqueNumber(G, Order), chordalCliqueNumber(G))
        << "trial " << Trial;
    EXPECT_TRUE(CliqueTree::build(G, Order).verify(G)) << "trial " << Trial;
  }
  EXPECT_GT(Tried, 50u);
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
