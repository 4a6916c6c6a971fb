//===- tests/GraphTest.cpp - graph/Graph unit tests ------------------------===//

#include "graph/Graph.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rc;

TEST(GraphTest, EmptyGraph) {
  Graph G;
  EXPECT_EQ(G.numVertices(), 0u);
  EXPECT_EQ(G.numEdges(), 0u);
}

TEST(GraphTest, AddEdgeBasics) {
  GraphBuilder B(3);
  B.addEdge(0, 1);
  B.addEdge(1, 0); // Duplicate (symmetric): kept once.
  Graph G = std::move(B).build();
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_TRUE(G.hasEdge(1, 0));
  EXPECT_FALSE(G.hasEdge(0, 2));
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.degree(0), 1u);
  EXPECT_EQ(G.degree(2), 0u);
}

TEST(GraphTest, AddVertexGrows) {
  GraphBuilder B(Graph::path(2));
  unsigned V = B.addVertices(1);
  EXPECT_EQ(V, 2u);
  B.addEdge(1, 2);
  Graph G = std::move(B).build();
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_TRUE(G.hasEdge(2, 1));
  EXPECT_EQ(G.numEdges(), 2u);
}

TEST(GraphTest, AddVerticesBatch) {
  GraphBuilder B(1);
  unsigned First = B.addVertices(4);
  EXPECT_EQ(First, 1u);
  EXPECT_EQ(B.numVertices(), 5u);
  EXPECT_EQ(std::move(B).build().numVertices(), 5u);
}

TEST(GraphTest, CliqueHelpers) {
  GraphBuilder B(5);
  B.addClique({0, 2, 4});
  B.addClique({2, 4}); // Repeats are kept once.
  Graph G = std::move(B).build();
  EXPECT_TRUE(G.isClique({0, 2, 4}));
  EXPECT_TRUE(G.isClique({0, 2}));
  EXPECT_FALSE(G.isClique({0, 1, 2}));
  EXPECT_EQ(G.numEdges(), 3u);
}

TEST(GraphTest, CompleteCyclePath) {
  Graph K4 = Graph::complete(4);
  EXPECT_EQ(K4.numEdges(), 6u);
  Graph C5 = Graph::cycle(5);
  EXPECT_EQ(C5.numEdges(), 5u);
  for (unsigned V = 0; V < 5; ++V)
    EXPECT_EQ(C5.degree(V), 2u);
  Graph P4 = Graph::path(4);
  EXPECT_EQ(P4.numEdges(), 3u);
  EXPECT_EQ(P4.degree(0), 1u);
  EXPECT_EQ(P4.degree(1), 2u);
}

TEST(GraphTest, QuotientMergesClasses) {
  // Square 0-1-2-3; merge 0 with 2 (non-adjacent).
  Graph G = Graph::cycle(4);
  std::vector<unsigned> Classes = {0, 1, 0, 2};
  bool SelfLoop = true;
  Graph Q = G.quotient(Classes, 3, &SelfLoop);
  EXPECT_FALSE(SelfLoop);
  EXPECT_EQ(Q.numVertices(), 3u);
  EXPECT_TRUE(Q.hasEdge(0, 1));
  EXPECT_TRUE(Q.hasEdge(0, 2));
  EXPECT_FALSE(Q.hasEdge(1, 2));
  EXPECT_EQ(Q.numEdges(), 2u);
}

TEST(GraphTest, QuotientDetectsSelfLoop) {
  Graph G = Graph::path(2);
  bool SelfLoop = false;
  Graph Q = G.quotient({0, 0}, 1, &SelfLoop);
  EXPECT_TRUE(SelfLoop);
  EXPECT_EQ(Q.numVertices(), 1u);
  EXPECT_EQ(Q.numEdges(), 0u);
}

TEST(GraphTest, InducedSubgraph) {
  Graph G = Graph::complete(5);
  std::vector<unsigned> OldToNew;
  Graph Sub = G.inducedSubgraph({1, 3, 4}, &OldToNew);
  EXPECT_EQ(Sub.numVertices(), 3u);
  EXPECT_EQ(Sub.numEdges(), 3u);
  EXPECT_EQ(OldToNew[0], ~0u);
  EXPECT_EQ(OldToNew[1], 0u);
  EXPECT_EQ(OldToNew[3], 1u);
  EXPECT_EQ(OldToNew[4], 2u);
}

TEST(GraphTest, InducedSubgraphDropsOutsideEdges) {
  Graph G = Graph::path(4); // 0-1-2-3
  Graph Sub = G.inducedSubgraph({0, 2});
  EXPECT_EQ(Sub.numEdges(), 0u);
  Graph Sub2 = G.inducedSubgraph({1, 2});
  EXPECT_EQ(Sub2.numEdges(), 1u);
}

TEST(GraphTest, ConnectedComponents) {
  GraphBuilder B(6);
  B.addEdge(0, 1);
  B.addEdge(1, 2);
  B.addEdge(3, 4);
  auto Components = std::move(B).build().connectedComponents();
  ASSERT_EQ(Components.size(), 3u);
  EXPECT_EQ(Components[0], (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(Components[1], (std::vector<unsigned>{3, 4}));
  EXPECT_EQ(Components[2], (std::vector<unsigned>{5}));
}

TEST(GraphTest, SameComponent) {
  GraphBuilder B(5);
  B.addEdge(0, 1);
  B.addEdge(1, 2);
  Graph G = std::move(B).build();
  EXPECT_TRUE(G.sameComponent(0, 2));
  EXPECT_TRUE(G.sameComponent(3, 3));
  EXPECT_FALSE(G.sameComponent(0, 3));
}

TEST(GraphTest, NeighborsMatchEdges) {
  GraphBuilder B(4);
  B.addEdge(0, 3);
  B.addEdge(1, 0);
  Graph G = std::move(B).build();
  EXPECT_EQ(std::vector<unsigned>(G.neighbors(0)),
            (std::vector<unsigned>{1, 3}));
}

namespace {

/// The edges of \p G as (u < v) pairs, in row order.
std::vector<std::pair<unsigned, unsigned>> edgeList(const Graph &G) {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V : G.neighbors(U))
      if (U < V)
        Edges.push_back({U, V});
  return Edges;
}

/// Builds \p Edges in the given order.
Graph buildInOrder(unsigned N,
                   const std::vector<std::pair<unsigned, unsigned>> &Edges) {
  GraphBuilder B(N);
  for (auto [U, V] : Edges)
    B.addEdge(U, V);
  return std::move(B).build();
}

/// 6N random edges on \p N vertices, repeats and both orientations
/// included.
std::vector<std::pair<unsigned, unsigned>> randomEdgeList(unsigned N,
                                                          Rng &Rand) {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned I = 0; I < 6 * N; ++I) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U != V)
      Edges.push_back({U, V});
  }
  return Edges;
}

/// Checks hasEdge on every vertex pair of \p G, the diagonal included,
/// against \p Edges, and numEdges against its distinct pairs.
void expectHasEdgeMatches(
    const Graph &G, const std::vector<std::pair<unsigned, unsigned>> &Edges) {
  unsigned N = G.numVertices();
  std::vector<std::vector<unsigned>> Expected(N);
  for (auto [U, V] : Edges) {
    Expected[U].push_back(V);
    Expected[V].push_back(U);
  }
  std::vector<char> InRow(N, 0);
  size_t Degrees = 0;
  for (unsigned U = 0; U < N; ++U) {
    for (unsigned V : Expected[U])
      if (!InRow[V]) {
        InRow[V] = 1;
        ++Degrees;
      }
    for (unsigned V = 0; V < N; ++V)
      ASSERT_EQ(G.hasEdge(U, V), InRow[V] != 0) << U << "-" << V;
    for (unsigned V : Expected[U])
      InRow[V] = 0;
  }
  EXPECT_EQ(G.numEdges(), Degrees / 2);
}

void expectSameRows(const Graph &A, const Graph &B) {
  ASSERT_EQ(A.numVertices(), B.numVertices());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  for (unsigned V = 0; V < A.numVertices(); ++V)
    ASSERT_EQ(A.neighbors(V), B.neighbors(V)) << "row " << V;
}

const unsigned EverySize[] = {2, 9, 64, 700, 4396};

} // namespace

TEST(GraphTest, SparseModeMatchesDense) {
  // hasEdge binary-searches the shorter sorted row; on every pair it
  // answers what the edge set says.
  const std::vector<std::pair<unsigned, unsigned>> EdgeList = {
      {0, 1}, {0, 3}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
      {2, 7}, {1, 5}, {1, 0}};
  Graph G = buildInOrder(8, EdgeList);
  EXPECT_EQ(G.numEdges(), 10u);
  expectHasEdgeMatches(G, EdgeList);
  EXPECT_EQ(G.connectedComponents().size(), 1u);
}

TEST(GraphTest, NeighborsStrictlyAscendingAtEverySize) {
  // Rows are a function of the edge set: ascending, and identical for any
  // insertion order. hasEdge agrees with the edge list, repeats and both
  // orientations included.
  Rng Rand(21);
  for (unsigned N : EverySize) {
    SCOPED_TRACE(N);
    std::vector<std::pair<unsigned, unsigned>> Edges = randomEdgeList(N, Rand);
    Graph Forward = buildInOrder(N, Edges);
    for (unsigned V = 0; V < N; ++V) {
      VertexSpan Row = Forward.neighbors(V);
      for (size_t I = 1; I < Row.size(); ++I)
        ASSERT_LT(Row[I - 1], Row[I]) << "row " << V;
    }
    std::reverse(Edges.begin(), Edges.end());
    expectSameRows(Forward, buildInOrder(N, Edges));
    for (size_t I = Edges.size(); I > 1; --I)
      std::swap(Edges[I - 1], Edges[Rand.nextBelow(I)]);
    Graph Shuffled = buildInOrder(N, Edges);
    expectSameRows(Forward, Shuffled);
    expectHasEdgeMatches(Shuffled, Edges);
  }
}

TEST(GraphTest, FromSortedEdgesMatchesBuilder) {
  Rng Rand(4);
  for (unsigned N : EverySize) {
    SCOPED_TRACE(N);
    Graph G = buildInOrder(N, randomEdgeList(N, Rand));
    std::vector<std::pair<unsigned, unsigned>> Edges = edgeList(G);
    std::vector<unsigned char> Bytes;
    for (auto [U, V] : Edges)
      for (unsigned X : {U, V})
        for (int B = 0; B < 4; ++B)
          Bytes.push_back(static_cast<unsigned char>(X >> (8 * B)));
    Graph F = Graph::fromSortedEdges(N, Bytes.data(), Edges.size());
    expectSameRows(G, F);
    expectHasEdgeMatches(F, Edges);
  }
}

TEST(GraphTest, BuilderSeededFromGraphCanPassTheThreshold) {
  // A GraphBuilder seeded from a graph keeps every edge while it grows by
  // thousands of vertices, and takes new edges at both ends.
  Graph Small = Graph::cycle(5);
  GraphBuilder B(Small);
  unsigned First = B.addVertices(4096);
  B.addEdge(0, First);
  B.addEdge(First, 4);
  Graph G = std::move(B).build();
  EXPECT_EQ(G.numVertices(), 4101u);
  EXPECT_EQ(std::vector<unsigned>(G.neighbors(0)),
            (std::vector<unsigned>{1, 4, First}));
  expectHasEdgeMatches(G, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                           {0, First}, {First, 4}});
}
