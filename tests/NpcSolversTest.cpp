//===- tests/NpcSolversTest.cpp - multiway cut + vertex cover ---------------===//

#include "npc/MultiwayCut.h"
#include "npc/VertexCover.h"

#include <gtest/gtest.h>

using namespace rc;

namespace {

/// Brute-force multiway cut by enumerating all labelings.
unsigned multiwayCutBruteForce(const MultiwayCutInstance &Instance) {
  unsigned N = Instance.G.numVertices();
  unsigned K = static_cast<unsigned>(Instance.Terminals.size());
  std::vector<unsigned> Labels(N, 0);
  std::vector<bool> IsTerminal(N, false);
  for (unsigned T = 0; T < K; ++T) {
    Labels[Instance.Terminals[T]] = T;
    IsTerminal[Instance.Terminals[T]] = true;
  }
  std::vector<unsigned> Free;
  for (unsigned V = 0; V < N; ++V)
    if (!IsTerminal[V])
      Free.push_back(V);

  unsigned Best = ~0u;
  uint64_t Total = 1;
  for (size_t I = 0; I < Free.size(); ++I)
    Total *= K;
  for (uint64_t Code = 0; Code < Total; ++Code) {
    uint64_t C = Code;
    for (unsigned V : Free) {
      Labels[V] = static_cast<unsigned>(C % K);
      C /= K;
    }
    Best = std::min(Best, countCutEdges(Instance.G, Labels));
  }
  return Best;
}

/// Brute-force vertex cover by subset enumeration.
unsigned vertexCoverBruteForce(const Graph &G) {
  unsigned N = G.numVertices();
  unsigned Best = N;
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << N); ++Mask) {
    std::vector<bool> InCover(N);
    unsigned Size = 0;
    for (unsigned V = 0; V < N; ++V) {
      InCover[V] = (Mask >> V) & 1;
      Size += InCover[V];
    }
    if (Size < Best && isVertexCover(G, InCover))
      Best = Size;
  }
  return Best;
}

} // namespace

TEST(MultiwayCutTest, DisconnectedTerminalsNeedNoCut) {
  MultiwayCutInstance Instance;
  GraphBuilder GB(4);
  GB.addEdge(0, 1);
  GB.addEdge(2, 3);
  Instance.Terminals = {0, 2};
  Instance.G = std::move(GB).build();
  EXPECT_EQ(solveMultiwayCutExact(Instance).CutSize, 0u);
}

TEST(MultiwayCutTest, PathBetweenTwoTerminals) {
  MultiwayCutInstance Instance;
  Instance.G = Graph::path(5);
  Instance.Terminals = {0, 4};
  EXPECT_EQ(solveMultiwayCutExact(Instance).CutSize, 1u);
}

TEST(MultiwayCutTest, TriangleOfTerminals) {
  MultiwayCutInstance Instance;
  Instance.G = Graph::complete(3);
  Instance.Terminals = {0, 1, 2};
  EXPECT_EQ(solveMultiwayCutExact(Instance).CutSize, 3u);
}

TEST(MultiwayCutTest, MatchesBruteForce) {
  Rng Rand(151);
  for (int Trial = 0; Trial < 20; ++Trial) {
    MultiwayCutInstance Instance =
        randomMultiwayCutInstance(8, 0.35, 3, Rand);
    MultiwayCutResult R = solveMultiwayCutExact(Instance);
    EXPECT_EQ(R.CutSize, multiwayCutBruteForce(Instance));
    EXPECT_EQ(countCutEdges(Instance.G, R.Labels), R.CutSize);
    // Terminals keep their own labels.
    for (unsigned T = 0; T < Instance.Terminals.size(); ++T)
      EXPECT_EQ(R.Labels[Instance.Terminals[T]], T);
  }
}

TEST(VertexCoverTest, KnownCovers) {
  EXPECT_EQ(solveVertexCoverExact(GraphBuilder(5).build()).Size, 0u);
  EXPECT_EQ(solveVertexCoverExact(Graph::path(2)).Size, 1u);
  EXPECT_EQ(solveVertexCoverExact(Graph::cycle(5)).Size, 3u);
  EXPECT_EQ(solveVertexCoverExact(Graph::complete(4)).Size, 3u);
  EXPECT_EQ(solveVertexCoverExact(Graph::path(5)).Size, 2u);
}

TEST(VertexCoverTest, WitnessIsACover) {
  Rng Rand(152);
  for (int Trial = 0; Trial < 15; ++Trial) {
    Graph G = randomBoundedDegreeGraph(12, 3, 0.4, Rand);
    VertexCoverResult R = solveVertexCoverExact(G);
    EXPECT_TRUE(isVertexCover(G, R.InCover));
    unsigned Count = 0;
    for (bool B : R.InCover)
      Count += B;
    EXPECT_EQ(Count, R.Size);
  }
}

TEST(VertexCoverTest, MatchesBruteForce) {
  Rng Rand(153);
  for (int Trial = 0; Trial < 15; ++Trial) {
    Graph G = randomBoundedDegreeGraph(11, 3, 0.45, Rand);
    EXPECT_EQ(solveVertexCoverExact(G).Size, vertexCoverBruteForce(G));
  }
}

TEST(VertexCoverTest, IsVertexCoverDetectsGaps) {
  Graph G = Graph::path(3);
  EXPECT_TRUE(isVertexCover(G, {false, true, false}));
  EXPECT_FALSE(isVertexCover(G, {true, false, false}));
}
