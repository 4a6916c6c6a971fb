//===- tests/SpillingTest.cpp - spill-to-greedy-k ----------------------------===//

#include "coalescing/Spilling.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rc;

namespace {

/// The rebuild-and-re-eliminate spill loop spillToGreedyK replaced: after
/// every spill it builds the kept subgraph from scratch and re-runs the
/// elimination. Kept as the reference the one-peel version must match.
SpillResult referenceSpillToGreedyK(const Graph &G, unsigned K,
                                    const std::vector<double> &SpillCosts) {
  SpillResult Result;
  std::vector<bool> IsSpilled(G.numVertices(), false);
  for (;;) {
    std::vector<unsigned> Kept;
    for (unsigned V = 0; V < G.numVertices(); ++V)
      if (!IsSpilled[V])
        Kept.push_back(V);
    Graph Sub = G.inducedSubgraph(Kept);
    EliminationResult E = greedyEliminate(Sub, K);
    if (E.Success) {
      Result.Kept = std::move(Kept);
      std::sort(Result.Spilled.begin(), Result.Spilled.end());
      return Result;
    }
    unsigned Victim = ~0u;
    double VictimScore = 0;
    for (unsigned StuckNew : E.Stuck) {
      unsigned Old = Kept[StuckNew];
      double Cost = SpillCosts.empty() ? 1.0 : SpillCosts[Old];
      double Score = Cost / std::max(1u, Sub.degree(StuckNew));
      if (Victim == ~0u || Score < VictimScore) {
        Victim = Old;
        VictimScore = Score;
      }
    }
    IsSpilled[Victim] = true;
    Result.Spilled.push_back(Victim);
  }
}

/// A random graph greedy-K-colorable by construction: each vertex joins at
/// most K - 1 earlier ones, so peeling in reverse id order never sticks.
Graph degenerateGraph(unsigned N, unsigned K, Rng &Rand) {
  GraphBuilder GB(N);
  for (unsigned V = 1; V < N; ++V)
    for (unsigned I = 0; I + 1 < K; ++I)
      GB.addEdge(V, static_cast<unsigned>(Rand.nextBelow(V)));
  Graph G = std::move(GB).build();
  return G;
}

} // namespace

TEST(SpillingTest, NoSpillsWhenAlreadyColorable) {
  Graph G = Graph::cycle(5);
  SpillResult R = spillToGreedyK(G, 3);
  EXPECT_TRUE(R.Spilled.empty());
  EXPECT_EQ(R.Kept.size(), 5u);
  EXPECT_EQ(G.inducedSubgraph(R.Kept).numVertices(), 5u);
}

TEST(SpillingTest, CliqueSpillsDownToK) {
  Graph G = Graph::complete(6);
  SpillResult R = spillToGreedyK(G, 3);
  EXPECT_EQ(R.Spilled.size(), 3u);
  EXPECT_TRUE(isGreedyKColorable(G.inducedSubgraph(R.Kept), 3));
}

TEST(SpillingTest, RemainingIsAlwaysGreedyK) {
  Rng Rand(201);
  for (int Trial = 0; Trial < 15; ++Trial) {
    Graph G = randomGraph(40, 0.25, Rand);
    for (unsigned K = 2; K <= 6; K += 2) {
      SpillResult R = spillToGreedyK(G, K);
      std::vector<unsigned> OldToNew;
      Graph Remaining = G.inducedSubgraph(R.Kept, &OldToNew);
      EXPECT_TRUE(isGreedyKColorable(Remaining, K));
      EXPECT_EQ(R.Kept.size() + R.Spilled.size(), G.numVertices());
      // Spilled and Kept partition the vertices.
      for (unsigned V : R.Spilled)
        EXPECT_EQ(OldToNew[V], ~0u);
      for (unsigned I = 0; I < R.Kept.size(); ++I)
        EXPECT_EQ(OldToNew[R.Kept[I]], I);
    }
  }
}

TEST(SpillingTest, CostsSteerVictimSelection) {
  // K4 with k=3: one vertex must go; the cheapest one (by cost/degree).
  Graph G = Graph::complete(4);
  std::vector<double> Costs = {10.0, 10.0, 0.5, 10.0};
  SpillResult R = spillToGreedyK(G, 3, Costs);
  ASSERT_EQ(R.Spilled.size(), 1u);
  EXPECT_EQ(R.Spilled[0], 2u);
}

TEST(SpillingTest, TiesSpillTheLowestId) {
  // K5 at k=3 with uniform costs: every score ties, so 0 goes first; then
  // 1, whose kept degree is 3 like every other core vertex.
  SpillResult R = spillToGreedyK(Graph::complete(5), 3);
  EXPECT_EQ(R.Spilled, (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(R.Kept, (std::vector<unsigned>{2, 3, 4}));
}

TEST(SpillingTest, SpillCountIsMonotoneInK) {
  Rng Rand(202);
  Graph G = randomGraph(30, 0.4, Rand);
  size_t Last = G.numVertices() + 1;
  for (unsigned K = 2; K <= 10; ++K) {
    SpillResult R = spillToGreedyK(G, K);
    EXPECT_LE(R.Spilled.size(), Last);
    Last = R.Spilled.size();
  }
}

TEST(SpillingTest, TwoPhaseFlow) {
  // The Appel-George flow: spill to k, then the remaining graph colors
  // greedily with k colors.
  Rng Rand(203);
  Graph G = randomGraph(50, 0.2, Rand);
  unsigned K = 5;
  SpillResult R = spillToGreedyK(G, K);
  Graph Remaining = G.inducedSubgraph(R.Kept);
  Coloring C = colorGreedyKColorable(Remaining, K);
  EXPECT_TRUE(isValidColoring(Remaining, C, static_cast<int>(K)));
}

TEST(SpillingTest, OnePeelMatchesRebuildReference) {
  // Graph shapes: random densities, cliques, the empty graph, random
  // chordal graphs, and graphs greedy-K-colorable from the start.
  Rng Rand(204);
  unsigned Graphs = 0, WithSpills = 0;
  for (int Trial = 0; Trial < 30; ++Trial) {
    for (unsigned K = 1; K <= 6; ++K) {
      std::vector<Graph> Shapes;
      unsigned N = 1 + static_cast<unsigned>(Rand.nextBelow(48));
      Shapes.push_back(randomGraph(N, 0.05 + 0.6 * Rand.nextDouble(), Rand));
      Shapes.push_back(Graph::complete(1 + Trial % 12));
      Shapes.push_back(GraphBuilder(static_cast<unsigned>(Trial)).build());
      Shapes.push_back(randomChordalGraph(N, 1 + N / 2, 1 + K, Rand));
      Shapes.push_back(degenerateGraph(N, K, Rand));
      for (const Graph &G : Shapes) {
        unsigned NV = G.numVertices();
        // Cost models: uniform; random; and built to tie (cost equal to
        // degree makes every initial score 1, small integers tie often).
        std::vector<std::vector<double>> CostModels(4);
        for (unsigned V = 0; V < NV; ++V) {
          CostModels[1].push_back(0.1 + 10 * Rand.nextDouble());
          CostModels[2].push_back(G.degree(V));
          CostModels[3].push_back(double(1 + Rand.nextBelow(3)));
        }
        for (const std::vector<double> &Costs : CostModels) {
          SpillResult Fast = spillToGreedyK(G, K, Costs);
          SpillResult Ref = referenceSpillToGreedyK(G, K, Costs);
          ASSERT_EQ(Fast.Spilled, Ref.Spilled)
              << "trial " << Trial << " K " << K << " n " << NV;
          ASSERT_EQ(Fast.Kept, Ref.Kept);
          EXPECT_TRUE(isGreedyKColorable(G.inducedSubgraph(Fast.Kept), K));
          if (isGreedyKColorable(G, K))
            EXPECT_TRUE(Fast.Spilled.empty());
          else
            EXPECT_FALSE(Fast.Spilled.empty());
          ++Graphs;
          WithSpills += !Fast.Spilled.empty();
        }
      }
    }
  }
  EXPECT_GE(Graphs, 500u);
  EXPECT_GE(WithSpills, 200u);
}
