//===- tests/Theorem6Test.cpp - vertex cover -> optimistic ------------------===//

#include "coalescing/ExactSearch.h"
#include "coalescing/Optimistic.h"
#include "graph/GreedyColorability.h"
#include "npc/Theorem6Reduction.h"
#include "npc/VertexCover.h"

#include <gtest/gtest.h>

using namespace rc;

namespace {

/// Evaluates the reduction claim directly: the de-coalescing that keeps
/// exactly the non-cover structures merged is greedy-4-colorable iff the
/// chosen set is a vertex cover.
bool coverYieldsGreedy(const Theorem6Reduction &R,
                       const std::vector<bool> &InCover) {
  CoalescingSolution S = R.solutionFromCover(InCover);
  return isGreedyKColorable(buildCoalescedGraph(R.Problem.G, S),
                            R.Problem.K);
}

} // namespace

TEST(Theorem6Test, OriginalGraphIsGreedyFourColorable) {
  Rng Rand(171);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Graph G = randomBoundedDegreeGraph(6, 3, 0.5, Rand);
    Theorem6Reduction R = Theorem6Reduction::build(G);
    EXPECT_TRUE(isGreedyKColorable(R.Problem.G, 4))
        << "split structures must unravel";
  }
}

TEST(Theorem6Test, AllAffinitiesCoalescable) {
  Rng Rand(172);
  Graph G = randomBoundedDegreeGraph(6, 3, 0.5, Rand);
  Theorem6Reduction R = Theorem6Reduction::build(G);
  CoalescingSolution Full = R.fullCoalescing();
  EXPECT_TRUE(isValidCoalescing(R.Problem.G, Full));
  CoalescingStats Stats = evaluateSolution(R.Problem, Full);
  EXPECT_EQ(Stats.UncoalescedAffinities, 0u);
}

TEST(Theorem6Test, IsolatedStructureUnravelsWhenMerged) {
  // A graph with no edges: the merged structures have no external props and
  // must be eaten entirely.
  Graph G = GraphBuilder(3).build();
  Theorem6Reduction R = Theorem6Reduction::build(G);
  EXPECT_TRUE(coverYieldsGreedy(R, {false, false, false}));
}

TEST(Theorem6Test, SingleEdgeNeedsOneDeCoalescing) {
  GraphBuilder GB(2);
  GB.addEdge(0, 1);
  Graph G = std::move(GB).build();
  Theorem6Reduction R = Theorem6Reduction::build(G);
  // Neither de-coalesced: stuck.
  EXPECT_FALSE(coverYieldsGreedy(R, {false, false}));
  // Either one de-coalesced: fine (it is a vertex cover).
  EXPECT_TRUE(coverYieldsGreedy(R, {true, false}));
  EXPECT_TRUE(coverYieldsGreedy(R, {false, true}));
}

TEST(Theorem6Test, TriangleNeedsTwo) {
  Graph G = Graph::complete(3);
  Theorem6Reduction R = Theorem6Reduction::build(G);
  EXPECT_FALSE(coverYieldsGreedy(R, {true, false, false}));
  EXPECT_TRUE(coverYieldsGreedy(R, {true, true, false}));
}

struct Theorem6CoverSweep : public ::testing::TestWithParam<unsigned> {};

// The core equivalence: a de-coalescing set works iff it is a vertex cover,
// over ALL subsets of small random instances.
TEST_P(Theorem6CoverSweep, GreedyIffVertexCover) {
  Rng Rand(GetParam());
  Graph G = randomBoundedDegreeGraph(5, 3, 0.5, Rand);
  Theorem6Reduction R = Theorem6Reduction::build(G);
  unsigned N = G.numVertices();
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << N); ++Mask) {
    std::vector<bool> InCover(N);
    for (unsigned V = 0; V < N; ++V)
      InCover[V] = (Mask >> V) & 1;
    EXPECT_EQ(coverYieldsGreedy(R, InCover), isVertexCover(G, InCover))
        << "mask " << Mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem6CoverSweep,
                         ::testing::Values(801u, 802u, 803u, 804u, 805u,
                                           806u, 807u, 808u));

struct Theorem6OptimumSweep : public ::testing::TestWithParam<unsigned> {};

// Optimal de-coalescing cost equals minimum vertex cover size.
TEST_P(Theorem6OptimumSweep, MinimumDeCoalescingEqualsMinimumCover) {
  Rng Rand(GetParam());
  Graph G = randomBoundedDegreeGraph(5, 3, 0.55, Rand);
  Theorem6Reduction R = Theorem6Reduction::build(G);
  VertexCoverResult Cover = solveVertexCoverExact(G);
  ExactSearchResult Exact =
      exactCoalesceSearch(R.Problem, {ExactFeasibility::Greedy});
  ASSERT_TRUE(Exact.Optimal);
  EXPECT_EQ(Exact.Stats.UncoalescedAffinities, Cover.Size)
      << "Theorem 6 equivalence violated";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem6OptimumSweep,
                         ::testing::Values(811u, 812u, 813u, 814u, 815u,
                                           816u, 817u, 818u, 819u, 820u));

struct Theorem6WeightedSweep : public ::testing::TestWithParam<unsigned> {};

// The weighted refinement: with per-structure affinity weights, the minimum
// WEIGHT of de-coalesced affinities equals the minimum-weight vertex cover.
TEST_P(Theorem6WeightedSweep, WeightedOptimumMatchesWeightedCover) {
  Rng Rand(GetParam());
  Graph G = randomBoundedDegreeGraph(5, 3, 0.55, Rand);
  Theorem6Reduction R = Theorem6Reduction::build(G);
  std::vector<double> Weights(G.numVertices());
  for (unsigned V = 0; V < G.numVertices(); ++V) {
    Weights[V] = 1.0 + static_cast<double>(Rand.nextBelow(9));
    R.Problem.Affinities[V].Weight = Weights[V];
  }
  WeightedVertexCoverResult Cover =
      solveWeightedVertexCoverExact(G, Weights);
  ExactSearchResult Exact =
      exactCoalesceSearch(R.Problem, {ExactFeasibility::Greedy});
  ASSERT_TRUE(Exact.Optimal);
  EXPECT_DOUBLE_EQ(Exact.Stats.UncoalescedWeight, Cover.Weight)
      << "weighted Theorem 6 equivalence violated";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem6WeightedSweep,
                         ::testing::Values(821u, 822u, 823u, 824u, 825u,
                                           826u, 827u, 828u));

TEST(WeightedVertexCoverTest, MatchesUnweightedOnUnitWeights) {
  Rng Rand(829);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Graph G = randomBoundedDegreeGraph(10, 3, 0.4, Rand);
    std::vector<double> Unit(G.numVertices(), 1.0);
    EXPECT_DOUBLE_EQ(solveWeightedVertexCoverExact(G, Unit).Weight,
                     static_cast<double>(solveVertexCoverExact(G).Size));
  }
}

TEST(WeightedVertexCoverTest, HeavyVertexAvoided) {
  // Path a-b-c: cover {b} costs 1; with b heavy, {a, c} wins.
  Graph G = Graph::path(3);
  WeightedVertexCoverResult Cheap =
      solveWeightedVertexCoverExact(G, {5.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(Cheap.Weight, 1.0);
  EXPECT_TRUE(Cheap.InCover[1]);
  WeightedVertexCoverResult Heavy =
      solveWeightedVertexCoverExact(G, {1.0, 10.0, 1.0});
  EXPECT_DOUBLE_EQ(Heavy.Weight, 2.0);
  EXPECT_FALSE(Heavy.InCover[1]);
}

TEST(Theorem6Test, OptimisticHeuristicIsFeasibleOnGadgets) {
  // The heuristic must always reach a greedy-4-colorable result (the
  // original graph is greedy-4-colorable); its cost upper-bounds the
  // optimum, i.e. the minimum vertex cover.
  Rng Rand(173);
  for (int Trial = 0; Trial < 5; ++Trial) {
    Graph G = randomBoundedDegreeGraph(6, 3, 0.5, Rand);
    Theorem6Reduction R = Theorem6Reduction::build(G);
    OptimisticResult H = optimisticCoalesce(R.Problem);
    EXPECT_TRUE(H.GreedyKColorable);
    VertexCoverResult Cover = solveVertexCoverExact(G);
    EXPECT_GE(H.Stats.UncoalescedAffinities, Cover.Size);
  }
}
