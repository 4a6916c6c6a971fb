//===- tests/BiasedColoringTest.cpp - biased select --------------------------===//

#include "coalescing/BiasedColoring.h"
#include "challenge/ChallengeInstance.h"
#include "graph/GreedyColorability.h"

#include <gtest/gtest.h>

using namespace rc;

TEST(BiasedColoringTest, ProducesValidKColoring) {
  Rng Rand(191);
  ChallengeOptions Options;
  Options.NumValues = 60;
  CoalescingProblem P = generateChallengeInstance(Options, Rand);
  BiasedColoringResult R = biasedColoring(P);
  EXPECT_TRUE(isValidColoring(P.G, R.Colors, static_cast<int>(P.K)));
  EXPECT_TRUE(isValidCoalescing(P.G, R.Solution));
}

TEST(BiasedColoringTest, BiasSatisfiesEasyAffinity) {
  // Path 0-1-2 with affinity (0,2): bias must give 0 and 2 one color.
  CoalescingProblem P;
  P.G = Graph::path(3);
  P.K = 2;
  P.Affinities = {{0, 2, 1.0}};
  BiasedColoringResult R = biasedColoring(P);
  EXPECT_EQ(R.Colors[0], R.Colors[2]);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 1u);
}

TEST(BiasedColoringTest, PrefersHeavierAffinity) {
  // Vertex 2 is affinity-related to both 0 and 1 (which interfere); the
  // heavier affinity must win the bias.
  CoalescingProblem P;
  GraphBuilder GB(3);
  GB.addEdge(0, 1);
  P.K = 2;
  P.Affinities = {{0, 2, 1.0}, {1, 2, 5.0}};
  P.G = std::move(GB).build();
  BiasedColoringResult R = biasedColoring(P);
  EXPECT_EQ(R.Colors[1], R.Colors[2]);
  EXPECT_DOUBLE_EQ(R.Stats.CoalescedWeight, 5.0);
}

TEST(BiasedColoringTest, ClassCountBoundedByK) {
  Rng Rand(192);
  ChallengeOptions Options;
  Options.NumValues = 80;
  CoalescingProblem P = generateChallengeInstance(Options, Rand);
  BiasedColoringResult R = biasedColoring(P);
  EXPECT_LE(R.Solution.NumClasses, P.K);
}

TEST(BiasedColoringTest, AtLeastRandomOrderBaseline) {
  // On a suite, biased select should remove strictly positive move weight.
  Rng Rand(193);
  double Total = 0, Removed = 0;
  for (int Trial = 0; Trial < 10; ++Trial) {
    ChallengeOptions Options;
    Options.NumValues = 60;
    CoalescingProblem P = generateChallengeInstance(Options, Rand);
    BiasedColoringResult R = biasedColoring(P);
    Total += totalAffinityWeight(P);
    Removed += R.Stats.CoalescedWeight;
  }
  EXPECT_GT(Removed, 0.0);
  EXPECT_LE(Removed, Total);
}
