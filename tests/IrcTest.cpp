//===- tests/IrcTest.cpp - iterated register coalescing ---------------------===//

#include "coalescing/IteratedRegisterCoalescing.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"

#include <gtest/gtest.h>

using namespace rc;

namespace {

/// Checks that non-spilled vertices received a valid coloring and that
/// coalesced classes share colors.
void checkIrcResult(const CoalescingProblem &P, const IrcResult &R) {
  ASSERT_EQ(R.Colors.size(), P.G.numVertices());
  for (unsigned U = 0; U < P.G.numVertices(); ++U) {
    if (R.Colors[U] < 0)
      continue;
    EXPECT_LT(R.Colors[U], static_cast<int>(P.K));
    for (unsigned V : P.G.neighbors(U))
      if (R.Colors[V] >= 0) {
        EXPECT_NE(R.Colors[U], R.Colors[V]) << "edge " << U << "-" << V;
      }
  }
  EXPECT_TRUE(isValidCoalescing(P.G, R.Solution));
  // Coalesced (non-spilled) classes are monochromatic.
  for (const Affinity &A : P.Affinities)
    if (R.Solution.merged(A.U, A.V) && R.Colors[A.U] >= 0 &&
        R.Colors[A.V] >= 0) {
      EXPECT_EQ(R.Colors[A.U], R.Colors[A.V]);
    }
}

} // namespace

TEST(IrcTest, SimpleMoveIsCoalesced) {
  CoalescingProblem P;
  GraphBuilder GB(3);
  GB.addEdge(0, 2);
  P.K = 2;
  P.Affinities = {{0, 1, 1.0}};
  P.G = std::move(GB).build();
  IrcResult R = iteratedRegisterCoalescing(P);
  EXPECT_TRUE(R.Spilled.empty());
  EXPECT_EQ(R.Stats.CoalescedAffinities, 1u);
  checkIrcResult(P, R);
}

TEST(IrcTest, ConstrainedMoveIsNotCoalesced) {
  CoalescingProblem P;
  GraphBuilder GB(2);
  GB.addEdge(0, 1);
  P.K = 2;
  P.Affinities = {{0, 1, 1.0}};
  P.G = std::move(GB).build();
  IrcResult R = iteratedRegisterCoalescing(P);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 0u);
  EXPECT_EQ(R.ConstrainedMoves, 1u);
  checkIrcResult(P, R);
}

TEST(IrcTest, NoSpillsOnGreedyKColorableInputs) {
  Rng Rand(98);
  for (int Trial = 0; Trial < 15; ++Trial) {
    CoalescingProblem P;
    P.G = randomChordalGraph(20, 10, 3, Rand);
    P.K = coloringNumber(P.G);
    for (int A = 0; A < 10; ++A) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(20));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(20));
      if (U != V && !P.G.hasEdge(U, V))
        P.Affinities.push_back({U, V, 1.0});
    }
    IrcResult R = iteratedRegisterCoalescing(P);
    EXPECT_TRUE(R.Spilled.empty())
        << "IRC spilled on a greedy-k-colorable input";
    checkIrcResult(P, R);
    // Full coloring present.
    EXPECT_TRUE(isValidColoring(P.G, R.Colors, static_cast<int>(P.K)));
  }
}

TEST(IrcTest, SpillsWhenKTooSmall) {
  CoalescingProblem P;
  P.G = Graph::complete(5);
  P.K = 3;
  IrcResult R = iteratedRegisterCoalescing(P);
  EXPECT_FALSE(R.Spilled.empty());
  checkIrcResult(P, R);
}

TEST(IrcTest, GeorgeOptionCoalescesMore) {
  Rng Rand(99);
  unsigned WithGeorge = 0, WithoutGeorge = 0;
  for (int Trial = 0; Trial < 20; ++Trial) {
    CoalescingProblem P;
    P.G = randomChordalGraph(18, 9, 3, Rand);
    P.K = coloringNumber(P.G);
    for (int A = 0; A < 12; ++A) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(18));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(18));
      if (U != V && !P.G.hasEdge(U, V))
        P.Affinities.push_back({U, V, 1.0});
    }
    IrcOptions On, Off;
    Off.UseGeorge = false;
    WithGeorge +=
        iteratedRegisterCoalescing(P, On).Stats.CoalescedAffinities;
    WithoutGeorge +=
        iteratedRegisterCoalescing(P, Off).Stats.CoalescedAffinities;
  }
  // Aggregate: the George option should never be materially worse.
  EXPECT_GE(WithGeorge + 2, WithoutGeorge);
}

TEST(IrcTest, EmptyProblem) {
  CoalescingProblem P;
  P.K = 2;
  IrcResult R = iteratedRegisterCoalescing(P);
  EXPECT_TRUE(R.Colors.empty());
  EXPECT_TRUE(R.Spilled.empty());
}

TEST(IrcTest, MoveChainCollapses) {
  // A chain of moves with no interference collapses to one register.
  CoalescingProblem P;
  P.G = GraphBuilder(5).build();
  P.K = 2;
  for (unsigned I = 0; I + 1 < 5; ++I)
    P.Affinities.push_back({I, I + 1, 1.0});
  IrcResult R = iteratedRegisterCoalescing(P);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 4u);
  EXPECT_EQ(R.Solution.NumClasses, 1u);
  checkIrcResult(P, R);
}
