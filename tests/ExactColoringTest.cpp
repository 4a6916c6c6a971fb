//===- tests/ExactColoringTest.cpp - DSATUR + Bron-Kerbosch ----------------===//

#include "graph/Chordal.h"
#include "graph/ExactColoring.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"

#include <gtest/gtest.h>

using namespace rc;

TEST(ExactColoringTest, KnownChromaticNumbers) {
  EXPECT_EQ(chromaticNumber(Graph()), 0u);
  EXPECT_EQ(chromaticNumber(GraphBuilder(3).build()), 1u);
  EXPECT_EQ(chromaticNumber(Graph::complete(5)), 5u);
  EXPECT_EQ(chromaticNumber(Graph::cycle(4)), 2u);
  EXPECT_EQ(chromaticNumber(Graph::cycle(5)), 3u);
  EXPECT_EQ(chromaticNumber(Graph::path(7)), 2u);
}

TEST(ExactColoringTest, PetersenGraphIsThreeChromatic) {
  // The Petersen graph: outer 5-cycle, inner 5-star, spokes.
  GraphBuilder GB(10);
  for (unsigned I = 0; I < 5; ++I) {
    GB.addEdge(I, (I + 1) % 5);           // Outer cycle.
    GB.addEdge(5 + I, 5 + (I + 2) % 5);   // Inner pentagram.
    GB.addEdge(I, 5 + I);                 // Spokes.
  }
  Graph G = std::move(GB).build();
  EXPECT_FALSE(exactKColoring(G, 2).Colorable);
  ExactColoringResult R = exactKColoring(G, 3);
  EXPECT_TRUE(R.Colorable);
  EXPECT_TRUE(isValidColoring(G, R.Assignment, 3));
}

TEST(ExactColoringTest, WitnessIsAlwaysValid) {
  Rng Rand(21);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Graph G = randomGraph(14, 0.4, Rand);
    unsigned Chi = chromaticNumber(G);
    ExactColoringResult R = exactKColoring(G, Chi);
    ASSERT_TRUE(R.Colorable);
    EXPECT_TRUE(isValidColoring(G, R.Assignment, static_cast<int>(Chi)));
    if (Chi > 1) {
      EXPECT_FALSE(exactKColoring(G, Chi - 1).Colorable);
    }
  }
}

TEST(ExactColoringTest, AgreesWithChordalOmega) {
  // Chordal graphs are perfect: chi == omega.
  Rng Rand(22);
  for (int Trial = 0; Trial < 15; ++Trial) {
    Graph G = randomChordalGraph(16, 8, 3, Rand);
    EXPECT_EQ(chromaticNumber(G), chordalCliqueNumber(G));
  }
}

TEST(ExactColoringTest, ChromaticIsAtMostColoringNumber) {
  Rng Rand(23);
  for (int Trial = 0; Trial < 15; ++Trial) {
    Graph G = randomGraph(15, 0.3, Rand);
    EXPECT_LE(chromaticNumber(G), coloringNumber(G));
  }
}

TEST(ExactColoringTest, NodeLimitAborts) {
  Rng Rand(24);
  Graph G = randomGraph(30, 0.5, Rand);
  ExactColoringResult R = exactKColoring(G, 3, /*NodeLimit=*/5);
  EXPECT_TRUE(R.HitLimit);
}

// --- Equality-constrained coloring (incremental coalescing ground truth) ---

TEST(ExactColoringEqualityTest, SimplePathCases) {
  Graph P3 = Graph::path(3);
  // Endpoints of the path can share a color with k = 2.
  ExactColoringResult R = exactKColoringWithEquality(P3, 0, 2, 2);
  ASSERT_TRUE(R.Colorable);
  EXPECT_EQ(R.Assignment[0], R.Assignment[2]);
}

TEST(ExactColoringEqualityTest, ConstraintCanForceExtraColor) {
  // C4 is 2-colorable but forcing two adjacent-in-the-quotient... take the
  // 4-cycle 0-1-2-3 and force 0 == 1's opposite: forcing f(0) = f(1) is
  // impossible via interference; forcing f(0) = f(2) stays 2-colorable.
  Graph C4 = Graph::cycle(4);
  ExactColoringResult R = exactKColoringWithEquality(C4, 0, 2, 2);
  EXPECT_TRUE(R.Colorable);
  // Forcing the two OTHER opposite corners simultaneously is fine too, but
  // with 5-cycle forcing any equality needs 3 colors.
  Graph C5 = Graph::cycle(5);
  ExactColoringResult R5 = exactKColoringWithEquality(C5, 0, 2, 3);
  EXPECT_TRUE(R5.Colorable);
  EXPECT_EQ(R5.Assignment[0], R5.Assignment[2]);
}

TEST(ExactColoringEqualityTest, InfeasibleWhenMergeCreatesBigClique) {
  // Two triangles sharing an edge: 0-1-2 and 1-2-3. Forcing f(0) = f(3)
  // keeps it 3-colorable; but in K4 minus one edge with k = 3... build a
  // case that is infeasible: C5 with k = 2 is infeasible outright.
  Graph C5 = Graph::cycle(5);
  EXPECT_FALSE(exactKColoringWithEquality(C5, 0, 2, 2).Colorable);
}

TEST(ExactColoringEqualityTest, MatchesMergedChromatic) {
  Rng Rand(25);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Graph G = randomGraph(12, 0.3, Rand);
    // Pick the first non-edge.
    unsigned X = ~0u, Y = ~0u;
    for (unsigned U = 0; U < G.numVertices() && X == ~0u; ++U)
      for (unsigned V = U + 1; V < G.numVertices(); ++V)
        if (!G.hasEdge(U, V)) {
          X = U;
          Y = V;
          break;
        }
    if (X == ~0u)
      continue;
    unsigned Chi = chromaticNumber(G);
    ExactColoringResult R = exactKColoringWithEquality(G, X, Y, Chi + 1);
    // One spare color always suffices (merge adds at most one to chi).
    EXPECT_TRUE(R.Colorable);
    EXPECT_EQ(R.Assignment[X], R.Assignment[Y]);
  }
}

// --- Bron-Kerbosch ----------------------------------------------------------

TEST(BronKerboschTest, KnownCliques) {
  EXPECT_TRUE(maximalCliquesBruteForce(Graph()).empty());
  Graph K3 = Graph::complete(3);
  auto Cliques = maximalCliquesBruteForce(K3);
  ASSERT_EQ(Cliques.size(), 1u);
  EXPECT_EQ(Cliques[0], (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(maximalCliquesBruteForce(Graph::cycle(5)).size(), 5u);
}

TEST(BronKerboschTest, IsolatedVerticesAreMaximalCliques) {
  GraphBuilder GB(3);
  GB.addEdge(0, 1);
  Graph G = std::move(GB).build();
  auto Cliques = maximalCliquesBruteForce(G);
  EXPECT_EQ(Cliques.size(), 2u); // {0,1} and {2}.
}

TEST(BronKerboschTest, CliqueNumberOnRandomGraphs) {
  Rng Rand(26);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Graph G = randomGraph(12, 0.4, Rand);
    unsigned W = cliqueNumberBruteForce(G);
    // Every maximal clique really is a clique and is maximal.
    for (const auto &Clique : maximalCliquesBruteForce(G)) {
      EXPECT_TRUE(G.isClique(Clique));
      EXPECT_LE(Clique.size(), W);
      for (unsigned V = 0; V < G.numVertices(); ++V) {
        if (std::find(Clique.begin(), Clique.end(), V) != Clique.end())
          continue;
        bool AdjacentToAll = true;
        for (unsigned U : Clique)
          AdjacentToAll &= G.hasEdge(U, V);
        EXPECT_FALSE(AdjacentToAll) << "clique not maximal";
      }
    }
  }
}
