//===- tests/ChordalIncrementalTest.cpp - Theorem 5 -------------------------===//

#include "coalescing/ChordalIncremental.h"
#include "graph/Chordal.h"
#include "graph/CliqueTree.h"
#include "graph/ExactColoring.h"
#include "graph/Generators.h"
#include "runner/GapReport.h"

#include <gtest/gtest.h>

using namespace rc;

TEST(ChordalIncrementalTest, InterferenceIsInfeasible) {
  Graph G = Graph::path(2);
  ChordalIncrementalResult R = chordalIncrementalCoalescing(G, 0, 1, 2);
  EXPECT_FALSE(R.Feasible);
}

TEST(ChordalIncrementalTest, PathEndpointsShareColor) {
  Graph G = Graph::path(3);
  ChordalIncrementalResult R = chordalIncrementalCoalescing(G, 0, 2, 2);
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.Witness[0], R.Witness[2]);
  EXPECT_TRUE(isValidColoring(G, R.Witness, 2));
}

TEST(ChordalIncrementalTest, SpareColorCase) {
  // k > omega: always feasible.
  Graph G = Graph::path(4);
  ChordalIncrementalResult R = chordalIncrementalCoalescing(G, 0, 3, 3);
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.Witness[0], R.Witness[3]);
  EXPECT_TRUE(isValidColoring(G, R.Witness, 3));
}

TEST(ChordalIncrementalTest, KBelowOmegaInfeasible) {
  GraphBuilder GB(Graph::complete(3));
  GB.addVertices(1);
  Graph G = std::move(GB).build();
  EXPECT_FALSE(chordalIncrementalCoalescing(G, 0, 3, 2).Feasible);
}

TEST(ChordalIncrementalTest, DifferentComponents) {
  GraphBuilder GB(5);
  GB.addClique({0, 1, 2});
  GB.addEdge(3, 4);
  Graph G = std::move(GB).build();
  ChordalIncrementalResult R = chordalIncrementalCoalescing(G, 0, 3, 3);
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.Witness[0], R.Witness[3]);
  EXPECT_TRUE(isValidColoring(G, R.Witness, 3));
}

TEST(ChordalIncrementalTest, CrossComponentAtTightPressure) {
  // Two full triangles at k = omega = 3: no clique has a free slot, and x
  // and y lie in different components. The clique tree joins the
  // components through an empty separator, so the path between T_x and
  // T_y is that one edge and the chain is just {x, y}.
  GraphBuilder GB(6);
  GB.addClique({0, 1, 2});
  GB.addClique({3, 4, 5});
  const unsigned K = 3;
  Graph G = std::move(GB).build();
  CliqueTree T = CliqueTree::build(G);
  std::vector<unsigned> Path =
      T.pathBetweenSubtrees(T.nodesContaining(0), T.nodesContaining(3));
  ASSERT_EQ(Path.size(), 2u);
  EXPECT_EQ(T.clique(Path[0]), (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(T.clique(Path[1]), (std::vector<unsigned>{3, 4, 5}));

  for (const ChordalIncrementalResult &R :
       {chordalIncrementalCoalescing(G, 0, 3, K),
        chordalIncrementalDP(G, 0, 3, K)}) {
    ASSERT_TRUE(R.Feasible);
    EXPECT_TRUE(R.GapFree);
    EXPECT_EQ(R.MergedChain, (std::vector<unsigned>{0, 3}));
    EXPECT_EQ(R.Witness[0], R.Witness[3]);
    EXPECT_TRUE(isValidColoring(G, R.Witness, static_cast<int>(K)));
  }
}

TEST(ChordalIncrementalTest, TightCorridorInfeasible) {
  // Figure-5-like negative case: a "full" path of cliques where the
  // intervals cannot be tiled. Two triangles sharing a middle edge chain:
  // x - {a,b} - y with every position full at k = 2... construct the
  // 3-path of 2-cliques: x-a, a-b? Use: path x - a - y has omega 2 and
  // x,y CAN share. A genuinely infeasible case: vertices x,m1,m2,y:
  // edges x-m1, m1-m2, m2-y; plus m1-y? Build the 4-cycle-free chordal
  // graph where x and y must differ: x-a, a-y with a adjacent to both and
  // one extra vertex forcing colors. Take the 3-sun-ish: triangle a,b,c,
  // x adjacent to a,b; y adjacent to b,c. k = 3 = omega. Can f(x)=f(y)?
  // x avoids {a,b}; y avoids {b,c}: color(a)=1,b=2,c=3 -> x=3, y=1:
  // cannot match? x in {3}, y in {1}: infeasible... but colors of the
  // triangle can permute; x's color = color(c) always and y's = color(a);
  // they differ always. Infeasible indeed.
  GraphBuilder GB(5); // a=0,b=1,c=2,x=3,y=4.
  GB.addClique({0, 1, 2});
  GB.addEdge(3, 0);
  GB.addEdge(3, 1);
  GB.addEdge(4, 1);
  GB.addEdge(4, 2);
  Graph G = std::move(GB).build();
  ASSERT_TRUE(isChordal(G));
  ChordalIncrementalResult R = chordalIncrementalCoalescing(G, 3, 4, 3);
  EXPECT_FALSE(R.Feasible);
  // Ground truth agrees.
  EXPECT_FALSE(exactKColoringWithEquality(G, 3, 4, 3).Colorable);
}

TEST(ChordalIncrementalTest, CorridorParityInfeasibleThenSlackFeasible) {
  // On the path 0-1-2-3 with k = 2 the colors alternate, so the endpoints
  // can NOT share a color (every position of the clique path is full).
  // With k = 3 a slack position appears and they can.
  Graph G = Graph::path(4);
  ChordalIncrementalResult Tight = chordalIncrementalCoalescing(G, 0, 3, 2);
  EXPECT_FALSE(Tight.Feasible);
  EXPECT_FALSE(exactKColoringWithEquality(G, 0, 3, 2).Colorable);

  ChordalIncrementalResult Slack = chordalIncrementalCoalescing(G, 0, 3, 3);
  ASSERT_TRUE(Slack.Feasible);
  EXPECT_EQ(Slack.Witness[0], Slack.Witness[3]);
  EXPECT_TRUE(isValidColoring(G, Slack.Witness, 3));
}

TEST(ChordalIncrementalTest, SlackThroughPartiallyFullCorridor) {
  // Path of cliques where the middle clique is below k: x - {m} - y with a
  // K3 at each end. x,y share via a slack chain even at k = omega.
  // Build: triangle {x, p, q}, triangle {y, r, s}, bridge p - m, m - r.
  GraphBuilder GB(7); // x=0,p=1,q=2, m=3, y=4,r=5,s=6.
  GB.addClique({0, 1, 2});
  GB.addClique({4, 5, 6});
  GB.addEdge(1, 3);
  GB.addEdge(3, 5);
  Graph G = std::move(GB).build();
  ASSERT_TRUE(isChordal(G));
  unsigned Omega = chordalCliqueNumber(G);
  ASSERT_EQ(Omega, 3u);
  ChordalIncrementalResult R = chordalIncrementalCoalescing(G, 0, 4, Omega);
  EXPECT_EQ(R.Feasible,
            exactKColoringWithEquality(G, 0, 4, Omega).Colorable);
  EXPECT_TRUE(R.Feasible);
}

struct ChordalIncrementalSweep : public ::testing::TestWithParam<unsigned> {};

// The main Theorem 5 validation: the polynomial algorithm agrees with the
// exponential exact solver on every chordal instance and every
// non-interfering pair, at k = omega and k = omega + 1.
TEST_P(ChordalIncrementalSweep, AgreesWithExactSolver) {
  Rng Rand(GetParam());
  for (int Trial = 0; Trial < 4; ++Trial) {
    Graph G = randomChordalGraph(12, 7, 3, Rand);
    ASSERT_TRUE(isChordal(G));
    unsigned Omega = chordalCliqueNumber(G);
    if (Omega == 0)
      continue;
    for (unsigned K : {Omega, Omega + 1}) {
      for (unsigned X = 0; X < G.numVertices(); ++X)
        for (unsigned Y = X + 1; Y < G.numVertices(); ++Y) {
          if (G.hasEdge(X, Y))
            continue;
          ChordalIncrementalResult Fast =
              chordalIncrementalCoalescing(G, X, Y, K);
          ExactColoringResult Exact =
              exactKColoringWithEquality(G, X, Y, K);
          ASSERT_EQ(Fast.Feasible, Exact.Colorable)
              << "Theorem 5 disagreement at (" << X << "," << Y
              << ") k=" << K;
          if (Fast.Feasible) {
            EXPECT_TRUE(isValidColoring(G, Fast.Witness,
                                        static_cast<int>(K)));
            EXPECT_EQ(Fast.Witness[X], Fast.Witness[Y]);
          }
        }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChordalIncrementalSweep,
                         ::testing::Values(501u, 502u, 503u, 504u, 505u,
                                           506u, 507u, 508u, 509u, 510u,
                                           511u, 512u));

TEST(ChordalIncrementalTest, MergedChainIsConflictFree) {
  Rng Rand(91);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Graph G = randomChordalGraph(15, 8, 3, Rand);
    unsigned Omega = chordalCliqueNumber(G);
    for (unsigned X = 0; X < G.numVertices(); ++X) {
      for (unsigned Y = X + 1; Y < G.numVertices(); ++Y) {
        if (G.hasEdge(X, Y))
          continue;
        ChordalIncrementalResult R =
            chordalIncrementalCoalescing(G, X, Y, Omega);
        if (!R.Feasible)
          continue;
        // The merged chain vertices are pairwise non-interfering and all
        // share the witness color.
        for (size_t I = 0; I < R.MergedChain.size(); ++I)
          for (size_t J = I + 1; J < R.MergedChain.size(); ++J)
            EXPECT_FALSE(
                G.hasEdge(R.MergedChain[I], R.MergedChain[J]));
        for (unsigned V : R.MergedChain)
          EXPECT_EQ(R.Witness[V], R.Witness[X]);
      }
    }
  }
}

TEST(ChordalIncrementalTest, TreeFormsAgreeWithOneShotsOnGoldenCorpus) {
  // chordalCoalesce calls the tree forms, which build no witness; the
  // one-shot forms the oracles call build and check one. Both must pick
  // the same chain for every affinity of the golden instances up to
  // n = 256. Each instance is walked the way the driver walks it: every
  // feasible chain is merged, so later affinities are decided on chordal
  // quotients, where some are infeasible.
  unsigned Feasible = 0, Infeasible = 0, Gapped = 0;
  for (const LabeledProblem &LP : goldenChallengeCorpus()) {
    const CoalescingProblem &P = LP.Problem;
    if (P.G.numVertices() > 256)
      continue;
    Graph Current = P.G;
    std::vector<unsigned> ClassOf(P.G.numVertices());
    for (unsigned V = 0; V < ClassOf.size(); ++V)
      ClassOf[V] = V;
    for (const Affinity &A : P.Affinities) {
      unsigned X = ClassOf[A.U], Y = ClassOf[A.V];
      if (X == Y)
        continue;
      std::string Where = LP.Label + " affinity (" + std::to_string(A.U) +
                          "," + std::to_string(A.V) + ")";
      std::vector<unsigned> Peo;
      ASSERT_TRUE(isChordal(Current, &Peo)) << Where;
      ASSERT_GE(P.K, chordalCliqueNumber(Current, Peo)) << Where;
      CliqueTree T = CliqueTree::build(Current, Peo);

      ChordalChainDecision Bfs =
          chordalIncrementalCoalescing(Current, T, X, Y, P.K);
      ChordalIncrementalResult BfsOnce =
          chordalIncrementalCoalescing(Current, X, Y, P.K);
      EXPECT_EQ(Bfs.Feasible, BfsOnce.Feasible) << Where;
      EXPECT_EQ(Bfs.MergedChain, BfsOnce.MergedChain) << Where;
      EXPECT_EQ(Bfs.gapFree(), BfsOnce.GapFree) << Where;

      ChordalChainDecision Dp = chordalIncrementalDP(Current, T, X, Y, P.K);
      ChordalIncrementalResult DpOnce =
          chordalIncrementalDP(Current, X, Y, P.K);
      EXPECT_EQ(Dp.Feasible, DpOnce.Feasible) << Where;
      EXPECT_EQ(Dp.MergedChain, DpOnce.MergedChain) << Where;
      EXPECT_EQ(Dp.gapFree(), DpOnce.GapFree) << Where;
      // The two searches decide the same question.
      ASSERT_EQ(Bfs.Feasible, Dp.Feasible) << Where;

      if (!Bfs.Feasible) {
        ++Infeasible;
        continue;
      }
      ++Feasible;
      Gapped += !Bfs.gapFree();
      // Merge the BFS chain into its first vertex and renumber densely.
      std::vector<unsigned> Into(Current.numVertices());
      for (unsigned C = 0; C < Into.size(); ++C)
        Into[C] = C;
      for (unsigned C : Bfs.MergedChain)
        Into[C] = Bfs.MergedChain.front();
      std::vector<unsigned> NewId(Current.numVertices(), ~0u);
      unsigned NumClasses = 0;
      for (unsigned C = 0; C < Into.size(); ++C)
        if (NewId[Into[C]] == ~0u)
          NewId[Into[C]] = NumClasses++;
      for (unsigned C = 0; C < Into.size(); ++C)
        NewId[C] = NewId[Into[C]];
      Current = Current.quotient(NewId, NumClasses);
      for (unsigned &Class : ClassOf)
        Class = NewId[Class];
    }
  }
  EXPECT_GT(Feasible, 100u);
  EXPECT_GT(Infeasible, 100u);
  EXPECT_GT(Gapped, 0u);
}
