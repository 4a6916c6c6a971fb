//===- tests/ConservativeTest.cpp - conservative rules + Theorem 3 ---------===//

#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "graph/ExactColoring.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"
#include "npc/Theorem3Reduction.h"
#include "testing/LegacyConservative.h"

#include <gtest/gtest.h>

using namespace rc;

namespace {

/// Builds the Figure 3 (left) gadget: a permutation of Size values. Each
/// source u_i interferes with every destination v_j except its partner v_i
/// (the value it transfers), plus the affinities (u_i, v_i). With
/// k = 2*Size - 2, coalescing ALL pairs yields K_Size (fine), but each
/// single merged pair has degree exactly k.
///
/// When \p PadNeighbors, every u_j / v_j additionally gets a private
/// triangle raising its degree to k ("due to other vertices not shown"),
/// which makes the local Briggs/George rules reject every pair while the
/// graph stays greedy-k-colorable and fully coalescable.
CoalescingProblem permutationGadget(unsigned Size, bool PadNeighbors = false) {
  assert(Size >= 3 && "gadget needs at least 3 pairs");
  CoalescingProblem P;
  GraphBuilder GB(2 * Size); // u_i = i, v_i = Size + i.
  for (unsigned I = 0; I < Size; ++I)
    for (unsigned J = 0; J < Size; ++J)
      if (I != J)
        GB.addEdge(I, Size + J); // u_i -- v_j.
  for (unsigned I = 0; I < Size; ++I)
    P.Affinities.push_back({I, Size + I, 1.0});
  P.K = 2 * Size - 2;
  if (PadNeighbors) {
    // Raise each vertex's degree from Size-1 to K by attaching a private
    // clique of K - (Size - 1) low-degree vertices.
    unsigned PadSize = P.K - (Size - 1);
    for (unsigned V = 0; V < 2 * Size; ++V) {
      unsigned First = GB.addVertices(PadSize);
      std::vector<unsigned> Clique{V};
      for (unsigned I = 0; I < PadSize; ++I)
        Clique.push_back(First + I);
      GB.addClique(Clique);
    }
  }
  P.G = std::move(GB).build();
  return P;
}

} // namespace

TEST(ConservativeRuleTest, BriggsAcceptsLowDegreeMerge) {
  GraphBuilder GB(4);
  GB.addEdge(0, 2);
  GB.addEdge(1, 3);
  Graph G = std::move(GB).build();
  WorkGraph WG(G);
  WG.enableDegreeCache(2);
  EXPECT_TRUE(briggsTest(WG, 0, 1, 2));
}

TEST(ConservativeRuleTest, BriggsCountsCommonNeighborsOnce) {
  // Merging 0 and 1 with common neighbor 2 (degree 2 in a triangle-free
  // graph): after the merge 2's degree drops to 1.
  GraphBuilder GB(4);
  GB.addEdge(0, 2);
  GB.addEdge(1, 2);
  GB.addEdge(2, 3);
  Graph G = std::move(GB).build();
  WorkGraph WG(G);
  WG.enableDegreeCache(2);
  // k=2: neighbor 2 has degree 3, merged-degree 2 >= 2 -> 1 significant,
  // which is < k, so Briggs accepts.
  EXPECT_TRUE(briggsTest(WG, 0, 1, 2));
}

TEST(ConservativeRuleTest, GeorgeSubsumptionCase) {
  // N(0) subset of N(1): George accepts merging 0 into 1 trivially.
  GraphBuilder GB(5);
  GB.addEdge(0, 2);
  GB.addEdge(1, 2);
  GB.addEdge(1, 3);
  GB.addEdge(1, 4);
  Graph G = std::move(GB).build();
  WorkGraph WG(G);
  WG.enableDegreeCache(2);
  EXPECT_TRUE(georgeTest(WG, 0, 1, 2));
}

TEST(ConservativeRuleTest, GeorgeRejectsUncoveredHighDegreeNeighbor) {
  // 0's neighbor 2 has high degree and is not a neighbor of 1.
  GraphBuilder GB(6);
  GB.addEdge(0, 2);
  GB.addEdge(2, 3);
  GB.addEdge(2, 4);
  GB.addEdge(2, 5);
  Graph G = std::move(GB).build();
  WorkGraph WG(G);
  WG.enableDegreeCache(2);
  EXPECT_FALSE(georgeTest(WG, 0, 1, 2));
  // Low-degree neighbors are ignored: with k = 4, degree(2) = 4 >= 4, still
  // rejected; with k = 5 accepted.
  WG.enableDegreeCache(4);
  EXPECT_FALSE(georgeTest(WG, 0, 1, 4));
  WG.enableDegreeCache(5);
  EXPECT_TRUE(georgeTest(WG, 0, 1, 5));
}

TEST(ConservativeRuleTest, BruteForceMatchesDefinition) {
  Rng Rand(81);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Graph G = randomGraph(10, 0.3, Rand);
    unsigned K = coloringNumber(G);
    WorkGraph WG(G);
    // Find any mergeable pair and cross-check the brute-force test.
    for (unsigned U = 0; U < 10; ++U)
      for (unsigned V = U + 1; V < 10; ++V) {
        if (!WG.canMerge(U, V))
          continue;
        WorkGraph Copy = WG;
        Copy.merge(U, V);
        EXPECT_EQ(bruteForceTest(WG, U, V, K),
                  isGreedyKColorable(Copy.quotientGraph(), K));
      }
  }
}

TEST(ConservativeRuleTest, RulesPreserveGreedyColorability) {
  // Fundamental soundness property of all three tests (Section 4).
  Rng Rand(82);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Graph G = randomGraph(12, 0.3, Rand);
    unsigned K = coloringNumber(G);
    WorkGraph WG(G);
    WG.enableDegreeCache(K);
    for (unsigned U = 0; U < 12; ++U)
      for (unsigned V = U + 1; V < 12; ++V) {
        if (!WG.canMerge(U, V))
          continue;
        bool Briggs = briggsTest(WG, U, V, K);
        bool George = georgeTest(WG, U, V, K) || georgeTest(WG, V, U, K);
        if (!Briggs && !George)
          continue;
        WorkGraph Copy = WG;
        Copy.merge(U, V);
        EXPECT_TRUE(isGreedyKColorable(Copy.quotientGraph(), K))
            << "unsound local rule: trial " << Trial << " merge (" << U
            << "," << V << ") briggs=" << Briggs << " george=" << George;
      }
  }
}

// --- Figure 3: local rules are not enough -----------------------------------

TEST(Figure3Test, PermutationCoalescableAsAWhole) {
  for (unsigned Size : {3u, 4u, 5u}) {
    CoalescingProblem P = permutationGadget(Size);
    ASSERT_TRUE(isGreedyKColorable(P.G, P.K));
    // Coalescing the whole permutation at once stays greedy-k-colorable.
    WorkGraph WG(P.G);
    for (const Affinity &A : P.Affinities) {
      ASSERT_TRUE(WG.canMerge(A.U, A.V));
      WG.merge(A.U, A.V);
    }
    EXPECT_TRUE(isGreedyKColorable(WG.quotientGraph(), P.K));
  }
}

TEST(Figure3Test, MergedPairHasDegreeK) {
  // The paper's middle figure: after coalescing one pair of a permutation
  // of size 4 with k = 6, the merged vertex has degree 6 = k.
  CoalescingProblem P = permutationGadget(4);
  ASSERT_EQ(P.K, 6u);
  WorkGraph WG(P.G);
  WG.merge(P.Affinities[0].U, P.Affinities[0].V);
  EXPECT_EQ(WG.degree(P.Affinities[0].U), 6u);
}

TEST(Figure3Test, BruteForceCoalescesPermutationIncrementally) {
  // Merge-and-check sees that each pair merge keeps the graph
  // greedy-k-colorable even though the merged degree reaches k.
  CoalescingProblem P = permutationGadget(4);
  ConservativeResult R =
      conservativeCoalesce(P, ConservativeRule::BruteForce);
  EXPECT_EQ(R.Stats.UncoalescedAffinities, 0u);
}

TEST(Figure3Test, RightGadgetNonIncremental) {
  // Figure 3 right: a graph that stays greedy-3-colorable if (a,b) AND
  // (a,c) are coalesced together, but not if only one of them is.
  //
  // Construction (two overlapping K3,3 obstructions):
  //   a=0, b=1, c=2; x1..x3 = 3..5; u1..u3 = 6..8; y=9, y'=10.
  //   Merging {a,b} completes the K3,3 on {ab, y, c} x {x1,x2,x3};
  //   merging {a,c} completes the K3,3 on {ac, y', b} x {u1,u2,u3};
  //   merging all three collapses c into the first obstruction (and b into
  //   the second), leaving the x's and u's with degree 2.
  GraphBuilder GB(11);
  const unsigned A = 0, B = 1, C = 2, X1 = 3, X2 = 4, X3 = 5, U1 = 6,
                 U2 = 7, U3 = 8, Y = 9, YP = 10;
  GB.addEdge(A, X3);
  GB.addEdge(A, U3);
  GB.addEdge(B, X1);
  GB.addEdge(B, X2);
  GB.addEdge(B, U1);
  GB.addEdge(B, U2);
  GB.addEdge(B, U3);
  GB.addEdge(C, X1);
  GB.addEdge(C, X2);
  GB.addEdge(C, X3);
  GB.addEdge(C, U1);
  GB.addEdge(C, U2);
  for (unsigned X : {X1, X2, X3})
    GB.addEdge(Y, X);
  for (unsigned U : {U1, U2, U3})
    GB.addEdge(YP, U);
  Graph G = std::move(GB).build();

  // The original graph is greedy-3-colorable, and the affinity endpoints
  // do not interfere.
  EXPECT_TRUE(isGreedyKColorable(G, 3));
  EXPECT_FALSE(G.hasEdge(A, B));
  EXPECT_FALSE(G.hasEdge(A, C));

  auto mergedGreedy = [&G](std::vector<std::vector<unsigned>> Groups) {
    std::vector<unsigned> Classes(G.numVertices(), ~0u);
    unsigned Next = 0;
    for (const auto &Group : Groups) {
      for (unsigned V : Group)
        Classes[V] = Next;
      ++Next;
    }
    for (unsigned V = 0; V < G.numVertices(); ++V)
      if (Classes[V] == ~0u)
        Classes[V] = Next++;
    return isGreedyKColorable(G.quotient(Classes, Next), 3);
  };

  EXPECT_TRUE(mergedGreedy({{A, B, C}}));  // Both coalesced: fine.
  EXPECT_FALSE(mergedGreedy({{A, B}}));    // Only (a,b): K3,3 obstruction.
  EXPECT_FALSE(mergedGreedy({{A, C}}));    // Only (a,c): K3,3 obstruction.
}

TEST(Figure3Test, LocalRulesRejectPaddedPermutation) {
  // With the "other vertices not shown" padding, Briggs and George coalesce
  // NOTHING on the permutation, while the brute-force merge-and-check test
  // coalesces every pair. This is E9 of DESIGN.md.
  CoalescingProblem P = permutationGadget(4, /*PadNeighbors=*/true);
  ASSERT_TRUE(isGreedyKColorable(P.G, P.K));
  ConservativeResult Briggs =
      conservativeCoalesce(P, ConservativeRule::Briggs);
  EXPECT_EQ(Briggs.Stats.CoalescedAffinities, 0u);
  ConservativeResult George =
      conservativeCoalesce(P, ConservativeRule::George);
  EXPECT_EQ(George.Stats.CoalescedAffinities, 0u);
  ConservativeResult Both =
      conservativeCoalesce(P, ConservativeRule::BriggsOrGeorge);
  EXPECT_EQ(Both.Stats.CoalescedAffinities, 0u);
  ConservativeResult Brute =
      conservativeCoalesce(P, ConservativeRule::BruteForce);
  EXPECT_EQ(Brute.Stats.CoalescedAffinities, 4u);
}

// --- Driver behavior --------------------------------------------------------

TEST(ConservativeDriverTest, KeepsGraphGreedyKColorable) {
  Rng Rand(83);
  for (int Trial = 0; Trial < 10; ++Trial) {
    CoalescingProblem P;
    P.G = randomChordalGraph(20, 10, 3, Rand);
    P.K = coloringNumber(P.G);
    for (int A = 0; A < 12; ++A) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(20));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(20));
      if (U != V && !P.G.hasEdge(U, V))
        P.Affinities.push_back({U, V, 1.0});
    }
    for (ConservativeRule Rule :
         {ConservativeRule::Briggs, ConservativeRule::George,
          ConservativeRule::BriggsOrGeorge, ConservativeRule::BruteForce}) {
      ConservativeResult R = conservativeCoalesce(P, Rule);
      EXPECT_TRUE(isValidCoalescing(P.G, R.Solution));
      EXPECT_TRUE(
          isGreedyKColorable(buildCoalescedGraph(P.G, R.Solution), P.K));
    }
  }
}

TEST(ConservativeDriverTest, BruteForceDominatesLocalRules) {
  Rng Rand(84);
  for (int Trial = 0; Trial < 8; ++Trial) {
    CoalescingProblem P;
    P.G = randomChordalGraph(18, 9, 3, Rand);
    P.K = coloringNumber(P.G);
    for (int A = 0; A < 10; ++A) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(18));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(18));
      if (U != V && !P.G.hasEdge(U, V))
        P.Affinities.push_back({U, V, 1.0});
    }
    ConservativeResult Briggs =
        conservativeCoalesce(P, ConservativeRule::Briggs);
    ConservativeResult Brute =
        conservativeCoalesce(P, ConservativeRule::BruteForce);
    // The brute-force test accepts whenever Briggs accepts.
    EXPECT_GE(Brute.Stats.CoalescedAffinities,
              Briggs.Stats.CoalescedAffinities);
  }
}

namespace {

/// Builds the reactivation gadget: with k = 3, Briggs rejects the heavy
/// affinity (u, v) at first — the merged class would see three significant
/// neighbors n1, n2, n3 — but the later, lighter merge (x, y) drops their
/// common neighbor n1 below significance, making (u, v) safe. A fixpoint
/// driver picks it up on its second pass; the worklist driver must
/// reactivate it off the dirtied class.
CoalescingProblem reactivationGadget() {
  CoalescingProblem P;
  P.K = 3;
  GraphBuilder GB(11);
  const unsigned U = 0, V = 1, N1 = 2, N2 = 3, N3 = 4, X = 5, Y = 6;
  GB.addEdge(U, N1);
  GB.addEdge(U, N2);
  GB.addEdge(V, N3);
  GB.addEdge(N1, X);
  GB.addEdge(N1, Y);
  GB.addEdge(N2, 7);
  GB.addEdge(N2, 8);
  GB.addEdge(N3, 9);
  GB.addEdge(N3, 10);
  P.Affinities.push_back({U, V, 2.0});
  P.Affinities.push_back({X, Y, 1.0});
  P.G = std::move(GB).build();
  return P;
}

} // namespace

TEST(ConservativeDriverTest, WorklistReactivatesBriggsRejectedAffinity) {
  CoalescingProblem P = reactivationGadget();
  ASSERT_TRUE(isGreedyKColorable(P.G, P.K));
  {
    // Sanity: the heavy affinity alone is Briggs-rejected, and passes once
    // (x, y) are merged.
    WorkGraph WG(P.G);
    WG.enableDegreeCache(P.K);
    EXPECT_FALSE(briggsTest(WG, 0, 1, P.K));
    WG.merge(5, 6);
    EXPECT_TRUE(briggsTest(WG, 0, 1, P.K));
  }
  CoalescingTelemetry T;
  ConservativeResult R =
      conservativeCoalesce(P, ConservativeRule::Briggs, &T);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 2u);
  EXPECT_EQ(R.TestRejections, 0u);
  // The rejected (u, v) must have been woken by the (x, y) merge touching
  // the watched common neighbor, not by a blanket re-scan.
  EXPECT_GE(T.WorklistReactivations, 1u);
  ConservativeResult Legacy =
      rc::testing::conservativeCoalesceLegacy(P, ConservativeRule::Briggs);
  EXPECT_EQ(R.Solution.ClassIds, Legacy.Solution.ClassIds);
}

TEST(ConservativeDriverTest, MatchesLegacyDriverOnRandomInstances) {
  Rng Rand(87);
  for (int Trial = 0; Trial < 12; ++Trial) {
    CoalescingProblem P;
    P.G = randomChordalGraph(24, 12, 3, Rand);
    P.K = coloringNumber(P.G);
    for (int A = 0; A < 16; ++A) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(24));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(24));
      if (U != V && !P.G.hasEdge(U, V))
        P.Affinities.push_back({U, V, 1.0 + (A % 5)});
    }
    for (ConservativeRule Rule :
         {ConservativeRule::Briggs, ConservativeRule::George,
          ConservativeRule::BriggsOrGeorge, ConservativeRule::BruteForce}) {
      ConservativeResult New = conservativeCoalesce(P, Rule);
      ConservativeResult Legacy =
          rc::testing::conservativeCoalesceLegacy(P, Rule);
      EXPECT_EQ(New.Solution.ClassIds, Legacy.Solution.ClassIds)
          << "driver divergence: trial " << Trial << " rule "
          << static_cast<int>(Rule);
      // At a natural fixpoint the legacy final-pass census and the
      // worklist's parked-category census agree.
      EXPECT_EQ(New.TestRejections, Legacy.TestRejections);
      EXPECT_EQ(New.InterferenceRejections, Legacy.InterferenceRejections);
    }
  }
}

TEST(ConservativeDriverTest, TimeoutCountersMatchPartialSolution) {
  // A token that is already expired stops the driver before any affinity
  // is examined: the counters must describe that empty prefix instead of a
  // partially reset pass (the old driver zeroed them at each pass top).
  CoalescingProblem P = reactivationGadget();
  CancelToken Cancel;
  Cancel.cancel();
  ConservativeResult R = conservativeCoalesce(
      P, ConservativeRule::Briggs, nullptr, &Cancel);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_EQ(R.TestRejections, 0u);
  EXPECT_EQ(R.InterferenceRejections, 0u);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 0u);
}

// --- Theorem 3 ---------------------------------------------------------------

TEST(Theorem3Test, InputGraphIsGreedyTwoColorable) {
  Rng Rand(85);
  Graph H = randomGraph(8, 0.4, Rand);
  Theorem3Reduction R = Theorem3Reduction::build(H, 3);
  EXPECT_TRUE(isGreedyKColorable(R.Problem.G, 2));
}

TEST(Theorem3Test, FullCoalescingQuotientIsH) {
  Rng Rand(86);
  Graph H = randomGraph(7, 0.4, Rand);
  Theorem3Reduction R = Theorem3Reduction::build(H, 3);
  CoalescingSolution S = R.fullCoalescing();
  EXPECT_TRUE(isValidCoalescing(R.Problem.G, S));
  Graph Q = buildCoalescedGraph(R.Problem.G, S);
  ASSERT_EQ(Q.numVertices(), H.numVertices());
  for (unsigned U = 0; U < H.numVertices(); ++U)
    for (unsigned V = U + 1; V < H.numVertices(); ++V)
      EXPECT_EQ(Q.hasEdge(U, V), H.hasEdge(U, V));
}

struct Theorem3Sweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(Theorem3Sweep, ZeroCostCoalescingIffKColorable) {
  Rng Rand(GetParam());
  Graph H = randomGraph(6, 0.5, Rand);
  unsigned K = 3;
  Theorem3Reduction R = Theorem3Reduction::build(H, K);
  ExactSearchResult Exact =
      exactCoalesceSearch(R.Problem, {ExactFeasibility::ExactColor});
  bool AllCoalesced =
      Exact.Optimal && Exact.Stats.UncoalescedAffinities == 0;
  EXPECT_EQ(AllCoalesced, exactKColoring(H, K).Colorable)
      << "Theorem 3 equivalence violated";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem3Sweep,
                         ::testing::Values(401u, 402u, 403u, 404u, 405u,
                                           406u, 407u, 408u, 409u, 410u));
