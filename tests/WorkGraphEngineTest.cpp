//===- tests/WorkGraphEngineTest.cpp - checkpoint/rollback + hybrid adjacency -===//
//
// The unified merge engine: checkpoint/rollback round-trips, dense-vs-sparse
// representation equivalence, the in-engine colorability checks (whole
// quotient and local post-merge), and the telemetry/observer hooks.
//
//===----------------------------------------------------------------------===//

#include "coalescing/Conservative.h"
#include "coalescing/Telemetry.h"
#include "coalescing/WorkGraph.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"
#include "support/Random.h"
#include "testing/Oracles.h"

#include <gtest/gtest.h>

#include <vector>

using namespace rc;

namespace {

/// Path 0-1-2-3 plus isolated 4: small enough to reason about by hand.
Graph pathGraph() {
  GraphBuilder GB(5);
  GB.addEdge(0, 1);
  GB.addEdge(1, 2);
  GB.addEdge(2, 3);
  Graph G = std::move(GB).build();
  return G;
}

} // namespace

TEST(WorkGraphRollbackTest, SingleMergeRoundTrip) {
  Graph G = pathGraph();
  WorkGraph WG(G);
  CoalescingSolution Before = WG.solution();
  unsigned DegreeBefore = WG.degree(0);

  WG.checkpoint();
  WG.merge(0, 2);
  EXPECT_TRUE(WG.sameClass(0, 2));
  EXPECT_EQ(WG.numClasses(), 4u);
  WG.rollback();

  EXPECT_FALSE(WG.sameClass(0, 2));
  EXPECT_EQ(WG.numClasses(), 5u);
  EXPECT_EQ(WG.degree(0), DegreeBefore);
  CoalescingSolution After = WG.solution();
  EXPECT_EQ(After.ClassIds, Before.ClassIds);
  EXPECT_EQ(After.NumClasses, Before.NumClasses);
}

TEST(WorkGraphRollbackTest, NestedCheckpointsUnwindInOrder) {
  Graph G = pathGraph();
  WorkGraph WG(G);

  WG.checkpoint();
  WG.merge(0, 2); // classes: {0,2} 1 3 4
  CoalescingSolution Mid = WG.solution();
  WG.checkpoint();
  WG.merge(1, 3); // classes: {0,2} {1,3} 4
  WG.merge(0, 4); // classes: {0,2,4} {1,3}
  EXPECT_EQ(WG.numClasses(), 2u);

  WG.rollback(); // back to the inner checkpoint
  CoalescingSolution AfterInner = WG.solution();
  EXPECT_EQ(AfterInner.ClassIds, Mid.ClassIds);
  EXPECT_EQ(WG.numClasses(), 4u);

  WG.rollback(); // back to pristine
  EXPECT_EQ(WG.numClasses(), 5u);
  for (unsigned V = 0; V < 5; ++V)
    EXPECT_EQ(WG.classOf(V), V);
}

TEST(WorkGraphRollbackTest, RollbackToReplaysAgainstOneMark) {
  // The optimistic phase-2 pattern: one base checkpoint, many replays.
  Graph G = pathGraph();
  WorkGraph WG(G);
  WorkGraph::Checkpoint Base = WG.checkpoint();
  for (int Round = 0; Round < 3; ++Round) {
    WG.rollbackTo(Base);
    EXPECT_EQ(WG.numClasses(), 5u);
    WG.merge(0, 2);
    if (Round > 0)
      WG.merge(1, 3);
    EXPECT_EQ(WG.numClasses(), Round > 0 ? 3u : 4u);
  }
  WG.commit();
  EXPECT_TRUE(WG.sameClass(0, 2));
  EXPECT_TRUE(WG.sameClass(1, 3));
}

TEST(WorkGraphRollbackTest, CommitKeepsOuterCheckpointLive) {
  Graph G = pathGraph();
  WorkGraph WG(G);
  WG.checkpoint();
  WG.merge(0, 2);
  WG.checkpoint();
  WG.merge(1, 3);
  WG.commit(); // inner merge becomes part of the outer span
  EXPECT_TRUE(WG.sameClass(1, 3));
  WG.rollback(); // outer rollback undoes both merges
  EXPECT_FALSE(WG.sameClass(0, 2));
  EXPECT_FALSE(WG.sameClass(1, 3));
  EXPECT_EQ(WG.numClasses(), 5u);
}

TEST(WorkGraphRollbackTest, RoundTripsMatchRebuildOnRandomGraphs) {
  for (uint64_t Seed : {1u, 7u, 23u, 55u, 91u}) {
    Rng GraphRand(Seed);
    Graph G = randomGraph(24, 0.2, GraphRand);
    Rng OpRand(Seed * 977 + 3);
    std::string Error;
    EXPECT_TRUE(rc::testing::checkWorkGraphRollback(G, 160, OpRand, &Error))
        << "seed " << Seed << ": " << Error;
  }
}

TEST(WorkGraphHybridTest, DenseAndSparseAgreeOnRandomMergeScripts) {
  for (uint64_t Seed : {3u, 17u, 42u}) {
    Rng Rand(Seed);
    Graph G = randomGraph(32, 0.15, Rand);
    WorkGraph Dense(G, /*DenseThreshold=*/64);
    WorkGraph Sparse(G, /*DenseThreshold=*/0);
    for (int Step = 0; Step < 200; ++Step) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(32));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(32));
      if (U == V)
        continue;
      ASSERT_EQ(Dense.sameClass(U, V), Sparse.sameClass(U, V));
      if (Dense.sameClass(U, V))
        continue;
      ASSERT_EQ(Dense.interfere(U, V), Sparse.interfere(U, V));
      if (Dense.canMerge(U, V)) {
        Dense.merge(U, V);
        Sparse.merge(U, V);
      }
    }
    CoalescingSolution SD = Dense.solution();
    CoalescingSolution SS = Sparse.solution();
    EXPECT_EQ(SD.ClassIds, SS.ClassIds);
    EXPECT_EQ(SD.NumClasses, SS.NumClasses);
    for (unsigned V = 0; V < 32; ++V)
      EXPECT_EQ(Dense.degree(V), Sparse.degree(V));
    Graph QD = Dense.quotientGraph();
    Graph QS = Sparse.quotientGraph();
    ASSERT_EQ(QD.numVertices(), QS.numVertices());
    for (unsigned C = 0; C < QD.numVertices(); ++C)
      EXPECT_EQ(QD.neighbors(C), QS.neighbors(C));
  }
}

TEST(WorkGraphHybridTest, ThresholdSelectsRepresentation) {
  // Behavioral equivalence at the boundary: N == threshold is dense,
  // N > threshold is sparse; both answer identically.
  Rng Rand(5);
  Graph G = randomGraph(16, 0.3, Rand);
  WorkGraph AtThreshold(G, 16);
  WorkGraph BelowThreshold(G, 15);
  EXPECT_TRUE(AtThreshold.usesDenseAdjacency());
  EXPECT_FALSE(BelowThreshold.usesDenseAdjacency());
  for (unsigned U = 0; U < 16; ++U)
    for (unsigned V = U + 1; V < 16; ++V)
      EXPECT_EQ(AtThreshold.interfere(U, V), BelowThreshold.interfere(U, V));
}

TEST(WorkGraphColorabilityTest, MatchesMaterializedQuotient) {
  Rng Rand(29);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Graph G = randomGraph(18, 0.25, Rand);
    WorkGraph WG(G);
    for (int M = 0; M < 6; ++M) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(18));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(18));
      if (U != V && WG.canMerge(U, V))
        WG.merge(U, V);
    }
    for (unsigned K = 1; K <= 6; ++K)
      EXPECT_EQ(WG.quotientGreedyKColorable(K),
                isGreedyKColorable(WG.quotientGraph(), K))
          << "trial " << Trial << " k=" << K;
  }
}

TEST(WorkGraphColorabilityTest, StuckRepsNameTheKCore) {
  // K3 needs 3 colors: with k=2 every vertex is stuck; with k=3 none.
  GraphBuilder GB(4);
  GB.addClique({0, 1, 2});
  Graph G = std::move(GB).build();
  WorkGraph WG(G);
  std::vector<unsigned> Stuck;
  EXPECT_FALSE(WG.quotientGreedyKColorable(2, &Stuck));
  EXPECT_EQ(Stuck, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_TRUE(WG.quotientGreedyKColorable(3, &Stuck));
  EXPECT_TRUE(Stuck.empty());
}

namespace {

/// Probes merging vertices 0 and 1 of \p G at \p K, in dense and in
/// forced-sparse mode, through both brute-force paths: the local check
/// (the caller vouches that the pre-merge quotient is greedy) and the
/// whole-quotient peel. Both must give \p ExpectPass and \p ExpectStuck,
/// and each must count one brute-force test and one colorability check.
void expectLocalProbeMatchesFull(const Graph &G, unsigned K, bool ExpectPass,
                                 const std::vector<unsigned> &ExpectStuck) {
  ASSERT_TRUE(isGreedyKColorable(G, K));
  for (unsigned DenseThreshold : {64u, 0u}) {
    SCOPED_TRACE(DenseThreshold ? "dense" : "sparse");
    WorkGraph WG(G, DenseThreshold);
    WG.enableDegreeCache(K);
    CoalescingTelemetry Local, Full;
    std::vector<unsigned> LocalStuck{99}, FullStuck{99};
    WG.attachTelemetry(&Local);
    bool LocalPassed = bruteForceTest(WG, 0, 1, K, &LocalStuck,
                                      /*PreMergeGreedy=*/true);
    WG.attachTelemetry(&Full);
    bool FullPassed = bruteForceTest(WG, 0, 1, K, &FullStuck,
                                     /*PreMergeGreedy=*/false);
    WG.attachTelemetry(nullptr);
    EXPECT_EQ(LocalPassed, ExpectPass);
    EXPECT_EQ(FullPassed, ExpectPass);
    EXPECT_EQ(LocalStuck, ExpectStuck);
    EXPECT_EQ(FullStuck, ExpectStuck);
    EXPECT_EQ(Local.BruteForceTests, 1u);
    EXPECT_EQ(Full.BruteForceTests, 1u);
    EXPECT_EQ(Local.BruteForcePassed, Full.BruteForcePassed);
    EXPECT_EQ(Local.ColorabilityChecks, 1u);
    EXPECT_EQ(Full.ColorabilityChecks, 1u);
    EXPECT_FALSE(WG.sameClass(0, 1)) << "the probe must roll back";

    // The engine method itself, on the merged state.
    WG.checkpoint();
    unsigned C = WG.merge(0, 1);
    EXPECT_EQ(WG.mergedQuotientGreedyKColorable(C, K, &LocalStuck),
              WG.quotientGreedyKColorable(K, &FullStuck));
    EXPECT_EQ(LocalStuck, FullStuck);
    WG.rollback();
  }
}

} // namespace

TEST(WorkGraphLocalColorabilityTest, ScreenPassesWithoutPeeling) {
  // Merging 0 and 1 gives the path 4-2-C-3-5 at k=2. C and its neighbors
  // 2 and 3 all have degree 2, but 2 and 3 have only one significant
  // neighbor each (C), so C has no k-core candidate neighbor: the
  // three-round screen decides.
  GraphBuilder GB(6);
  GB.addEdge(0, 2);
  GB.addEdge(2, 4);
  GB.addEdge(1, 3);
  GB.addEdge(3, 5);
  Graph G = std::move(GB).build();
  expectLocalProbeMatchesFull(G, 2, /*ExpectPass=*/true, {});
}

TEST(WorkGraphLocalColorabilityTest, OnlyTheLocalPeelPasses) {
  // Merging 0 and 1 gives the path 6-4-2-C-3-5-7 at k=2. 2 and 3 each have
  // two significant neighbors, so C keeps k candidate neighbors and the
  // screen cannot decide; peeling the candidate component {2, C, 3}
  // dissolves it.
  GraphBuilder GB(8);
  GB.addEdge(6, 4);
  GB.addEdge(4, 2);
  GB.addEdge(2, 0);
  GB.addEdge(1, 3);
  GB.addEdge(3, 5);
  GB.addEdge(5, 7);
  Graph G = std::move(GB).build();
  expectLocalProbeMatchesFull(G, 2, /*ExpectPass=*/true, {});
}

TEST(WorkGraphLocalColorabilityTest, RejectionNamesTheSameStuckSet) {
  // Merging 0 and 1 closes the 4-cycle C-5-2-6 at k=2; the pendant 4 and
  // the separate edge 3-7 peel away. The stuck set is the cycle, named by
  // its representatives (0 keeps the merged class) in ascending order,
  // which is not the order the local check reaches them (0, 5, 6, 2).
  GraphBuilder GB(8);
  GB.addEdge(0, 5);
  GB.addEdge(5, 2);
  GB.addEdge(2, 6);
  GB.addEdge(6, 1);
  GB.addEdge(2, 4);
  GB.addEdge(3, 7);
  Graph G = std::move(GB).build();
  expectLocalProbeMatchesFull(G, 2, /*ExpectPass=*/false, {0, 2, 5, 6});
}

TEST(WorkGraphLocalColorabilityTest, MergedClassPeelsBeforeTheWalkEnds) {
  // Merging 0 and 1 gives the path 6-4-2-C-3-5-7-9-11 at k=2. The
  // candidates (degree >= 2 with two significant neighbors) are C, 2, 3, 5
  // and 7; 4 and 9 have one significant neighbor each. C's walk finds the
  // candidates 2 and 3. 2's walk finds no candidate besides C, so 2 peels
  // and takes C below k: the probe passes with 3 still unwalked and 5 and
  // 7 never classified.
  GraphBuilder GB(12);
  GB.addEdge(6, 4);
  GB.addEdge(4, 2);
  GB.addEdge(2, 0);
  GB.addEdge(1, 3);
  GB.addEdge(3, 5);
  GB.addEdge(5, 7);
  GB.addEdge(7, 9);
  GB.addEdge(9, 11);
  Graph G = std::move(GB).build();
  expectLocalProbeMatchesFull(G, 2, /*ExpectPass=*/true, {});
}

TEST(WorkGraphLocalColorabilityTest, PartOfTheComponentPeelsMidWalk) {
  // Merging 0 and 1 closes the triangle C-3-5 at k=2, and C also carries
  // the path C-2-4-6. C's walk finds the candidates 2, 3 and 5. 2 is walked
  // next: its only candidate neighbor is C (4 has one significant
  // neighbor), so it peels and C drops to two unpeeled candidate
  // neighbors while 3 and 5 wait unwalked. They close the component, and
  // the stuck set is the triangle.
  GraphBuilder GB(7);
  GB.addEdge(0, 2);
  GB.addEdge(2, 4);
  GB.addEdge(4, 6);
  GB.addEdge(0, 3);
  GB.addEdge(3, 5);
  GB.addEdge(5, 1);
  Graph G = std::move(GB).build();
  expectLocalProbeMatchesFull(G, 2, /*ExpectPass=*/false, {0, 3, 5});
}

TEST(WorkGraphTelemetryTest, CountersTrackTheOpScript) {
  Graph G = pathGraph();
  WorkGraph WG(G);
  CoalescingTelemetry T;
  WG.attachTelemetry(&T);

  WG.interfere(0, 1);
  WG.checkpoint();
  WG.merge(0, 2);
  WG.rollback();
  WG.checkpoint();
  WG.merge(1, 3);
  WG.commit();
  WG.quotientGreedyKColorable(2);

  EXPECT_EQ(T.InterferenceQueries, 1u);
  EXPECT_EQ(T.Checkpoints, 2u);
  EXPECT_EQ(T.Merges, 2u);
  EXPECT_EQ(T.MergesRolledBack, 1u);
  EXPECT_EQ(T.Rollbacks, 1u);
  EXPECT_EQ(T.ColorabilityChecks, 1u);
}

namespace {

/// Recounts the significant-neighbor count of every live class from
/// scratch and compares it against the maintained cache.
void expectCacheMatchesRecount(const WorkGraph &WG, unsigned K) {
  Graph Q = WG.quotientGraph();
  std::vector<unsigned> Id = WG.solution().ClassIds;
  for (unsigned V = 0; V < WG.numOriginalVertices(); ++V) {
    if (WG.classOf(V) != V)
      continue;
    unsigned Expected = 0;
    for (unsigned N : Q.neighbors(Id[V]))
      if (Q.degree(N) >= K)
        ++Expected;
    EXPECT_EQ(WG.significantNeighbors(V), Expected)
        << "stale cached count for class " << V << " at k=" << K;
  }
}

} // namespace

TEST(WorkGraphDegreeCacheTest, SurvivesRandomMergeAndRollbackScripts) {
  for (uint64_t Seed : {2u, 13u, 59u}) {
    for (unsigned DenseThreshold : {64u, 0u}) {
      Rng Rand(Seed);
      Graph G = randomGraph(28, 0.2, Rand);
      WorkGraph WG(G, DenseThreshold);
      unsigned K = 3;
      WG.enableDegreeCache(K);
      expectCacheMatchesRecount(WG, K);
      for (int Step = 0; Step < 120; ++Step) {
        unsigned U = static_cast<unsigned>(Rand.nextBelow(28));
        unsigned V = static_cast<unsigned>(Rand.nextBelow(28));
        if (U == V || !WG.canMerge(U, V))
          continue;
        if (Rand.nextBelow(3) == 0) {
          // Probe: merge under a checkpoint, verify, roll back, verify.
          WG.checkpoint();
          WG.merge(U, V);
          expectCacheMatchesRecount(WG, K);
          WG.rollback();
        } else {
          WG.merge(U, V);
        }
        expectCacheMatchesRecount(WG, K);
      }
    }
  }
}

TEST(WorkGraphDegreeCacheTest, DenseAndSparseTestsMatchQuotientReference) {
  // briggsTest/georgeTest answer from the degree cache with whichever
  // sweep the engine's representation has; a forced-dense and a
  // forced-sparse engine must both match the textbook rules applied to
  // the quotient graph alone.
  for (uint64_t Seed : {5u, 31u, 77u}) {
    Rng Rand(Seed);
    Graph G = randomGraph(26, 0.22, Rand);
    unsigned K = 3;
    WorkGraph Dense(G, /*DenseThreshold=*/26);
    WorkGraph Sparse(G, /*DenseThreshold=*/0);
    ASSERT_TRUE(Dense.usesDenseAdjacency());
    ASSERT_FALSE(Sparse.usesDenseAdjacency());
    Dense.enableDegreeCache(K);
    Sparse.enableDegreeCache(K);
    for (int Step = 0; Step < 60; ++Step) {
      unsigned U = static_cast<unsigned>(Rand.nextBelow(26));
      unsigned V = static_cast<unsigned>(Rand.nextBelow(26));
      if (U == V || Dense.sameClass(U, V))
        continue;
      Graph Q = Dense.quotientGraph();
      std::vector<unsigned> Id = Dense.solution().ClassIds;
      bool Briggs = rc::testing::briggsOnQuotient(Q, Id[U], Id[V], K);
      bool GeorgeUV = rc::testing::georgeOnQuotient(Q, Id[U], Id[V], K);
      bool GeorgeVU = rc::testing::georgeOnQuotient(Q, Id[V], Id[U], K);
      for (const WorkGraph *WG : {&Dense, &Sparse}) {
        const char *Mode = WG == &Dense ? "dense" : "sparse";
        EXPECT_EQ(briggsTest(*WG, U, V, K), Briggs)
            << Mode << " briggs divergence at (" << U << "," << V << ")";
        EXPECT_EQ(georgeTest(*WG, U, V, K), GeorgeUV)
            << Mode << " george divergence at (" << U << "," << V << ")";
        EXPECT_EQ(georgeTest(*WG, V, U, K), GeorgeVU)
            << Mode << " george divergence at (" << V << "," << U << ")";
      }
      if (Dense.canMerge(U, V)) {
        Dense.merge(U, V);
        Sparse.merge(U, V);
      }
    }
  }
}

TEST(WorkGraphDegreeCacheTest, MergeObserverReportsTouchedClasses) {
  // Merging 0 and 2 on the path 0-1-2-3: vertex 1 is the common neighbor
  // whose degree drops; no other class is touched.
  Graph G = pathGraph();
  WorkGraph WG(G);
  struct TouchRecorder final : EngineObserver {
    unsigned Root = ~0u, Loser = ~0u;
    std::vector<unsigned> Dropped;
    unsigned Calls = 0;
    void onMergeTouched(unsigned R, unsigned L,
                        const std::vector<unsigned> &D) override {
      Root = R;
      Loser = L;
      Dropped = D;
      ++Calls;
    }
  } Obs;
  WG.setObserver(&Obs);
  WG.merge(0, 2);
  ASSERT_EQ(Obs.Calls, 1u);
  EXPECT_TRUE((Obs.Root == 0 && Obs.Loser == 2) ||
              (Obs.Root == 2 && Obs.Loser == 0));
  EXPECT_EQ(Obs.Dropped, std::vector<unsigned>{1u});
  // Rollbacks must not re-fire the hook.
  WG.checkpoint();
  WG.merge(1, 3);
  WG.rollback();
  EXPECT_EQ(Obs.Calls, 2u);
}
