//===- tests/IrcTest.cpp - iterated register coalescing ---------------------===//

#include "coalescing/IteratedRegisterCoalescing.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"
#include "runner/GapReport.h"
#include "runner/SweepManifest.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace rc;

#ifndef RC_TEST_DATA_DIR
#error "RC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

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

using EdgeList = std::vector<std::pair<unsigned, unsigned>>;

CoalescingProblem makeProblem(unsigned NumVertices, unsigned K,
                              const EdgeList &Edges,
                              std::vector<Affinity> Moves) {
  GraphBuilder GB(NumVertices);
  for (auto [U, V] : Edges)
    GB.addEdge(U, V);
  CoalescingProblem P;
  P.G = std::move(GB).build();
  P.K = K;
  P.Affinities = std::move(Moves);
  return P;
}

/// \p Extra plus K3,3 on {0,1,2} x {3,4,5}: every K3,3 vertex has degree 3
/// and the graph stays 2-colorable, so at K = 3 it keeps neighbors
/// significant without forcing a spill.
EdgeList withK33(EdgeList Extra) {
  for (unsigned L = 0; L < 3; ++L)
    for (unsigned R = 3; R < 6; ++R)
      Extra.push_back({L, R});
  return Extra;
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

TEST(IrcTest, MoveConstrainedByAnEdgeCombineAdded) {
  // K = 3, edge 1-2, move 0-1 (heavier) then move 0-2. Merging 1 into 0
  // gives 0 the edge to 2, so the second move is constrained only through
  // that edge. The constrained check walks the shorter list, 0's ([2])
  // rather than 2's ([1, 0] with 1 dead). Listing the second move as 0-2
  // walks U's list, as 2-0 walks V's.
  for (Affinity Second : {Affinity{0, 2, 1.0}, Affinity{2, 0, 1.0}}) {
    CoalescingProblem P = makeProblem(3, 3, {{1, 2}}, {{0, 1, 2.0}, Second});
    IrcResult R = iteratedRegisterCoalescing(P);
    EXPECT_EQ(R.ConstrainedMoves, 1u) << Second.U << "-" << Second.V;
    EXPECT_EQ(R.Stats.CoalescedAffinities, 1u) << Second.U << "-" << Second.V;
    EXPECT_TRUE(R.Solution.merged(0, 1));
    checkIrcResult(P, R);
  }
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

// The next four cases pin the readings of IRC's own live lists (see the
// file comment of IteratedRegisterCoalescing.cpp). Each traces one decision
// by hand; the telemetry counts say which test decided it.

TEST(IrcTest, BriggsDiscountsACommonSignificantNeighbor) {
  // K = 3, move 7-8. U = 7 has neighbors 0 and 1 (degree 4) and T = 6;
  // V = 8 has only T. T has degree 3 = K, but as a common neighbor it
  // loses an edge in the merge, so the merged node has 2 < K significant
  // neighbors and Briggs passes. Counting T would fail it.
  CoalescingProblem P = makeProblem(
      9, 3, withK33({{6, 7}, {6, 8}, {6, 3}, {7, 0}, {7, 1}}),
      {{7, 8, 1.0}});
  IrcOptions Options;
  Options.UseGeorge = false;
  CoalescingTelemetry T;
  IrcResult R = iteratedRegisterCoalescing(P, Options, &T);
  EXPECT_TRUE(R.Solution.merged(7, 8));
  EXPECT_EQ(T.BriggsTests, 1u);
  EXPECT_EQ(T.BriggsPassed, 1u);
  EXPECT_TRUE(R.Spilled.empty());
  checkIrcResult(P, R);
}

TEST(IrcTest, BriggsCountsASignificantNeighborOnlyVHas) {
  // K = 2, path 2-0-1-3, move 2-3. U = 2 has the significant neighbor 0
  // and V = 3 the significant neighbor 1, which U lacks, so the merged
  // node has K significant neighbors. Neighbor 1 still carries the "in V"
  // stamp when V's list is walked the second time; read as a common
  // neighbor it would lose an edge and Briggs would pass.
  CoalescingProblem P =
      makeProblem(4, 2, {{0, 2}, {1, 3}, {0, 1}}, {{2, 3, 1.0}});
  CoalescingTelemetry T;
  IrcResult R = iteratedRegisterCoalescing(P, IrcOptions(), &T);
  EXPECT_FALSE(R.Solution.merged(2, 3));
  EXPECT_EQ(T.BriggsTests, 1u);
  EXPECT_EQ(T.BriggsPassed, 0u);
  EXPECT_EQ(T.GeorgeTests, 1u);
  EXPECT_EQ(T.GeorgePassed, 0u);
  EXPECT_EQ(R.FrozenMoves, 1u);
  checkIrcResult(P, R);
}

TEST(IrcTest, GeorgeReadsTheLiveListOfU) {
  IrcOptions Options;
  {
    // K = 3, move 6-7. V = 7 has the significant neighbors 8 (also U's)
    // and 9, which U lacks, so George fails; Briggs already failed at 8.
    CoalescingProblem P = makeProblem(
        10, 3,
        withK33({{6, 0}, {6, 1}, {6, 8}, {8, 7}, {8, 3}, {8, 4}, {9, 7},
                 {9, 5}, {9, 2}}),
        {{6, 7, 1.0}});
    CoalescingTelemetry T;
    IrcResult R = iteratedRegisterCoalescing(P, Options, &T);
    EXPECT_FALSE(R.Solution.merged(6, 7));
    EXPECT_EQ(T.BriggsPassed, 0u);
    EXPECT_EQ(T.GeorgeTests, 1u);
    EXPECT_EQ(T.GeorgePassed, 0u);
    EXPECT_EQ(R.FrozenMoves, 1u);
    checkIrcResult(P, R);
  }
  {
    // K = 3, move 6-8. Briggs stops at U's third significant neighbor 2,
    // before it reaches the common neighbor 7, so 7 still carries Briggs'
    // "in V" stamp. George must stamp U's list itself to see that V's one
    // significant neighbor 7 is U's too.
    CoalescingProblem P = makeProblem(
        9, 3, withK33({{6, 0}, {6, 1}, {6, 2}, {6, 7}, {7, 8}, {7, 3}}),
        {{6, 8, 1.0}});
    CoalescingTelemetry T;
    IrcResult R = iteratedRegisterCoalescing(P, Options, &T);
    EXPECT_TRUE(R.Solution.merged(6, 8));
    EXPECT_EQ(T.BriggsTests, 1u);
    EXPECT_EQ(T.BriggsPassed, 0u);
    EXPECT_EQ(T.GeorgePassed, 1u);
    EXPECT_TRUE(R.Spilled.empty());
    checkIrcResult(P, R);
  }
}

TEST(IrcTest, CoalescedThenSimplifiedNeighborLeavesTheList) {
  // K = 2, George off. X = 1 has neighbors 0, 2 and 3. The heaviest move
  // merges W = 2 into A = 4, which puts A on X's list, and A is then
  // simplified: X's list reads [0, 2, 3, 4] with 2 and 4 dead. The next
  // move 1-5 walks it: 0 and 3 are significant (their pendants 6 and 8
  // are move-related, so not simplified yet) and Briggs fails at 3, the
  // live entry after the dead 2. Move 8-9 merges, 8 and 3 simplify, move
  // 1-5 comes back and passes, and move 6-7 passes last: five Briggs
  // tests, four passed.
  CoalescingProblem P =
      makeProblem(10, 2, {{1, 0}, {1, 2}, {1, 3}, {0, 6}, {3, 8}},
                  {{4, 2, 10.0}, {1, 5, 5.0}, {6, 7, 1.0}, {8, 9, 1.0}});
  IrcOptions Options;
  Options.UseGeorge = false;
  CoalescingTelemetry T;
  IrcResult R = iteratedRegisterCoalescing(P, Options, &T);
  EXPECT_EQ(T.BriggsTests, 5u);
  EXPECT_EQ(T.BriggsPassed, 4u);
  EXPECT_EQ(R.Stats.CoalescedAffinities, 4u);
  EXPECT_TRUE(R.Spilled.empty());
  // Select pops 6, 0, 1, 3, 8, 4; each reads its list after the walks
  // dropped its dead entries.
  EXPECT_EQ(R.Colors, (Coloring{1, 0, 1, 1, 1, 0, 0, 0, 0, 0}));
  checkIrcResult(P, R);
}

namespace {

/// FNV-1a over 32-bit words.
struct WordHash {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint32_t W) {
    for (unsigned B = 0; B < 4; ++B) {
      H ^= (W >> (8 * B)) & 0xffu;
      H *= 0x100000001b3ull;
    }
  }
  template <typename T> void addAll(const std::vector<T> &Words) {
    add(static_cast<uint32_t>(Words.size()));
    for (T W : Words)
      add(static_cast<uint32_t>(W));
  }
};

/// One line of tests/golden/irc_outputs.golden: every field of \p R that
/// IRC decides (the stats follow from the solution).
std::string ircOutputLine(const std::string &Label, unsigned K, bool George,
                          const IrcResult &R) {
  WordHash H;
  H.addAll(R.Colors);
  H.addAll(R.Spilled);
  H.addAll(R.Solution.ClassIds);
  H.add(R.Solution.NumClasses);
  H.add(R.ConstrainedMoves);
  H.add(R.FrozenMoves);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s k=%u george=%d spilled=%zu classes=%u constrained=%u "
                "frozen=%u hash=%016" PRIx64 "\n",
                Label.c_str(), K, George ? 1 : 0, R.Spilled.size(),
                R.Solution.NumClasses, R.ConstrainedMoves, R.FrozenMoves,
                H.H);
  return Buf;
}

} // namespace

// Pins IRC's whole output, not only the affinity stats the strategy goldens
// check: the colors (and so the simplify and select order), the spills, the
// classes and the move counts. Cases: the 24 golden instances and the two
// sparse_golden.manifest instances (n > 4096), at
// k and k-1..k-3 so the select phase spills, with George on and off.
// After an intended change, the failure message diffs the changed lines.
TEST(IrcTest, OutputsMatchRecording) {
  std::string Dir(RC_TEST_DATA_DIR);
  std::vector<LabeledProblem> Problems = goldenChallengeCorpus();
  ASSERT_EQ(Problems.size(), 24u);
  SweepManifest Manifest;
  std::string Error;
  ASSERT_TRUE(loadSweepManifest(Dir + "/manifests/sparse_golden.manifest",
                                Manifest, &Error))
      << Error;
  std::vector<LabeledProblem> Sparse;
  ASSERT_TRUE(materializeSweep(Manifest, Sparse, &Error)) << Error;
  ASSERT_EQ(Sparse.size(), 2u);
  for (LabeledProblem &LP : Sparse)
    Problems.push_back(std::move(LP));

  std::string Got;
  for (const LabeledProblem &LP : Problems)
    for (unsigned Shrink = 0; Shrink <= 3 && Shrink < LP.Problem.K;
         ++Shrink)
      for (bool George : {true, false}) {
        CoalescingProblem P = LP.Problem;
        P.K -= Shrink;
        IrcOptions Options;
        Options.UseGeorge = George;
        IrcResult R = iteratedRegisterCoalescing(P, Options);
        checkIrcResult(P, R);
        Got += ircOutputLine(LP.Label, P.K, George, R);
      }

  std::ifstream In(Dir + "/golden/irc_outputs.golden", std::ios::binary);
  ASSERT_TRUE(In) << "cannot open golden/irc_outputs.golden";
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str());
}
