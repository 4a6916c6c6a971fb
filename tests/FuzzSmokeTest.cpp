//===- tests/FuzzSmokeTest.cpp - fuzz harness under gtest --------------------===//
//
// Runs every registered property for a few dozen seeded trials, and unit
// tests the harness pieces themselves: the deterministic seed schedule, the
// shrinkers, and the shared solution-soundness oracle.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "ir/Interpreter.h"
#include "ir/Verifier.h"
#include "support/Random.h"
#include "testing/Oracles.h"
#include "testing/PropertyCheck.h"
#include "testing/Shrinker.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace rc;

// --- every property, a few dozen trials -------------------------------------

static rc::testing::FuzzReport runSmoke(uint64_t Seed, unsigned Trials) {
  rc::testing::FuzzConfig Config;
  Config.Seed = Seed;
  Config.Trials = Trials;
  Config.MaxSize = 20;
  Config.ReproDir.clear(); // No reproducer files from the unit tests.
  std::ostringstream Log;
  return rc::testing::runFuzz(Config, Log);
}

TEST(FuzzSmoke, AllPropertiesPass) {
  rc::testing::FuzzReport Report = runSmoke(1234, 25);
  EXPECT_EQ(Report.PerProperty.size(), rc::testing::allProperties().size());
  for (const rc::testing::PropertyStats &S : Report.PerProperty) {
    EXPECT_EQ(S.Trials, 25u) << S.Name;
    EXPECT_EQ(S.Failures, 0u) << S.Name << ": " << S.FirstError;
    EXPECT_TRUE(S.ReproFiles.empty()) << S.Name;
  }
  EXPECT_TRUE(Report.allPassed());
}

TEST(FuzzSmoke, SinglePropertySelection) {
  rc::testing::FuzzConfig Config;
  Config.Seed = 7;
  Config.Trials = 10;
  Config.Properties = {"ssa-chordal"};
  Config.ReproDir.clear();
  std::ostringstream Log;
  rc::testing::FuzzReport Report = rc::testing::runFuzz(Config, Log);
  ASSERT_EQ(Report.PerProperty.size(), 1u);
  EXPECT_EQ(Report.PerProperty[0].Name, "ssa-chordal");
  EXPECT_TRUE(Report.allPassed());
}

TEST(FuzzSmoke, UnknownPropertyReported) {
  rc::testing::FuzzConfig Config;
  Config.Trials = 1;
  Config.Properties = {"no-such-property"};
  Config.ReproDir.clear();
  std::ostringstream Log;
  rc::testing::FuzzReport Report = rc::testing::runFuzz(Config, Log);
  EXPECT_FALSE(Report.AllKnown);
  EXPECT_FALSE(Report.allPassed());
}

// --- deterministic seed schedule ---------------------------------------------

TEST(FuzzSeeding, SameSeedSameRun) {
  rc::testing::FuzzConfig Config;
  Config.Seed = 99;
  Config.Trials = 8;
  Config.MaxSize = 16;
  Config.ReproDir.clear();
  std::ostringstream LogA, LogB;
  rc::testing::FuzzReport A = rc::testing::runFuzz(Config, LogA);
  rc::testing::FuzzReport B = rc::testing::runFuzz(Config, LogB);
  EXPECT_EQ(LogA.str(), LogB.str());
  ASSERT_EQ(A.PerProperty.size(), B.PerProperty.size());
  for (size_t I = 0; I < A.PerProperty.size(); ++I) {
    EXPECT_EQ(A.PerProperty[I].Trials, B.PerProperty[I].Trials);
    EXPECT_EQ(A.PerProperty[I].Failures, B.PerProperty[I].Failures);
  }
}

TEST(FuzzSeeding, TrialSeedsDistinctAcrossPropertiesAndTrials) {
  std::set<uint64_t> Seen;
  for (const rc::testing::Property &P : rc::testing::allProperties())
    for (uint64_t Trial = 0; Trial < 50; ++Trial)
      Seen.insert(rc::testing::trialSeed(42, P.Name, Trial));
  // All (property, trial) streams are distinct under one base seed.
  EXPECT_EQ(Seen.size(), rc::testing::allProperties().size() * 50);
}

TEST(FuzzSeeding, DeriveSeedSeparatesStreams) {
  EXPECT_NE(deriveSeed(1, uint64_t(0)), deriveSeed(1, uint64_t(1)));
  EXPECT_NE(deriveSeed(1, uint64_t(0)), deriveSeed(2, uint64_t(0)));
  EXPECT_NE(deriveSeed(1, "alpha"), deriveSeed(1, "beta"));
  EXPECT_EQ(deriveSeed(1, "alpha"), deriveSeed(1, "alpha"));
}

// --- shrinkProblem -----------------------------------------------------------

static bool containsTriangle(const Graph &G) {
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V = U + 1; V < G.numVertices(); ++V)
      for (unsigned W = V + 1; W < G.numVertices(); ++W)
        if (G.hasEdge(U, V) && G.hasEdge(V, W) && G.hasEdge(U, W))
          return true;
  return false;
}

TEST(Shrinker, ProblemShrinksToMinimalTriangle) {
  // A 9-vertex graph with one triangle buried inside; the "failure" is
  // containing a triangle, so the minimum is K3 with no affinities.
  Rng Rand(5);
  CoalescingProblem P;
  GraphBuilder GB(randomGraph(9, 0.15, Rand));
  GB.addClique({2, 5, 7});
  P.G = std::move(GB).build();
  P.K = 3;
  P.Affinities.push_back({0, 1, 2.0});
  P.Affinities.push_back({3, 4, 1.0});
  ASSERT_TRUE(containsTriangle(P.G));

  CoalescingProblem Min = rc::testing::shrinkProblem(
      P, [](const CoalescingProblem &Q) { return containsTriangle(Q.G); });
  EXPECT_EQ(Min.G.numVertices(), 3u);
  EXPECT_EQ(Min.G.numEdges(), 3u);
  EXPECT_TRUE(Min.Affinities.empty());
  EXPECT_TRUE(containsTriangle(Min.G));
}

// --- shrinkFunction ----------------------------------------------------------

TEST(Shrinker, FunctionDropsDeadCode) {
  // ret 42 surrounded by dead constants and a dead copy chain; shrinking on
  // "still returns 42" must strip everything but the returned definition.
  ir::Function F;
  ir::ValueId Live = F.emitConst(0, 42);
  ir::ValueId DeadA = F.emitConst(0, 7);
  F.emitCopy(0, DeadA);
  F.emitConst(0, 9);
  F.emitRet(0, {Live});
  F.computePredecessors();

  auto ReturnsFortyTwo = [](const ir::Function &G) {
    ir::ExecutionResult R = ir::interpret(G);
    return R.Ok && R.ReturnValues == std::vector<int64_t>{42};
  };
  ASSERT_TRUE(ReturnsFortyTwo(F));

  ir::Function Min = rc::testing::shrinkFunction(F, ReturnsFortyTwo);
  EXPECT_TRUE(ReturnsFortyTwo(Min));
  // Only the const and the ret survive.
  EXPECT_EQ(Min.block(0).Body.size(), 2u);
  std::string Error;
  EXPECT_TRUE(ir::verifyStrictSsa(Min, &Error)) << Error;
}

// --- checkSolutionSound ------------------------------------------------------

TEST(Oracles, SolutionSoundFlagsInterferingMerge) {
  CoalescingProblem P;
  P.G = Graph::complete(3);
  P.K = 3;
  // Vertices 0 and 1 interfere; a solution merging them is invalid.
  CoalescingSolution Bad;
  Bad.ClassIds = {0, 0, 1};
  Bad.NumClasses = 2;
  std::string Error;
  EXPECT_FALSE(rc::testing::checkSolutionSound(P, Bad, /*RequireGreedy=*/true,
                                           &Error));
  EXPECT_FALSE(Error.empty());

  CoalescingSolution Good = identitySolution(P.G);
  EXPECT_TRUE(rc::testing::checkSolutionSound(P, Good, /*RequireGreedy=*/true,
                                          &Error))
      << Error;
}
