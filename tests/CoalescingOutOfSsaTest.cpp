//===- tests/CoalescingOutOfSsaTest.cpp - coalescing-aware lowering ----------===//

#include "graph/GreedyColorability.h"
#include "ir/CoalescingAwareOutOfSsa.h"
#include "ir/InterferenceBuilder.h"
#include "ir/Interpreter.h"
#include "ir/OutOfSsa.h"
#include "ir/ProgramGenerator.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace rc;
using namespace rc::ir;

namespace {

Function diamondWithPhi() {
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock(), B3 = F.createBlock();
  ValueId C = F.emitConst(0, 1, "c");
  F.emitBranch(0, C, B1, B2);
  ValueId A = F.emitConst(B1, 10, "a");
  F.emitJump(B1, B3);
  ValueId B = F.emitConst(B2, 20, "b");
  F.emitJump(B2, B3);
  F.computePredecessors();
  ValueId P = F.emitPhi(B3, {{B1, A}, {B2, B}}, "p");
  F.emitRet(B3, {P});
  F.computePredecessors();
  return F;
}

Function swapLoop() {
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock();
  ValueId X = F.emitConst(0, 1, "x0");
  ValueId Y = F.emitConst(0, 2, "y0");
  ValueId N = F.emitConst(0, 5, "n");
  ValueId One = F.emitConst(0, 1, "one");
  F.emitJump(0, B1);
  F.computePredecessors();
  ValueId X1 = F.createValue("x");
  ValueId Y1 = F.createValue("y");
  ValueId I1 = F.createValue("i");
  ValueId I2 = F.emitBinary(B1, Opcode::Sub, I1, One, "i2");
  F.emitBranch(B1, I2, B1, B2);
  F.emitRet(B2, {X1, Y1});
  F.computePredecessors();
  Instruction P1, P2, P3;
  P1.Op = P2.Op = P3.Op = Opcode::Phi;
  P1.Dst = X1;
  P1.PhiArgs = {{0, X}, {B1, Y1}};
  P2.Dst = Y1;
  P2.PhiArgs = {{0, Y}, {B1, X1}};
  P3.Dst = I1;
  P3.PhiArgs = {{0, N}, {B1, I2}};
  F.block(B1).Phis = {P1, P2, P3};
  return F;
}

} // namespace

TEST(CoalescingOutOfSsaTest, DiamondNeedsNoCopies) {
  // p can be coalesced with both a and b (they never interfere): the phi
  // disappears with zero copies.
  Function F = diamondWithPhi();
  ExecutionResult Before = interpret(F);
  CoalescingOutOfSsaStats Stats = lowerOutOfSsaWithCoalescing(F);
  EXPECT_EQ(Stats.PhisEliminated, 1u);
  EXPECT_EQ(Stats.CopiesInserted, 0u);
  EXPECT_EQ(Stats.CopiesAvoided, 2u);
  ExecutionResult After = interpret(F);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ReturnValues, After.ReturnValues);
}

TEST(CoalescingOutOfSsaTest, NaiveLoweringPaysTwoCopiesOnDiamond) {
  Function F = diamondWithPhi();
  OutOfSsaStats Naive = lowerOutOfSsa(F);
  EXPECT_EQ(Naive.CopiesInserted, 2u); // The contrast with the test above.
}

TEST(CoalescingOutOfSsaTest, SwapLoopKeepsACycle) {
  // x and y swap through the back edge: they interfere, so at least one
  // real copy (plus a temp) must survive; semantics stay intact.
  Function F = swapLoop();
  ASSERT_TRUE(verifyStrictSsa(F));
  ExecutionResult Before = interpret(F);
  CoalescingOutOfSsaStats Stats = lowerOutOfSsaWithCoalescing(F);
  EXPECT_EQ(Stats.PhisEliminated, 3u);
  EXPECT_GT(Stats.CopiesInserted, 0u);
  ExecutionResult After = interpret(F);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ReturnValues, After.ReturnValues);
}

struct CoalescingOutOfSsaSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CoalescingOutOfSsaSweep, PreservesSemanticsAndBeatsNaive) {
  Rng Rand(GetParam());
  for (int Trial = 0; Trial < 8; ++Trial) {
    GeneratorOptions Options;
    Options.NumBlocks = 4 + static_cast<unsigned>(Rand.nextBelow(14));
    Options.MaxPhisPerJoin = 4;
    Function F = generateRandomSsaFunction(Options, Rand);
    ASSERT_TRUE(verifyStrictSsa(F));
    ExecutionResult Reference = interpret(F);
    ASSERT_TRUE(Reference.Ok);

    Function Naive = F;
    OutOfSsaStats NaiveStats = lowerOutOfSsa(Naive);

    for (OutOfSsaCoalescing Mode :
         {OutOfSsaCoalescing::Aggressive,
          OutOfSsaCoalescing::ConservativeAtMaxlive}) {
      Function Smart = F;
      CoalescingOutOfSsaStats Stats =
          lowerOutOfSsaWithCoalescing(Smart, Mode);
      std::string Error;
      ASSERT_TRUE(verifyCfg(Smart, &Error)) << Error;
      ExecutionResult After = interpret(Smart);
      ASSERT_TRUE(After.Ok) << After.Error;
      EXPECT_EQ(After.ReturnValues, Reference.ReturnValues);
      // Coalescing-aware lowering never inserts more copies than the naive
      // per-argument lowering.
      EXPECT_LE(Stats.CopiesInserted, NaiveStats.CopiesInserted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescingOutOfSsaSweep,
                         ::testing::Values(271u, 272u, 273u, 274u, 275u,
                                           276u, 277u, 278u));

TEST(CoalescingOutOfSsaTest, ConservativeModeStaysGreedyKColorable) {
  Rng Rand(279);
  for (int Trial = 0; Trial < 6; ++Trial) {
    GeneratorOptions Options;
    Options.NumBlocks = 10;
    Options.MaxPhisPerJoin = 3;
    Function F = generateRandomSsaFunction(Options, Rand);
    unsigned Maxlive = computeMaxlive(F);
    lowerOutOfSsaWithCoalescing(F,
                                OutOfSsaCoalescing::ConservativeAtMaxlive);
    // The merged (class-level) interference graph before the rewrite was
    // kept greedy-Maxlive-colorable; check the rewritten program's graph
    // still colors greedily at that bound plus the shuffle temps.
    InterferenceGraph After = buildInterferenceGraph(F);
    EXPECT_TRUE(isGreedyKColorable(After.G, Maxlive + 1))
        << "trial " << Trial;
  }
}
