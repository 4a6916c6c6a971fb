//===- tests/VerifierInterpreterTest.cpp - IR edge cases ---------------------===//
//
// Hand-built edge cases for the strict-SSA verifier, the reference
// interpreter, out-of-SSA lowering, and the end-to-end allocators on the
// spilling path (Maxlive > k).
//
//===----------------------------------------------------------------------===//

#include "ir/InterferenceBuilder.h"
#include "ir/Interpreter.h"
#include "ir/OutOfSsa.h"
#include "ir/Verifier.h"
#include "regalloc/Allocators.h"
#include "testing/Oracles.h"

#include <gtest/gtest.h>

using namespace rc;

// --- empty (terminator-only) blocks ------------------------------------------

TEST(VerifierInterpreter, TerminatorOnlyBlocksFlowThrough) {
  // entry -> B1 -> B2 where B1 and B2 hold nothing but a jump/ret; the value
  // defined in the entry must still dominate its use in B2.
  ir::Function F;
  ir::ValueId X = F.emitConst(0, 11);
  ir::BlockId B1 = F.createBlock();
  ir::BlockId B2 = F.createBlock();
  F.emitJump(0, B1);
  F.emitJump(B1, B2);
  F.emitRet(B2, {X});
  F.computePredecessors();

  std::string Error;
  EXPECT_TRUE(ir::verifyStrictSsa(F, &Error)) << Error;
  ir::ExecutionResult R = ir::interpret(F);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValues, std::vector<int64_t>({11}));
}

// --- critical edges ----------------------------------------------------------

static ir::Function buildCriticalEdgeDiamond(int64_t CondValue) {
  // entry branches to Left and Join; Left falls through to Join. The edge
  // entry->Join is critical (entry has two successors, Join two
  // predecessors), and Join's phi distinguishes the paths.
  ir::Function F;
  ir::ValueId Cond = F.emitConst(0, CondValue);
  ir::ValueId A = F.emitConst(0, 100);
  ir::BlockId Left = F.createBlock();
  ir::BlockId Join = F.createBlock();
  F.emitBranch(0, Cond, Left, Join);
  ir::ValueId B = F.emitConst(Left, 200);
  F.emitJump(Left, Join);
  ir::ValueId Merged =
      F.emitPhi(Join, {{0, A}, {Left, B}});
  F.emitRet(Join, {Merged});
  F.computePredecessors();
  return F;
}

TEST(VerifierInterpreter, CriticalEdgeSplitPreservesSemantics) {
  for (int64_t CondValue : {0, 1}) {
    ir::Function F = buildCriticalEdgeDiamond(CondValue);
    std::string Error;
    ASSERT_TRUE(ir::verifyStrictSsa(F, &Error)) << Error;
    ir::ExecutionResult Before = ir::interpret(F);
    ASSERT_TRUE(Before.Ok) << Before.Error;
    EXPECT_EQ(Before.ReturnValues,
              std::vector<int64_t>({CondValue ? 200 : 100}));

    unsigned Split = ir::splitCriticalEdges(F);
    EXPECT_EQ(Split, 1u);
    EXPECT_TRUE(ir::verifyStrictSsa(F, &Error)) << Error;
    ir::ExecutionResult After = ir::interpret(F);
    ASSERT_TRUE(After.Ok) << After.Error;
    EXPECT_EQ(After.ReturnValues, Before.ReturnValues);
    // Splitting again finds nothing.
    EXPECT_EQ(ir::splitCriticalEdges(F), 0u);
  }
}

// --- phi-heavy loops ---------------------------------------------------------

static ir::Function buildCountdownSumLoop() {
  // Sums 5+4+3+2+1 with two loop-carried phis; the back edge
  // header->header is itself critical.
  ir::Function F;
  ir::ValueId Zero = F.emitConst(0, 0);
  ir::ValueId One = F.emitConst(0, 1);
  ir::ValueId N = F.emitConst(0, 5);
  ir::BlockId Header = F.createBlock();
  ir::BlockId Exit = F.createBlock();
  F.emitJump(0, Header);

  ir::ValueId I = F.emitPhi(Header, {});
  ir::ValueId Acc = F.emitPhi(Header, {});
  ir::ValueId Acc2 = F.emitBinary(Header, ir::Opcode::Add, Acc, I);
  ir::ValueId I2 = F.emitBinary(Header, ir::Opcode::Sub, I, One);
  F.emitBranch(Header, I2, Header, Exit);
  F.emitRet(Exit, {Acc2});

  // Fill the phi argument lists now that both predecessors exist.
  F.block(Header).Phis[0].PhiArgs = {{0, N}, {Header, I2}};
  F.block(Header).Phis[1].PhiArgs = {{0, Zero}, {Header, Acc2}};
  F.computePredecessors();
  return F;
}

TEST(VerifierInterpreter, PhiHeavyLoopComputesSum) {
  ir::Function F = buildCountdownSumLoop();
  std::string Error;
  ASSERT_TRUE(ir::verifyStrictSsa(F, &Error)) << Error;
  ir::ExecutionResult R = ir::interpret(F);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValues, std::vector<int64_t>({15}));
}

TEST(VerifierInterpreter, PhiHeavyLoopSurvivesOutOfSsa) {
  // The full oracle: lowering the loop out of SSA (critical back edge and
  // all) keeps the CFG valid and the returned sum unchanged.
  ir::Function F = buildCountdownSumLoop();
  std::string Error;
  EXPECT_TRUE(rc::testing::checkOutOfSsaSemantics(F, &Error)) << Error;
}

TEST(VerifierInterpreter, InterpreterRejectsUndefinedUse) {
  // Phi of a value only defined on the untaken path is strict-SSA-invalid;
  // the interpreter flags the undefined read at runtime.
  ir::Function F;
  ir::ValueId Cond = F.emitConst(0, 0);
  ir::BlockId Left = F.createBlock();
  ir::BlockId Join = F.createBlock();
  F.emitBranch(0, Cond, Left, Join);
  ir::ValueId B = F.emitConst(Left, 200);
  F.emitJump(Left, Join);
  F.computePredecessors();
  ir::ValueId Merged = F.emitPhi(Join, {{0, B}, {Left, B}});
  F.emitRet(Join, {Merged});

  std::string Error;
  EXPECT_FALSE(ir::verifyStrictSsa(F, &Error));
  ir::ExecutionResult R = ir::interpret(F);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

// --- the spilling path: Maxlive > k ------------------------------------------

static ir::Function buildHighPressureChain(unsigned NumValues) {
  // NumValues constants all live at once, then folded pairwise; Maxlive is
  // NumValues at the first add.
  ir::Function F;
  std::vector<ir::ValueId> Vals;
  for (unsigned I = 0; I < NumValues; ++I)
    Vals.push_back(F.emitConst(0, static_cast<int64_t>(I + 1)));
  ir::ValueId Sum = Vals[0];
  for (unsigned I = 1; I < NumValues; ++I)
    Sum = F.emitBinary(0, ir::Opcode::Add, Sum, Vals[I]);
  F.emitRet(0, {Sum});
  F.computePredecessors();
  return F;
}

TEST(VerifierInterpreter, ChaitinSpillsWhenMaxliveExceedsK) {
  ir::Function F = buildHighPressureChain(8);
  ASSERT_GT(ir::computeMaxlive(F), 3u);
  ir::ExecutionResult Reference = ir::interpret(F);
  ASSERT_TRUE(Reference.Ok) << Reference.Error;

  regalloc::AllocationResult R = regalloc::allocateChaitinIrc(F, 3);
  ASSERT_TRUE(R.Success);
  EXPECT_GT(R.SpilledValues, 0u);
  EXPECT_GT(R.LoadsInserted, 0u);
  std::string Error;
  EXPECT_TRUE(ir::verifyCfg(R.Allocated, &Error)) << Error;
  ir::ExecutionResult Allocated = ir::interpret(R.Allocated);
  ASSERT_TRUE(Allocated.Ok) << Allocated.Error;
  EXPECT_EQ(Allocated.ReturnValues, Reference.ReturnValues);
}

TEST(VerifierInterpreter, TwoPhaseSpillsWhenMaxliveExceedsK) {
  ir::Function F = buildHighPressureChain(8);
  ir::ExecutionResult Reference = ir::interpret(F);
  ASSERT_TRUE(Reference.Ok) << Reference.Error;

  regalloc::AllocationResult R = regalloc::allocateTwoPhase(F, 3);
  ASSERT_TRUE(R.Success);
  EXPECT_GT(R.SpilledValues, 0u);
  ir::ExecutionResult Allocated = ir::interpret(R.Allocated);
  ASSERT_TRUE(Allocated.Ok) << Allocated.Error;
  EXPECT_EQ(Allocated.ReturnValues, Reference.ReturnValues);
}

// --- verifier negative cases -------------------------------------------------

TEST(VerifierNegative, UnterminatedBlock) {
  ir::Function F;
  F.emitConst(0, 1);
  std::string Error;
  EXPECT_FALSE(ir::verifyCfg(F, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(VerifierNegative, PhiArgsMismatchPredecessors) {
  // Join has two predecessors but the phi only names one of them.
  ir::Function F;
  ir::ValueId Cond = F.emitConst(0, 1);
  ir::ValueId A = F.emitConst(0, 10);
  ir::BlockId Left = F.createBlock();
  ir::BlockId Join = F.createBlock();
  F.emitBranch(0, Cond, Left, Join);
  F.emitJump(Left, Join);
  F.computePredecessors();
  ir::ValueId Merged = F.emitPhi(Join, {{0, A}});
  F.emitRet(Join, {Merged});

  std::string Error;
  EXPECT_FALSE(ir::verifyCfg(F, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(VerifierNegative, UseNotDominatedByDefinition) {
  // A value defined on only one branch arm is used at the join.
  ir::Function F;
  ir::ValueId Cond = F.emitConst(0, 1);
  ir::BlockId Left = F.createBlock();
  ir::BlockId Join = F.createBlock();
  F.emitBranch(0, Cond, Left, Join);
  ir::ValueId OnlyLeft = F.emitConst(Left, 5);
  F.emitJump(Left, Join);
  F.emitRet(Join, {OnlyLeft});
  F.computePredecessors();

  std::string Error;
  EXPECT_TRUE(ir::verifyCfg(F, &Error)) << Error;
  EXPECT_FALSE(ir::verifyStrictSsa(F, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(VerifierNegative, DoubleDefinitionBreaksSsa) {
  ir::Function F;
  ir::ValueId X = F.emitConst(0, 1);
  ir::ValueId Y = F.emitConst(0, 2);
  F.emitCopyInto(0, X, Y); // Second definition of X.
  F.emitRet(0, {X});
  F.computePredecessors();

  std::string Error;
  EXPECT_TRUE(ir::verifyCfg(F, &Error)) << Error;
  EXPECT_FALSE(ir::verifyStrictSsa(F, &Error));
  EXPECT_FALSE(Error.empty());
}
