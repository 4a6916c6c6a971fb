//===- tests/IrTest.cpp - mini-IR, dominance, liveness, verifier -----------===//

#include "ir/Dominance.h"
#include "ir/Function.h"
#include "ir/Interpreter.h"
#include "ir/Liveness.h"
#include "ir/ProgramGenerator.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rc;
using namespace rc::ir;

namespace {

/// Builds the diamond: bb0 -> (bb1 | bb2) -> bb3, with a phi in bb3.
struct Diamond {
  Function F;
  BlockId B1, B2, B3;
  ValueId Cond, A, B, Phi;

  Diamond() {
    B1 = F.createBlock();
    B2 = F.createBlock();
    B3 = F.createBlock();
    Cond = F.emitConst(0, 1, "cond");
    F.emitBranch(0, Cond, B1, B2);
    A = F.emitConst(B1, 10, "a");
    F.emitJump(B1, B3);
    B = F.emitConst(B2, 20, "b");
    F.emitJump(B2, B3);
    F.computePredecessors();
    Phi = F.emitPhi(B3, {{B1, A}, {B2, B}}, "p");
    F.emitRet(B3, {Phi});
    F.computePredecessors();
  }
};

} // namespace

TEST(FunctionTest, BlockAndValueCreation) {
  Function F;
  EXPECT_EQ(F.numBlocks(), 1u);
  BlockId B = F.createBlock();
  EXPECT_EQ(B, 1u);
  ValueId V = F.emitConst(0, 42, "answer");
  EXPECT_EQ(F.valueName(V), "answer");
  ValueId W = F.emitCopy(0, V);
  EXPECT_EQ(F.valueName(W), std::string("v").append(std::to_string(W)));
}

TEST(FunctionTest, ReversePostOrderVisitsReachable) {
  Diamond D;
  auto Rpo = D.F.reversePostOrder();
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo[0], 0u);
  EXPECT_EQ(Rpo[3], D.B3); // Join comes last.
}

TEST(FunctionTest, PrintProducesText) {
  Diamond D;
  std::ostringstream OS;
  D.F.print(OS);
  EXPECT_NE(OS.str().find("phi"), std::string::npos);
  EXPECT_NE(OS.str().find("bb3"), std::string::npos);
}

TEST(DominanceTest, DiamondIdoms) {
  Diamond D;
  DominatorTree DT = DominatorTree::build(D.F);
  EXPECT_EQ(DT.idom(0), NoBlock);
  EXPECT_EQ(DT.idom(D.B1), 0u);
  EXPECT_EQ(DT.idom(D.B2), 0u);
  EXPECT_EQ(DT.idom(D.B3), 0u); // Join dominated by the fork, not a branch.
  EXPECT_TRUE(DT.dominates(0, D.B3));
  EXPECT_FALSE(DT.dominates(D.B1, D.B3));
  EXPECT_TRUE(DT.dominates(D.B1, D.B1));
}

TEST(DominanceTest, ChainIdoms) {
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock();
  F.emitJump(0, B1);
  F.emitJump(B1, B2);
  F.emitRet(B2, {});
  F.computePredecessors();
  DominatorTree DT = DominatorTree::build(F);
  EXPECT_EQ(DT.idom(B1), 0u);
  EXPECT_EQ(DT.idom(B2), B1);
  EXPECT_TRUE(DT.dominates(0, B2));
}

TEST(DominanceTest, LoopDominance) {
  // bb0 -> bb1 <-> bb2 (loop), bb1 -> bb3.
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock(), B3 = F.createBlock();
  ValueId C = F.emitConst(0, 0, "c");
  F.emitJump(0, B1);
  F.emitBranch(B1, C, B2, B3);
  F.emitJump(B2, B1);
  F.emitRet(B3, {});
  F.computePredecessors();
  DominatorTree DT = DominatorTree::build(F);
  EXPECT_EQ(DT.idom(B1), 0u);
  EXPECT_EQ(DT.idom(B2), B1);
  EXPECT_EQ(DT.idom(B3), B1);
}

TEST(DominanceTest, PreorderVisitsParentsFirst) {
  Diamond D;
  DominatorTree DT = DominatorTree::build(D.F);
  auto Order = DT.preorder();
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], 0u);
}

TEST(VerifierTest, AcceptsDiamond) {
  Diamond D;
  std::string Error;
  EXPECT_TRUE(verifyCfg(D.F, &Error)) << Error;
  EXPECT_TRUE(verifyStrictSsa(D.F, &Error)) << Error;
}

TEST(VerifierTest, RejectsUnterminatedBlock) {
  Function F;
  F.emitConst(0, 1);
  std::string Error;
  EXPECT_FALSE(verifyCfg(F, &Error));
  EXPECT_NE(Error.find("not terminated"), std::string::npos);
}

TEST(VerifierTest, RejectsUseBeforeDef) {
  Function F;
  ValueId Later = F.createValue("later");
  ValueId Dst = F.createValue("dst");
  // "dst = copy later" before "later" is defined.
  F.emitCopyInto(0, Dst, Later);
  Instruction Def;
  Def.Op = Opcode::Const;
  Def.Dst = Later;
  // Manually append a late definition.
  F.block(0).Body.push_back(Def);
  F.emitRet(0, {Dst});
  F.computePredecessors();
  std::string Error;
  EXPECT_FALSE(verifyStrictSsa(F, &Error));
}

TEST(VerifierTest, RejectsDoubleDefinition) {
  Function F;
  ValueId V = F.emitConst(0, 1);
  F.emitCopyInto(0, V, V); // Redefines V: not SSA.
  F.emitRet(0, {});
  F.computePredecessors();
  std::string Error;
  EXPECT_FALSE(verifyStrictSsa(F, &Error));
  EXPECT_NE(Error.find("more than once"), std::string::npos);
}

TEST(VerifierTest, RejectsPhiArityMismatch) {
  Diamond D;
  // Remove one phi arg.
  D.F.block(D.B3).Phis[0].PhiArgs.pop_back();
  std::string Error;
  EXPECT_FALSE(verifyCfg(D.F, &Error));
}

TEST(LivenessTest, StraightLine) {
  Function F;
  ValueId A = F.emitConst(0, 1, "a");
  ValueId B = F.emitConst(0, 2, "b");
  ValueId C = F.emitBinary(0, Opcode::Add, A, B, "c");
  F.emitRet(0, {C});
  F.computePredecessors();
  Liveness L = Liveness::compute(F);
  EXPECT_EQ(L.liveIn(0).count(), 0u);
  EXPECT_EQ(L.liveOut(0).count(), 0u);
  EXPECT_EQ(computeMaxlive(F, L), 2u); // a and b coexist before the add.
}

TEST(LivenessTest, DiamondPhiLiveness) {
  Diamond D;
  Liveness L = Liveness::compute(D.F);
  // a is live out of bb1 (feeds the phi), not out of bb2.
  EXPECT_TRUE(L.isLiveOut(D.B1, D.A));
  EXPECT_FALSE(L.isLiveOut(D.B2, D.A));
  EXPECT_TRUE(L.isLiveOut(D.B2, D.B));
  // The phi def is live-in of bb3 (defined at entry, used by ret).
  EXPECT_TRUE(L.isLiveIn(D.B3, D.Phi));
  // Phi inputs are NOT live-in of the phi block.
  EXPECT_FALSE(L.isLiveIn(D.B3, D.A));
  EXPECT_FALSE(L.isLiveIn(D.B3, D.B));
}

TEST(LivenessTest, LoopCarriedValue) {
  // bb0: n=const; jump bb1. bb1: i=phi(n, i2); i2=add i,i; br c bb1 bb2.
  Function F;
  BlockId B1 = F.createBlock(), B2 = F.createBlock();
  ValueId N = F.emitConst(0, 5, "n");
  ValueId C = F.emitConst(0, 0, "c");
  F.emitJump(0, B1);
  F.computePredecessors();
  ValueId I = F.createValue("i");
  ValueId I2 = F.emitBinary(B1, Opcode::Add, I, I, "i2");
  F.emitBranch(B1, C, B1, B2);
  F.emitRet(B2, {I2});
  F.computePredecessors();
  // Now add the phi with correct preds (0 and B1).
  Instruction Phi;
  Phi.Op = Opcode::Phi;
  Phi.Dst = I;
  Phi.PhiArgs = {{0, N}, {B1, I2}};
  F.block(B1).Phis.push_back(Phi);

  std::string Error;
  ASSERT_TRUE(verifyStrictSsa(F, &Error)) << Error;
  Liveness L = Liveness::compute(F);
  EXPECT_TRUE(L.isLiveOut(0, N));
  EXPECT_TRUE(L.isLiveOut(B1, I2)); // Live around the back edge.
  EXPECT_TRUE(L.isLiveIn(B1, C));   // Branch condition live through loop.
}

TEST(InterpreterTest, StraightLineArithmetic) {
  Function F;
  ValueId A = F.emitConst(0, 6);
  ValueId B = F.emitConst(0, 7);
  ValueId C = F.emitBinary(0, Opcode::Mul, A, B);
  F.emitRet(0, {C});
  F.computePredecessors();
  ExecutionResult R = interpret(F);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValues, (std::vector<int64_t>{42}));
}

TEST(InterpreterTest, DiamondTakesTrueBranch) {
  Diamond D;
  ExecutionResult R = interpret(D.F);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValues, (std::vector<int64_t>{10})); // cond=1 -> bb1.
}

TEST(InterpreterTest, PhiSelectsByIncomingEdge) {
  Diamond D;
  // Flip the condition to take the false branch.
  D.F.block(0).Body[0].Imm = 0;
  ExecutionResult R = interpret(D.F);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValues, (std::vector<int64_t>{20}));
}

TEST(InterpreterTest, StepBudget) {
  // Infinite loop must hit the budget.
  Function F;
  F.emitJump(0, 0);
  F.computePredecessors();
  ExecutionResult R = interpret(F, 100);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(ProgramGeneratorTest, GeneratesVerifiableSsa) {
  Rng Rand(55);
  for (int Trial = 0; Trial < 25; ++Trial) {
    GeneratorOptions Options;
    Options.NumBlocks = 3 + static_cast<unsigned>(Rand.nextBelow(15));
    Function F = generateRandomSsaFunction(Options, Rand);
    std::string Error;
    EXPECT_TRUE(verifyStrictSsa(F, &Error)) << "trial " << Trial << ": "
                                            << Error;
  }
}

TEST(ProgramGeneratorTest, GeneratedProgramsTerminate) {
  Rng Rand(56);
  for (int Trial = 0; Trial < 15; ++Trial) {
    GeneratorOptions Options;
    Function F = generateRandomSsaFunction(Options, Rand);
    ExecutionResult R = interpret(F);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}
