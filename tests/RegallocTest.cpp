//===- tests/RegallocTest.cpp - end-to-end register allocation --------------===//

#include "ir/Interpreter.h"
#include "ir/ProgramGenerator.h"
#include "ir/Verifier.h"
#include "regalloc/Allocators.h"
#include "regalloc/RegisterRewriter.h"
#include "regalloc/SpillRewriter.h"

#include <gtest/gtest.h>

using namespace rc;
using namespace rc::ir;
using namespace rc::regalloc;

namespace {

Function straightLine() {
  Function F;
  ValueId A = F.emitConst(0, 6, "a");
  ValueId B = F.emitConst(0, 7, "b");
  ValueId C = F.emitBinary(0, Opcode::Mul, A, B, "c");
  ValueId D = F.emitCopy(0, C, "d");
  F.emitRet(0, {D});
  F.computePredecessors();
  return F;
}

} // namespace

TEST(SpillRewriterTest, SpillsAroundDefsAndUses) {
  Function F = straightLine();
  // Spill value 0 ("a"): one store after def, one reload before the mul.
  SpillRewriteStats Stats = spillEverywhere(F, {0});
  EXPECT_EQ(Stats.StoresInserted, 1u);
  EXPECT_EQ(Stats.LoadsInserted, 1u);
  EXPECT_EQ(Stats.SlotsUsed, 1u);
  ExecutionResult R = interpret(F);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValues, (std::vector<int64_t>{42}));
}

TEST(SpillRewriterTest, MultipleUsesEachReload) {
  Function F;
  ValueId A = F.emitConst(0, 5, "a");
  ValueId B = F.emitBinary(0, Opcode::Add, A, A, "b");
  ValueId C = F.emitBinary(0, Opcode::Mul, B, A, "c");
  F.emitRet(0, {C});
  F.computePredecessors();
  SpillRewriteStats Stats = spillEverywhere(F, {A});
  EXPECT_EQ(Stats.LoadsInserted, 3u); // Two for the add, one for the mul.
  ExecutionResult R = interpret(F);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValues, (std::vector<int64_t>{50}));
}

TEST(RegisterRewriterTest, RemovesCoalescedMoves) {
  Function F = straightLine();
  // a=r0, b=r1, c=r0, d=r0: the copy d = c becomes r0 = r0 and is deleted.
  Coloring Colors = {0, 1, 0, 0};
  RegisterRewriteResult RR = rewriteToRegisters(F, Colors, 2);
  EXPECT_EQ(RR.MovesRemoved, 1u);
  EXPECT_EQ(RR.MovesRemaining, 0u);
  ExecutionResult R = interpret(RR.Rewritten);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValues, (std::vector<int64_t>{42}));
}

TEST(RegisterRewriterTest, KeepsRealMoves) {
  Function F = straightLine();
  Coloring Colors = {0, 1, 0, 1}; // d in a different register: move stays.
  RegisterRewriteResult RR = rewriteToRegisters(F, Colors, 2);
  EXPECT_EQ(RR.MovesRemoved, 0u);
  EXPECT_EQ(RR.MovesRemaining, 1u);
  ExecutionResult R = interpret(RR.Rewritten);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValues, (std::vector<int64_t>{42}));
}

TEST(AllocatorTest, StraightLineNeedsTwoRegisters) {
  for (unsigned K : {3u, 4u}) {
    AllocationResult R = allocateChaitinIrc(straightLine(), K);
    ASSERT_TRUE(R.Success);
    EXPECT_EQ(R.SpilledValues, 0u);
    EXPECT_EQ(R.Allocated.numValues(), K);
    ExecutionResult E = interpret(R.Allocated);
    ASSERT_TRUE(E.Ok) << E.Error;
    EXPECT_EQ(E.ReturnValues, (std::vector<int64_t>{42}));
  }
}

TEST(AllocatorTest, SpillsUnderPressureAndStaysCorrect) {
  // Many simultaneously live constants force spilling at K = 3.
  Function F;
  std::vector<ValueId> Vals;
  for (int I = 0; I < 8; ++I)
    Vals.push_back(F.emitConst(0, I + 1));
  ValueId Sum = Vals[0];
  for (int I = 1; I < 8; ++I)
    Sum = F.emitBinary(0, Opcode::Add, Sum, Vals[I]);
  F.emitRet(0, {Sum});
  F.computePredecessors();
  ExecutionResult Before = interpret(F);

  AllocationResult R = allocateChaitinIrc(F, 3);
  ASSERT_TRUE(R.Success);
  EXPECT_GT(R.SpilledValues, 0u);
  ExecutionResult After = interpret(R.Allocated);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ReturnValues, After.ReturnValues);
}

struct AllocatorSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AllocatorSweep, BothAllocatorsPreserveSemantics) {
  Rng Rand(GetParam());
  for (int Trial = 0; Trial < 5; ++Trial) {
    GeneratorOptions Options;
    Options.NumBlocks = 4 + static_cast<unsigned>(Rand.nextBelow(10));
    Options.MaxPhisPerJoin = 3;
    Function F = generateRandomSsaFunction(Options, Rand);
    ASSERT_TRUE(verifyStrictSsa(F));
    ExecutionResult Reference = interpret(F);
    ASSERT_TRUE(Reference.Ok);

    for (unsigned K : {4u, 6u, 10u}) {
      AllocationResult Chaitin = allocateChaitinIrc(F, K);
      ASSERT_TRUE(Chaitin.Success) << "Chaitin failed at K=" << K;
      ExecutionResult RC = interpret(Chaitin.Allocated);
      ASSERT_TRUE(RC.Ok) << RC.Error;
      EXPECT_EQ(RC.ReturnValues, Reference.ReturnValues)
          << "Chaitin broke semantics at K=" << K;
      EXPECT_LE(Chaitin.Allocated.numValues(), K);

      AllocationResult TwoPhase = allocateTwoPhase(F, K);
      ASSERT_TRUE(TwoPhase.Success) << "two-phase failed at K=" << K;
      ExecutionResult RT = interpret(TwoPhase.Allocated);
      ASSERT_TRUE(RT.Ok) << RT.Error;
      EXPECT_EQ(RT.ReturnValues, Reference.ReturnValues)
          << "two-phase broke semantics at K=" << K;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorSweep,
                         ::testing::Values(901u, 902u, 903u, 904u, 905u,
                                           906u, 907u, 908u));

TEST(AllocatorTest, MoreRegistersNeverMoreSpills) {
  Rng Rand(911);
  GeneratorOptions Options;
  Options.NumBlocks = 12;
  Function F = generateRandomSsaFunction(Options, Rand);
  unsigned LastSpills = ~0u;
  for (unsigned K = 4; K <= 16; K += 4) {
    AllocationResult R = allocateChaitinIrc(F, K);
    ASSERT_TRUE(R.Success);
    EXPECT_LE(R.SpilledValues, LastSpills);
    LastSpills = R.SpilledValues;
  }
}

TEST(AllocatorTest, SwapLoopAllocatesWithoutSpills) {
  // The phi-swap loop from the out_of_ssa example: the allocators must
  // handle the parallel-copy cycle moves.
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
  ASSERT_TRUE(verifyStrictSsa(F));
  ExecutionResult Reference = interpret(F);

  AllocationResult R = allocateChaitinIrc(F, 6);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.SpilledValues, 0u);
  ExecutionResult After = interpret(R.Allocated);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.ReturnValues, Reference.ReturnValues);
}

namespace {

/// The counters an allocation reports, in AllocationResult field order.
struct AllocatorCounters {
  unsigned Iterations, SpilledValues, LoadsInserted, StoresInserted,
      MovesRemoved, MovesRemaining;

  static AllocatorCounters of(const AllocationResult &R) {
    return {R.Iterations,   R.SpilledValues, R.LoadsInserted,
            R.StoresInserted, R.MovesRemoved, R.MovesRemaining};
  }
  friend bool operator==(const AllocatorCounters &,
                         const AllocatorCounters &) = default;
  friend std::ostream &operator<<(std::ostream &OS,
                                  const AllocatorCounters &C) {
    return OS << "{" << C.Iterations << ", " << C.SpilledValues << ", "
              << C.LoadsInserted << ", " << C.StoresInserted << ", "
              << C.MovesRemoved << ", " << C.MovesRemaining << "}";
  }
};

struct AllocatorGoldenRow {
  unsigned Blocks;
  uint64_t Seed;
  unsigned K;
  AllocatorCounters TwoPhase;
  AllocatorCounters ChaitinIrc;
};

// Pinned counters of both allocators on bench-style functions (the
// denseSsaKnobs of bench/BenchCommon.h). Any change to a spill choice, a
// coalescing decision or a color moves at least one of these numbers.
const AllocatorGoldenRow AllocatorGoldenRows[] = {
    {8, 1, 4, {3, 14, 44, 16, 17, 0}, {3, 14, 38, 16, 17, 0}},
    {8, 1, 8, {3, 8, 27, 8, 16, 1}, {4, 7, 23, 7, 13, 4}},
    {8, 1, 16, {1, 0, 0, 0, 11, 6}, {1, 0, 0, 0, 11, 6}},
    {8, 2, 4, {3, 13, 44, 17, 18, 1}, {4, 15, 47, 18, 18, 1}},
    {8, 2, 8, {2, 4, 25, 4, 16, 3}, {3, 4, 25, 4, 16, 3}},
    {8, 2, 16, {1, 0, 0, 0, 13, 6}, {1, 0, 0, 0, 13, 6}},
    {8, 3, 4, {2, 11, 42, 12, 17, 1}, {5, 12, 48, 14, 18, 0}},
    {8, 3, 8, {2, 4, 25, 4, 16, 2}, {2, 2, 11, 2, 10, 8}},
    {8, 3, 16, {1, 0, 0, 0, 10, 8}, {1, 0, 0, 0, 10, 8}},
    {16, 1, 4, {3, 34, 91, 37, 39, 1}, {3, 33, 89, 36, 39, 1}},
    {16, 1, 8, {3, 26, 78, 26, 38, 2}, {3, 23, 70, 23, 37, 3}},
    {16, 1, 16, {3, 15, 56, 15, 35, 5}, {3, 13, 42, 13, 28, 12}},
    {16, 2, 4, {3, 29, 109, 32, 31, 1}, {4, 30, 107, 33, 31, 1}},
    {16, 2, 8, {3, 18, 92, 21, 31, 1}, {3, 18, 83, 21, 31, 1}},
    {16, 2, 16, {3, 7, 42, 9, 29, 3}, {5, 8, 44, 10, 26, 6}},
    {16, 3, 4, {4, 22, 94, 26, 34, 0}, {3, 20, 87, 22, 32, 2}},
    {16, 3, 8, {2, 12, 61, 12, 31, 3}, {3, 12, 63, 12, 32, 2}},
    {16, 3, 16, {2, 4, 24, 4, 26, 8}, {2, 3, 20, 3, 22, 12}},
    {32, 1, 4, {3, 44, 188, 45, 73, 1}, {3, 44, 186, 45, 73, 1}},
    {32, 1, 8, {3, 38, 170, 39, 68, 6}, {4, 38, 166, 39, 69, 5}},
    {32, 1, 16, {2, 28, 142, 28, 63, 11}, {3, 26, 124, 27, 60, 14}},
    {32, 2, 4, {4, 52, 224, 62, 75, 0}, {4, 52, 216, 64, 74, 1}},
    {32, 2, 8, {3, 34, 192, 36, 72, 3}, {3, 34, 190, 34, 71, 4}},
    {32, 2, 16, {3, 23, 165, 23, 70, 5}, {3, 21, 158, 21, 68, 7}},
    {32, 3, 4, {3, 39, 193, 47, 71, 1}, {4, 39, 188, 44, 68, 4}},
    {32, 3, 8, {3, 19, 150, 23, 65, 7}, {3, 17, 141, 18, 64, 8}},
    {32, 3, 16, {2, 6, 81, 6, 54, 18}, {2, 5, 54, 5, 52, 20}},
};

} // namespace

TEST(AllocatorTest, GoldenCountersOnBenchFunctions) {
  for (const AllocatorGoldenRow &Row : AllocatorGoldenRows) {
    Rng Rand(Row.Seed);
    GeneratorOptions Options;
    Options.NumBlocks = Row.Blocks;
    Options.MaxInstructionsPerBlock = 8;
    Options.MaxPhisPerJoin = 4;
    Options.CopyProbability = 0.3;
    Function F = generateRandomSsaFunction(Options, Rand);
    AllocationResult TwoPhase = allocateTwoPhase(F, Row.K);
    AllocationResult Irc = allocateChaitinIrc(F, Row.K);
    ASSERT_TRUE(TwoPhase.Success && Irc.Success);
    std::string Where = "blocks " + std::to_string(Row.Blocks) + " seed " +
                        std::to_string(Row.Seed) + " k " +
                        std::to_string(Row.K);
    EXPECT_EQ(AllocatorCounters::of(TwoPhase), Row.TwoPhase) << Where;
    EXPECT_EQ(AllocatorCounters::of(Irc), Row.ChaitinIrc) << Where;
  }
}
