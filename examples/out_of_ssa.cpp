//===- examples/out_of_ssa.cpp - SSA to moves to coalescing -----------------===//
//
// Demonstrates the pipeline motivating the paper (Sections 1 and 3):
//  1. build a strict SSA loop with a phi swap (the classic hard case);
//  2. check Theorem 1 on its interference graph (chordal, omega = Maxlive);
//  3. go out of SSA (critical-edge splitting + parallel-copy
//     sequentialization), counting the move instructions created;
//  4. coalesce those moves under k = Maxlive with several strategies.
//
// Run: ./out_of_ssa
//
//===----------------------------------------------------------------------===//

#include "challenge/StrategyRunner.h"
#include "graph/Chordal.h"
#include "graph/GreedyColorability.h"
#include "ir/InterferenceBuilder.h"
#include "ir/Interpreter.h"
#include "ir/OutOfSsa.h"
#include "ir/Verifier.h"

#include <iostream>

using namespace rc;
using namespace rc::ir;

/// Builds a loop swapping two values each iteration (phi cycle).
static Function buildSwapLoop() {
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
  ValueId I2 = F.emitBinary(B1, Opcode::Sub, I1, One, "i'");
  F.emitBranch(B1, I2, B1, B2);
  F.emitRet(B2, {X1, Y1});
  F.computePredecessors();

  auto phi = [&F, B1](ValueId Dst, ValueId FromEntry, ValueId FromLoop) {
    Instruction P;
    P.Op = Opcode::Phi;
    P.Dst = Dst;
    P.PhiArgs = {{0, FromEntry}, {B1, FromLoop}};
    F.block(B1).Phis.push_back(P);
  };
  phi(X1, X, Y1); // Swap.
  phi(Y1, Y, X1);
  phi(I1, N, I2);
  return F;
}

int main() {
  Function F = buildSwapLoop();
  std::string Error;
  if (!verifyStrictSsa(F, &Error)) {
    std::cerr << "verifier: " << Error << "\n";
    return 1;
  }

  std::cout << "=== strict SSA input ===\n";
  F.print(std::cout);
  ExecutionResult Before = interpret(F);
  std::cout << "returns:";
  for (int64_t V : Before.ReturnValues)
    std::cout << " " << V;
  std::cout << "\n\n";

  InterferenceGraph IG = buildInterferenceGraph(F);
  std::cout << "Theorem 1 check: chordal = "
            << (isChordal(IG.G) ? "yes" : "NO") << ", omega = "
            << chordalCliqueNumber(IG.G) << ", Maxlive = " << computeMaxlive(F)
            << "\n";
  std::cout << "phi/copy affinities before lowering: " << IG.Affinities.size()
            << "\n\n";

  OutOfSsaStats Stats = lowerOutOfSsa(F);
  std::cout << "=== after out-of-SSA ===\n";
  F.print(std::cout);
  std::cout << "phis eliminated: " << Stats.PhisEliminated
            << ", copies inserted: " << Stats.CopiesInserted
            << ", critical edges split: " << Stats.EdgesSplit
            << ", cycle temps: " << Stats.TempsCreated << "\n";
  ExecutionResult After = interpret(F);
  std::cout << "returns:";
  for (int64_t V : After.ReturnValues)
    std::cout << " " << V;
  std::cout << (Before.ReturnValues == After.ReturnValues
                    ? "  (semantics preserved)\n\n"
                    : "  (MISMATCH!)\n\n");

  // Coalesce the inserted moves on the lowered code's interference graph.
  // Lowered code is no longer SSA, so its graph is not chordal and can need
  // more than Maxlive colors for the greedy scheme; use col(G).
  InterferenceGraph Lowered = buildInterferenceGraph(F);
  unsigned LoweredMaxlive = computeMaxlive(F);
  CoalescingProblem P;
  P.G = std::move(Lowered.G);
  P.Affinities = std::move(Lowered.Affinities);
  P.K = std::max(LoweredMaxlive, coloringNumber(P.G));
  std::cout << "=== coalescing the shuffle code (k = " << P.K
            << " = max(Maxlive " << LoweredMaxlive << ", col "
            << coloringNumber(P.G) << "), " << P.Affinities.size()
            << " moves) ===\n";
  printComparison(std::cout, runAllStrategies(P));
  return 0;
}
