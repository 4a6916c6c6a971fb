//===- examples/shuffle_code.cpp - moves: created, then destroyed -----------===//
//
// The paper's Section 1/3 story end to end on one random program:
//
//  1. naive out-of-SSA lowering: one copy per phi argument;
//  2. coalescing-aware lowering: out-of-SSA AS aggressive coalescing,
//     inserting copies only for moves that cannot be merged;
//  3. maximal live-range splitting: flood the program with boundary moves,
//     then let each coalescing strategy win them back at k = Maxlive.
//
// Run: ./shuffle_code [blocks] [seed]
//
//===----------------------------------------------------------------------===//

#include "challenge/StrategyRunner.h"
#include "ir/CoalescingAwareOutOfSsa.h"
#include "ir/InterferenceBuilder.h"
#include "ir/Interpreter.h"
#include "ir/LiveRangeSplitting.h"
#include "ir/OutOfSsa.h"
#include "ir/ProgramGenerator.h"

#include <cstdlib>
#include <iostream>

using namespace rc;
using namespace rc::ir;

int main(int Argc, char **Argv) {
  unsigned Blocks = Argc > 1 ? static_cast<unsigned>(std::atoi(Argv[1])) : 24;
  uint64_t Seed = Argc > 2 ? static_cast<uint64_t>(std::atoll(Argv[2])) : 5;

  Rng Rand(Seed);
  GeneratorOptions Options;
  Options.NumBlocks = Blocks;
  Options.MaxPhisPerJoin = 4;
  Function F = generateRandomSsaFunction(Options, Rand);
  ExecutionResult Reference = interpret(F);
  std::cout << "program: " << F.numBlocks() << " blocks, " << F.numValues()
            << " SSA values\n\n";

  // 1. Naive lowering.
  {
    Function G = F;
    OutOfSsaStats S = lowerOutOfSsa(G);
    ExecutionResult R = interpret(G);
    std::cout << "naive out-of-SSA:      " << S.CopiesInserted
              << " copies for " << S.PhisEliminated << " phis ("
              << S.TempsCreated << " swap temps)  semantics="
              << (R.Ok && R.ReturnValues == Reference.ReturnValues ? "ok"
                                                                   : "BAD")
              << "\n";
  }

  // 2. Coalescing-aware lowering.
  {
    Function G = F;
    CoalescingOutOfSsaStats S = lowerOutOfSsaWithCoalescing(G);
    ExecutionResult R = interpret(G);
    std::cout << "coalescing-aware:      " << S.CopiesInserted
              << " copies (" << S.CopiesAvoided
              << " avoided by merging)            semantics="
              << (R.Ok && R.ReturnValues == Reference.ReturnValues ? "ok"
                                                                   : "BAD")
              << "\n\n";
  }

  // 3. Splitting, then the strategy shoot-out.
  Function G = F;
  lowerOutOfSsa(G);
  SplitStats Split = splitLiveRangesAtBlockBoundaries(G);
  ExecutionResult R = interpret(G);
  std::cout << "maximal splitting inserted " << Split.CopiesInserted
            << " boundary copies and " << Split.PhisInserted
            << " phis (semantics "
            << (R.Ok && R.ReturnValues == Reference.ReturnValues ? "ok"
                                                                 : "BAD")
            << ")\n";

  InterferenceGraph IG = buildInterferenceGraph(G);
  CoalescingProblem P;
  P.G = std::move(IG.G);
  P.Affinities = std::move(IG.Affinities);
  P.K = computeMaxlive(G);
  std::cout << "coalescing the splits back at k = Maxlive = " << P.K << " ("
            << P.Affinities.size() << " moves):\n";
  printComparison(std::cout, runAllStrategies(P));
  return 0;
}
