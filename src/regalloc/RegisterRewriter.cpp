//===- regalloc/RegisterRewriter.cpp - Color -> register code -------------===//

#include "regalloc/RegisterRewriter.h"

using namespace rc;
using namespace rc::regalloc;
using namespace rc::ir;

RegisterRewriteResult
regalloc::rewriteToRegisters(const Function &F, const Coloring &Colors,
                             unsigned K) {
  assert(Colors.size() == F.numValues() && "coloring has wrong size");
  RegisterRewriteResult Result;
  Function &G = Result.Rewritten;
  for (unsigned R = 0; R < K; ++R)
    G.createValue(std::string("r").append(std::to_string(R)));

  auto reg = [&Colors, K](ValueId V) {
    assert(Colors[V] >= 0 && static_cast<unsigned>(Colors[V]) < K &&
           "value without a valid register");
    return static_cast<ValueId>(Colors[V]);
  };

  // Mirror the block structure.
  for (BlockId B = 1; B < F.numBlocks(); ++B)
    G.createBlock();
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    assert(BB.Phis.empty() && "register rewriting requires phi-free code");
    BasicBlock &GB = G.block(B);
    GB.Frequency = BB.Frequency;
    GB.Succs = BB.Succs;
    for (const Instruction &I : BB.Body) {
      Instruction NI = I;
      for (ValueId &Src : NI.Srcs)
        Src = reg(Src);
      if (NI.Dst != NoValue)
        NI.Dst = reg(NI.Dst);
      if (NI.Op == Opcode::Copy) {
        if (NI.Dst == NI.Srcs[0]) {
          ++Result.MovesRemoved; // Coalesced: same register, no move.
          continue;
        }
        ++Result.MovesRemaining;
      }
      GB.Body.push_back(std::move(NI));
    }
  }
  G.computePredecessors();
  return Result;
}
