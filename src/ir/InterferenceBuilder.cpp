//===- ir/InterferenceBuilder.cpp - Interference graphs -------------------===//

#include "ir/InterferenceBuilder.h"

#include <algorithm>
#include <map>

using namespace rc;
using namespace rc::ir;

InterferenceGraph ir::buildInterferenceGraph(const Function &F,
                                             const Liveness &L,
                                             InterferenceMode Mode) {
  InterferenceGraph Result;
  GraphBuilder G(F.numValues());

  std::vector<unsigned> EntryVec; // Phi-entry clique, reused per block.
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    BitSet Live = L.liveOut(B);

    // Body, backward: every definition interferes with everything live
    // across it (minus the copy source in Chaitin mode).
    for (auto It = BB.Body.rbegin(); It != BB.Body.rend(); ++It) {
      const Instruction &I = *It;
      if (I.Dst != NoValue) {
        ValueId CopySrc =
            (Mode == InterferenceMode::Chaitin && I.Op == Opcode::Copy)
                ? I.Srcs[0]
                : NoValue;
        Live.forEach([&](unsigned V) {
          if (V != I.Dst && V != CopySrc)
            G.addEdge(I.Dst, V);
        });
        Live.reset(I.Dst);
      }
      for (ValueId Src : I.Srcs)
        Live.set(Src);
    }

    // Phi definitions: all defined in parallel at block entry. The values
    // coexisting at that instant are the live-in set plus every phi def
    // (even a dead one occupies a register while the parallel copy
    // executes); they form a clique.
    if (!BB.Phis.empty()) {
      BitSet Entry = L.liveIn(B);
      for (const Instruction &Phi : BB.Phis)
        Entry.set(Phi.Dst);
      EntryVec.clear();
      Entry.forEach([&EntryVec](unsigned V) { EntryVec.push_back(V); });
      G.addClique(EntryVec);
    }
  }
  Result.G = std::move(G).build();

  // Affinities: copies and phi args, deduplicated, weights accumulated.
  std::map<std::pair<ValueId, ValueId>, double> Weights;
  auto addAffinity = [&Weights](ValueId A, ValueId B, double W) {
    if (A == B)
      return;
    if (A > B)
      std::swap(A, B);
    Weights[{A, B}] += W;
  };
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    for (const Instruction &I : BB.Body)
      if (I.Op == Opcode::Copy)
        addAffinity(I.Dst, I.Srcs[0], BB.Frequency);
    for (const Instruction &Phi : BB.Phis)
      for (const PhiArg &Arg : Phi.PhiArgs)
        addAffinity(Phi.Dst, Arg.Value, F.block(Arg.Pred).Frequency);
  }
  for (const auto &[Pair, Weight] : Weights) {
    if (Result.G.hasEdge(Pair.first, Pair.second))
      continue; // Constrained move: not coalescable.
    Result.Affinities.push_back({Pair.first, Pair.second, Weight});
  }
  return Result;
}
