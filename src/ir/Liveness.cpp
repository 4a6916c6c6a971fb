//===- ir/Liveness.cpp - Live variable analysis ---------------------------===//

#include "ir/Liveness.h"

#include <algorithm>

using namespace rc;
using namespace rc::ir;

/// Applies the backward transfer function of \p BB's straight-line body to
/// \p Live (initially the live-out set), yielding the live set at the point
/// just below the phi functions.
static void transferBody(const BasicBlock &BB, BitSet &Live) {
  for (auto It = BB.Body.rbegin(); It != BB.Body.rend(); ++It) {
    if (It->Dst != NoValue)
      Live.reset(It->Dst);
    for (ValueId Src : It->Srcs)
      Live.set(Src);
  }
}

Liveness Liveness::compute(const Function &F) {
  Liveness Result;
  unsigned N = F.numBlocks();
  Result.LiveIn.assign(N, BitSet(F.numValues()));
  Result.LiveOut.assign(N, BitSet(F.numValues()));

  // Iterate to a fixed point in postorder (approximately backward).
  std::vector<BlockId> Rpo = F.reversePostOrder();
  std::vector<BlockId> Order(Rpo.rbegin(), Rpo.rend());

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Order) {
      const BasicBlock &BB = F.block(B);

      // LiveOut(B) = union over successors S of
      //   (LiveIn(S) minus phi defs of S) plus phi uses along edge B->S.
      BitSet Out(F.numValues());
      for (BlockId S : BB.Succs) {
        BitSet FromSucc = Result.LiveIn[S];
        const BasicBlock &SB = F.block(S);
        for (const Instruction &Phi : SB.Phis)
          FromSucc.reset(Phi.Dst);
        for (const Instruction &Phi : SB.Phis)
          for (const PhiArg &Arg : Phi.PhiArgs)
            if (Arg.Pred == B)
              FromSucc.set(Arg.Value);
        Out.unionWith(FromSucc);
      }
      Changed |= Result.LiveOut[B].unionWith(Out);

      // LiveIn(B): transfer the body backward. Phi defs that survive remain
      // in the set (they are never redefined by the body in SSA; in lowered
      // code there are no phis).
      BitSet In = Result.LiveOut[B];
      transferBody(BB, In);
      Changed |= Result.LiveIn[B].unionWith(In);
    }
  }
  return Result;
}

unsigned ir::computeMaxlive(const Function &F) {
  return computeMaxlive(F, Liveness::compute(F));
}

unsigned ir::computeMaxlive(const Function &F, const Liveness &L) {
  unsigned Max = 0;
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    BitSet Live = L.liveOut(B);
    Max = std::max(Max, Live.count());
    for (auto It = BB.Body.rbegin(); It != BB.Body.rend(); ++It) {
      if (It->Dst != NoValue) {
        // At the definition instant the defined value coexists with
        // everything live below it, even when it is dead.
        unsigned AtDef = Live.count() + (Live.test(It->Dst) ? 0 : 1);
        Max = std::max(Max, AtDef);
        Live.reset(It->Dst);
      }
      for (ValueId Src : It->Srcs)
        Live.set(Src);
      Max = std::max(Max, Live.count());
    }
    // Block-entry point: live-through values plus ALL phi defs, which exist
    // simultaneously while the incoming parallel copy executes.
    BitSet Entry = L.liveIn(B);
    for (const Instruction &Phi : BB.Phis)
      Entry.set(Phi.Dst);
    Max = std::max(Max, Entry.count());
  }
  return Max;
}
