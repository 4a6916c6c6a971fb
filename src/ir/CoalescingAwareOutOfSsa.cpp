//===- ir/CoalescingAwareOutOfSsa.cpp - Coalescing out-of-SSA -------------===//

#include "ir/CoalescingAwareOutOfSsa.h"

#include "coalescing/Aggressive.h"
#include "coalescing/Conservative.h"
#include "ir/InterferenceBuilder.h"
#include "ir/OutOfSsa.h"

#include <map>

using namespace rc;
using namespace rc::ir;

CoalescingOutOfSsaStats
ir::lowerOutOfSsaWithCoalescing(Function &F, OutOfSsaCoalescing Mode) {
  CoalescingOutOfSsaStats Stats;
  Stats.EdgesSplit = splitCriticalEdges(F);

  // 1-2. Interference graph with phi affinities, then coalesce.
  Liveness L = Liveness::compute(F);
  InterferenceGraph IG = buildInterferenceGraph(F, L);
  CoalescingProblem P;
  P.G = std::move(IG.G);
  P.Affinities = std::move(IG.Affinities);
  P.K = computeMaxlive(F, L);
  CoalescingSolution Solution;
  if (Mode == OutOfSsaCoalescing::Aggressive)
    Solution = aggressiveCoalesceGreedy(P).Solution;
  else
    Solution = conservativeCoalesce(P, ConservativeRule::BruteForce).Solution;
  Stats.Classes = Solution.NumClasses;

  // 3. One fresh value per class; rename everything.
  unsigned OriginalValues = F.numValues();
  std::vector<ValueId> ClassValue(Solution.NumClasses);
  for (unsigned C = 0; C < Solution.NumClasses; ++C)
    ClassValue[C] = F.createValue(std::string("c").append(std::to_string(C)));
  auto renamed = [&](ValueId V) {
    assert(V < OriginalValues && "rewriting an already-rewritten value");
    return ClassValue[Solution.ClassIds[V]];
  };

  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    BasicBlock &BB = F.block(B);

    // Phi arguments become per-edge parallel copies between classes.
    std::map<BlockId, ParallelCopy> PerPred;
    for (const Instruction &Phi : BB.Phis) {
      ++Stats.PhisEliminated;
      ValueId Dst = renamed(Phi.Dst);
      for (const PhiArg &Arg : Phi.PhiArgs) {
        ValueId Src = renamed(Arg.Value);
        if (Src == Dst) {
          ++Stats.CopiesAvoided; // Coalesced: the phi move vanished.
          continue;
        }
        PerPred[Arg.Pred].Copies.emplace_back(Dst, Src);
      }
    }
    BB.Phis.clear();

    for (auto &[Pred, PC] : PerPred) {
      auto MakeTemp = [&F, &Stats]() {
        ++Stats.TempsCreated;
        return F.createValue("shuffletmp" +
                             std::to_string(Stats.TempsCreated));
      };
      auto Sequence = sequentializeParallelCopy(PC, MakeTemp);
      BasicBlock &PB = F.block(Pred);
      assert(PB.Succs.size() == 1 &&
             "phi predecessor still has several successors");
      auto InsertAt = PB.Body.end() - 1;
      for (const auto &[Dst, Src] : Sequence) {
        Instruction Copy;
        Copy.Op = Opcode::Copy;
        Copy.Dst = Dst;
        Copy.Srcs = {Src};
        InsertAt = PB.Body.insert(InsertAt, std::move(Copy)) + 1;
        ++Stats.CopiesInserted;
      }
    }
  }

  // Rewrite straight-line code; coalesced copies become self-moves and die.
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    BasicBlock &BB = F.block(B);
    std::vector<Instruction> NewBody;
    NewBody.reserve(BB.Body.size());
    for (Instruction &I : BB.Body) {
      // Copies inserted above already use class/temp ids; skip renaming.
      bool AlreadyRewritten =
          I.Op == Opcode::Copy && I.Dst >= OriginalValues &&
          (I.Srcs[0] >= OriginalValues);
      if (!AlreadyRewritten) {
        for (ValueId &Src : I.Srcs)
          if (Src < OriginalValues)
            Src = renamed(Src);
        if (I.Dst != NoValue && I.Dst < OriginalValues)
          I.Dst = renamed(I.Dst);
      }
      if (I.Op == Opcode::Copy && I.Dst == I.Srcs[0]) {
        ++Stats.CopiesAvoided; // A pre-existing move got coalesced.
        continue;
      }
      NewBody.push_back(std::move(I));
    }
    BB.Body = std::move(NewBody);
  }

  F.computePredecessors();
  return Stats;
}
