//===- ir/LiveRangeSplitting.cpp - Splitting at block boundaries ----------===//

#include "ir/LiveRangeSplitting.h"

#include "ir/Liveness.h"
#include "ir/SsaConstruction.h"

using namespace rc;
using namespace rc::ir;

SplitStats ir::splitLiveRangesAtBlockBoundaries(Function &F) {
  F.computePredecessors();
  Liveness Live = Liveness::compute(F);

  SplitStats Stats;
  for (BlockId B = 1; B < F.numBlocks(); ++B) {
    assert(F.block(B).Phis.empty() && "splitting requires phi-free input");
    // Self-copies of every live-in value; SSA reconstruction renames them
    // into genuine range splits.
    std::vector<Instruction> Boundary;
    Live.liveIn(B).forEach([&](unsigned V) {
      Instruction Copy;
      Copy.Op = Opcode::Copy;
      Copy.Dst = V;
      Copy.Srcs = {V};
      Boundary.push_back(std::move(Copy));
      ++Stats.CopiesInserted;
    });
    auto &Body = F.block(B).Body;
    Body.insert(Body.begin(), Boundary.begin(), Boundary.end());
  }

  SsaConstructionStats Ssa = constructSsa(F);
  Stats.PhisInserted = Ssa.PhisInserted;
  return Stats;
}
