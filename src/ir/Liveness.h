//===- ir/Liveness.h - Live variable analysis -------------------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness analysis over the mini-IR, with SSA-aware phi handling:
/// a phi use is live out of the corresponding predecessor (not live into the
/// phi's block); phi definitions are considered defined at block entry, in
/// parallel. Works on both SSA and lowered (multi-definition) code.
///
/// Maxlive -- the maximum number of simultaneously live variables over all
/// program points -- is the quantity Theorem 1 equates with omega(G) for
/// strict SSA programs.
///
//===----------------------------------------------------------------------===//

#ifndef IR_LIVENESS_H
#define IR_LIVENESS_H

#include "ir/Function.h"
#include "support/BitSet.h"

#include <vector>

namespace rc {
namespace ir {

/// Per-block live-in/live-out sets.
class Liveness {
public:
  /// Runs the iterative backward analysis on \p F (predecessors must be
  /// computed).
  static Liveness compute(const Function &F);

  /// Live values at the entry of \p B. Includes phi definitions of \p B that
  /// are live past the phi block (they occupy a register from block entry).
  const BitSet &liveIn(BlockId B) const { return LiveIn[B]; }

  /// Live values at the exit of \p B, including values feeding phis of
  /// successors along the (B -> successor) edges.
  const BitSet &liveOut(BlockId B) const { return LiveOut[B]; }

  /// Returns true if \p V is live at the entry of \p B.
  bool isLiveIn(BlockId B, ValueId V) const { return LiveIn[B].test(V); }

  /// Returns true if \p V is live at the exit of \p B.
  bool isLiveOut(BlockId B, ValueId V) const { return LiveOut[B].test(V); }

private:
  std::vector<BitSet> LiveIn;
  std::vector<BitSet> LiveOut;
};

/// Computes Maxlive: the maximum, over all program points, of the number of
/// simultaneously live values. Phi definitions of a block are counted at the
/// block-entry point together with the values live through them.
unsigned computeMaxlive(const Function &F, const Liveness &L);

/// Computes Maxlive of \p F, computing its liveness first.
unsigned computeMaxlive(const Function &F);

} // namespace ir
} // namespace rc

#endif // IR_LIVENESS_H
