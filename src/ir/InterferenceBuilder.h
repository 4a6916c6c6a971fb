//===- ir/InterferenceBuilder.h - Interference graphs -----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the interference graph of a function (Section 2.1 of the paper):
/// vertex v is value v; two values interfere iff their live ranges intersect
/// (the strict-program definition) or, in Chaitin mode, with the classical
/// refinement that a copy "x = y" does not make x and y interfere by itself.
/// Affinities come from copy instructions and phi arguments, weighted by
/// block frequencies.
///
/// For strict SSA inputs the produced graph is chordal and its clique number
/// equals Maxlive (Theorem 1); tests assert both.
///
//===----------------------------------------------------------------------===//

#ifndef IR_INTERFERENCEBUILDER_H
#define IR_INTERFERENCEBUILDER_H

#include "graph/Graph.h"
#include "graph/GraphWriter.h"
#include "ir/Function.h"
#include "ir/Liveness.h"

#include <vector>

namespace rc {
namespace ir {

/// Which interference definition to use.
enum class InterferenceMode {
  /// Live ranges intersect.
  Intersection,
  /// Chaitin's refinement: the source of a copy does not interfere with its
  /// destination at the copy itself.
  Chaitin,
};

/// An interference graph plus move affinities extracted from a function.
struct InterferenceGraph {
  /// Vertex v corresponds to value v of the originating function, so
  /// Function::valueName(v) labels it.
  Graph G;
  /// Deduplicated affinities with accumulated frequency weights. Affinities
  /// whose endpoints interfere (constrained moves) are dropped.
  std::vector<Affinity> Affinities;
};

/// Builds the interference graph of \p F from its liveness \p L.
InterferenceGraph buildInterferenceGraph(
    const Function &F, const Liveness &L,
    InterferenceMode Mode = InterferenceMode::Intersection);

/// Builds the interference graph of \p F, computing its liveness.
inline InterferenceGraph buildInterferenceGraph(
    const Function &F, InterferenceMode Mode = InterferenceMode::Intersection) {
  return buildInterferenceGraph(F, Liveness::compute(F), Mode);
}

} // namespace ir
} // namespace rc

#endif // IR_INTERFERENCEBUILDER_H
