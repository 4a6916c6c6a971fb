//===- npc/Theorem4Reduction.cpp - 3SAT -> incremental --------------------===//

#include "npc/Theorem4Reduction.h"

#include "graph/Coloring.h"

#include <cassert>
#include <cstdlib>

using namespace rc;

namespace {

/// Internal record of one two-input OR gadget: a triangle (A1, A2, Out) with
/// A1 adjacent to the first input and A2 to the second. The output is forced
/// to F's color iff both inputs have F's color.
struct OrGadget {
  unsigned InA, InB, A1, A2, Out;
};

} // namespace

// Chain bookkeeping lives outside the public struct; rebuilt on demand when
// reconstructing colorings. To keep the public type simple we re-derive the
// gadget layout deterministically from the formula.
static std::vector<std::vector<OrGadget>>
layoutChains(const CnfFormula &F, const SatColoringGadget &Gadget,
             unsigned FirstAuxVertex) {
  std::vector<std::vector<OrGadget>> Chains;
  unsigned Next = FirstAuxVertex;
  for (const auto &Clause : F.Clauses) {
    std::vector<OrGadget> Chain;
    auto literalVertex = [&Gadget](int Lit) {
      unsigned Var = static_cast<unsigned>(std::abs(Lit));
      return Lit > 0 ? Gadget.LiteralVertices[Var].first
                     : Gadget.LiteralVertices[Var].second;
    };
    unsigned Current = literalVertex(Clause[0]);
    for (size_t J = 1; J < Clause.size(); ++J) {
      OrGadget Or;
      Or.InA = Current;
      Or.InB = literalVertex(Clause[J]);
      Or.A1 = Next++;
      Or.A2 = Next++;
      Or.Out = Next++;
      Current = Or.Out;
      Chain.push_back(Or);
    }
    Chains.push_back(std::move(Chain));
  }
  return Chains;
}

SatColoringGadget SatColoringGadget::build(const CnfFormula &F) {
  SatColoringGadget Gadget;
  // Palette triangle, variable triangles, then 3 aux vertices per OR.
  unsigned NumAux = 0;
  for (const auto &Clause : F.Clauses) {
    assert(!Clause.empty() && "empty clause");
    NumAux += 3 * static_cast<unsigned>(Clause.size() - 1);
  }
  unsigned FirstAux = 3 + 2 * F.NumVars;
  GraphBuilder G(FirstAux + NumAux);
  Gadget.TVertex = 0;
  Gadget.FVertex = 1;
  Gadget.RVertex = 2;
  G.addClique({0, 1, 2});

  Gadget.LiteralVertices.assign(F.NumVars + 1, {~0u, ~0u});
  for (unsigned V = 1; V <= F.NumVars; ++V) {
    unsigned Pos = 3 + 2 * (V - 1), Neg = Pos + 1;
    Gadget.LiteralVertices[V] = {Pos, Neg};
    G.addEdge(Pos, Neg);
    G.addEdge(Pos, Gadget.RVertex);
    G.addEdge(Neg, Gadget.RVertex);
  }

  auto Chains = layoutChains(F, Gadget, FirstAux);
  for (size_t C = 0; C < F.Clauses.size(); ++C) {
    unsigned FinalOut;
    if (Chains[C].empty()) {
      // Single-literal clause: the literal itself must be T.
      int Lit = F.Clauses[C][0];
      unsigned Var = static_cast<unsigned>(std::abs(Lit));
      FinalOut = Lit > 0 ? Gadget.LiteralVertices[Var].first
                         : Gadget.LiteralVertices[Var].second;
    } else {
      for (const OrGadget &Or : Chains[C]) {
        G.addEdge(Or.A1, Or.A2);
        G.addEdge(Or.A1, Or.Out);
        G.addEdge(Or.A2, Or.Out);
        G.addEdge(Or.InA, Or.A1);
        G.addEdge(Or.InB, Or.A2);
      }
      FinalOut = Chains[C].back().Out;
    }
    // The clause output may not be F (adjacent to F) and, via R, is pinned
    // into the {T, F} plane; together they force it to T's color.
    G.addEdge(FinalOut, Gadget.FVertex);
    G.addEdge(FinalOut, Gadget.RVertex);
  }
  Gadget.G = std::move(G).build();
  return Gadget;
}

std::vector<bool>
SatColoringGadget::assignmentFromColoring(const std::vector<int> &C) const {
  std::vector<bool> Assignment(LiteralVertices.size(), false);
  for (unsigned V = 1; V < LiteralVertices.size(); ++V)
    Assignment[V] = C[LiteralVertices[V].first] == C[TVertex];
  return Assignment;
}

std::vector<int> SatColoringGadget::coloringFromAssignment(
    const std::vector<bool> &Assignment) const {
  // This reconstruction needs the chain layout; rebuild it from the sizes
  // embedded in the graph is impossible, so we require callers to go through
  // Theorem4Reduction::coloringFromAssignment-style helpers. For the gadget
  // alone we recompute colors greedily: palette and literals analytically,
  // auxiliaries by propagation (every aux triangle has a unique extension
  // once its inputs are colored, up to the documented choices).
  const int T = 0, F = 1, R = 2;
  std::vector<int> C(G.numVertices(), -1);
  C[TVertex] = T;
  C[FVertex] = F;
  C[RVertex] = R;
  for (unsigned V = 1; V < LiteralVertices.size(); ++V) {
    C[LiteralVertices[V].first] = Assignment[V] ? T : F;
    C[LiteralVertices[V].second] = Assignment[V] ? F : T;
  }
  // Auxiliary triangles (A1, A2, Out) appear in vertex order, three at a
  // time, after the literal block; inputs always precede outputs, so a
  // single left-to-right pass can color them.
  unsigned FirstAux = 3 + 2 * (static_cast<unsigned>(
                                   LiteralVertices.size()) -
                               1);
  for (unsigned A1 = FirstAux; A1 < G.numVertices(); A1 += 3) {
    unsigned A2 = A1 + 1, Out = A1 + 2;
    // Recover the inputs: A1's unique colored neighbor outside the triangle.
    auto inputOf = [&](unsigned Helper) {
      for (unsigned W : G.neighbors(Helper))
        if (W != A1 && W != A2 && W != Out) {
          assert(C[W] != -1 && "OR gadget input not yet colored");
          return C[W];
        }
      assert(false && "OR helper has no input neighbor");
      return -1;
    };
    int InA = inputOf(A1), InB = inputOf(A2);
    assert((InA == T || InA == F) && (InB == T || InB == F) &&
           "OR inputs must be in the {T, F} plane");
    if (InA == F && InB == F) {
      C[A1] = T;
      C[A2] = R;
      C[Out] = F;
    } else if (InA == T) {
      C[A1] = F;
      C[A2] = R;
      C[Out] = T;
    } else { // InA == F, InB == T.
      C[A1] = R;
      C[A2] = F;
      C[Out] = T;
    }
  }
  assert(isValidColoring(G, C, 3) && "gadget coloring construction failed");
  return C;
}

Theorem4Reduction Theorem4Reduction::build(const CnfFormula &ThreeSat) {
  Theorem4Reduction R;
  R.FourSat = threeSatToFourSat(ThreeSat, &R.X0);
  R.Gadget = SatColoringGadget::build(R.FourSat);
  R.AffinityX = R.Gadget.LiteralVertices[R.X0].first;
  R.AffinityY = R.Gadget.FVertex;
  return R;
}
