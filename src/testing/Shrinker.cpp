//===- testing/Shrinker.cpp - Greedy failure minimization -----------------===//

#include "testing/Shrinker.h"

#include <algorithm>

using namespace rc;
using namespace rc::testing;

//===----------------------------------------------------------------------===//
// Coalescing problem shrinking.
//===----------------------------------------------------------------------===//

/// Rebuilds \p P without vertex \p Victim, remapping edges, affinities and
/// names onto the compacted id space.
static CoalescingProblem removeVertex(const CoalescingProblem &P,
                                      unsigned Victim) {
  std::vector<unsigned> Keep;
  Keep.reserve(P.G.numVertices() - 1);
  for (unsigned V = 0; V < P.G.numVertices(); ++V)
    if (V != Victim)
      Keep.push_back(V);

  CoalescingProblem Shrunk;
  std::vector<unsigned> OldToNew;
  Shrunk.G = P.G.inducedSubgraph(Keep, &OldToNew);
  Shrunk.K = P.K;
  for (const Affinity &A : P.Affinities)
    if (A.U != Victim && A.V != Victim)
      Shrunk.Affinities.push_back({OldToNew[A.U], OldToNew[A.V], A.Weight});
  if (!P.Names.empty())
    for (unsigned V : Keep)
      Shrunk.Names.push_back(P.Names[V]);
  return Shrunk;
}

/// Rebuilds \p P without the interference edge (\p U, \p V).
static CoalescingProblem removeEdge(const CoalescingProblem &P, unsigned U,
                                    unsigned V) {
  CoalescingProblem Shrunk = P;
  GraphBuilder G(P.G.numVertices());
  for (unsigned A = 0; A < P.G.numVertices(); ++A)
    for (unsigned B : P.G.neighbors(A))
      if (A < B && !(A == std::min(U, V) && B == std::max(U, V)))
        G.addEdge(A, B);
  Shrunk.G = std::move(G).build();
  return Shrunk;
}

CoalescingProblem testing::shrinkProblem(CoalescingProblem P,
                                         const ProblemPredicate &Fails) {
  bool Progress = true;
  while (Progress) {
    Progress = false;

    // Vertices, highest id first so ids below the victim stay stable.
    for (unsigned V = P.G.numVertices(); V-- > 0;) {
      CoalescingProblem Candidate = removeVertex(P, V);
      if (Fails(Candidate)) {
        P = std::move(Candidate);
        Progress = true;
      }
    }

    // Affinities.
    for (unsigned I = static_cast<unsigned>(P.Affinities.size()); I-- > 0;) {
      CoalescingProblem Candidate = P;
      Candidate.Affinities.erase(Candidate.Affinities.begin() + I);
      if (Fails(Candidate)) {
        P = std::move(Candidate);
        Progress = true;
      }
    }

    // Interference edges.
    for (unsigned U = 0; U < P.G.numVertices(); ++U) {
      // Snapshot: removal invalidates the neighbor list being walked.
      std::vector<unsigned> Neighbors = P.G.neighbors(U);
      for (unsigned V : Neighbors) {
        if (V < U || !P.G.hasEdge(U, V))
          continue;
        CoalescingProblem Candidate = removeEdge(P, U, V);
        if (Fails(Candidate)) {
          P = std::move(Candidate);
          Progress = true;
        }
      }
    }
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Function shrinking.
//===----------------------------------------------------------------------===//

/// Counts the uses of every value in \p F (instruction sources, phi
/// arguments, return operands).
static std::vector<unsigned> countUses(const ir::Function &F) {
  std::vector<unsigned> Uses(F.numValues(), 0);
  for (ir::BlockId B = 0; B < F.numBlocks(); ++B) {
    const ir::BasicBlock &BB = F.block(B);
    for (const ir::Instruction &Phi : BB.Phis)
      for (const ir::PhiArg &Arg : Phi.PhiArgs)
        if (Arg.Value != ir::NoValue)
          ++Uses[Arg.Value];
    for (const ir::Instruction &I : BB.Body)
      for (ir::ValueId V : I.Srcs)
        if (V != ir::NoValue)
          ++Uses[V];
  }
  return Uses;
}

ir::Function testing::shrinkFunction(ir::Function F,
                                     const FunctionPredicate &Fails) {
  bool Progress = true;
  while (Progress) {
    Progress = false;

    // Return operands, last first.
    for (ir::BlockId B = 0; B < F.numBlocks(); ++B) {
      ir::Instruction &Term = F.block(B).Body.back();
      if (Term.Op != ir::Opcode::Ret)
        continue;
      for (unsigned I = static_cast<unsigned>(Term.Srcs.size()); I-- > 0;) {
        ir::Function Candidate = F;
        auto &Srcs = Candidate.block(B).Body.back().Srcs;
        Srcs.erase(Srcs.begin() + I);
        if (Fails(Candidate)) {
          F = std::move(Candidate);
          Progress = true;
        }
      }
    }

    // Unused definitions: removing one can never break a dominance or
    // single-definition property, so the candidate stays well formed.
    std::vector<unsigned> Uses = countUses(F);
    for (ir::BlockId B = 0; B < F.numBlocks(); ++B) {
      for (unsigned I = static_cast<unsigned>(F.block(B).Body.size());
           I-- > 0;) {
        const ir::Instruction &Ins = F.block(B).Body[I];
        if (ir::isTerminator(Ins.Op) || Ins.Dst == ir::NoValue ||
            Uses[Ins.Dst] != 0)
          continue;
        ir::Function Candidate = F;
        auto &Body = Candidate.block(B).Body;
        Body.erase(Body.begin() + I);
        if (Fails(Candidate)) {
          F = std::move(Candidate);
          Uses = countUses(F);
          Progress = true;
        }
      }
      for (unsigned I = static_cast<unsigned>(F.block(B).Phis.size());
           I-- > 0;) {
        const ir::Instruction &Phi = F.block(B).Phis[I];
        if (Phi.Dst == ir::NoValue || Uses[Phi.Dst] != 0)
          continue;
        ir::Function Candidate = F;
        auto &Phis = Candidate.block(B).Phis;
        Phis.erase(Phis.begin() + I);
        if (Fails(Candidate)) {
          F = std::move(Candidate);
          Uses = countUses(F);
          Progress = true;
        }
      }
    }
  }
  return F;
}
