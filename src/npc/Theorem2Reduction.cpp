//===- npc/Theorem2Reduction.cpp - Multiway cut -> aggressive -------------===//

#include "npc/Theorem2Reduction.h"

using namespace rc;

Theorem2Reduction
Theorem2Reduction::build(const MultiwayCutInstance &Instance) {
  Theorem2Reduction R;
  unsigned N = Instance.G.numVertices();

  // Vertices: originals first, then one subdivision vertex per edge.
  for (unsigned U = 0; U < N; ++U)
    for (unsigned V : Instance.G.neighbors(U))
      if (V > U)
        R.OriginalEdges.emplace_back(U, V);
  unsigned NumEdges = static_cast<unsigned>(R.OriginalEdges.size());

  for (unsigned E = 0; E < NumEdges; ++E)
    R.SubdivisionVertex.push_back(N + E);

  // Interferences: a clique on the terminals only.
  GraphBuilder G(N + NumEdges);
  G.addClique(Instance.Terminals);
  R.Problem.G = std::move(G).build();

  // Affinities: both halves of every subdivided edge, unit weight.
  for (unsigned E = 0; E < NumEdges; ++E) {
    auto [U, V] = R.OriginalEdges[E];
    unsigned XE = R.SubdivisionVertex[E];
    R.Problem.Affinities.push_back({U, XE, 1.0});
    R.Problem.Affinities.push_back({XE, V, 1.0});
  }

  R.Problem.Names.resize(R.Problem.G.numVertices());
  for (unsigned U = 0; U < N; ++U)
    R.Problem.Names[U] = std::string("v").append(std::to_string(U));
  for (unsigned E = 0; E < NumEdges; ++E)
    R.Problem.Names[R.SubdivisionVertex[E]] = "x_e" + std::to_string(E);
  return R;
}

CoalescingSolution Theorem2Reduction::solutionFromLabeling(
    const std::vector<unsigned> &Labels) const {
  unsigned N = static_cast<unsigned>(Labels.size());
  unsigned NumLabels = 0;
  for (unsigned L : Labels)
    NumLabels = std::max(NumLabels, L + 1);

  CoalescingSolution S;
  S.NumClasses = NumLabels;
  S.ClassIds.resize(Problem.G.numVertices());
  for (unsigned V = 0; V < N; ++V)
    S.ClassIds[V] = Labels[V];
  // Each subdivision vertex joins one endpoint's class; when the edge is
  // cut this sacrifices exactly one of its two affinities.
  for (unsigned E = 0; E < SubdivisionVertex.size(); ++E)
    S.ClassIds[SubdivisionVertex[E]] = Labels[OriginalEdges[E].first];
  return S;
}
