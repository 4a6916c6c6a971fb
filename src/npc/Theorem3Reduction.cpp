//===- npc/Theorem3Reduction.cpp - k-colorability -> conservative ---------===//

#include "npc/Theorem3Reduction.h"

using namespace rc;

Theorem3Reduction Theorem3Reduction::build(const Graph &H, unsigned K) {
  Theorem3Reduction R;
  unsigned N = H.numVertices();

  for (unsigned U = 0; U < N; ++U)
    for (unsigned V : H.neighbors(U))
      if (V > U)
        R.OriginalEdges.emplace_back(U, V);
  unsigned NumEdges = static_cast<unsigned>(R.OriginalEdges.size());

  R.Problem.K = K;
  GraphBuilder G(N + 2 * NumEdges);
  for (unsigned E = 0; E < NumEdges; ++E) {
    unsigned XE = N + 2 * E, YE = N + 2 * E + 1;
    R.EdgeGadgets.emplace_back(XE, YE);
    G.addEdge(XE, YE);
    auto [U, V] = R.OriginalEdges[E];
    R.Problem.Affinities.push_back({U, XE, 1.0});
    R.Problem.Affinities.push_back({YE, V, 1.0});
  }

  R.Problem.G = std::move(G).build();
  R.Problem.Names.resize(R.Problem.G.numVertices());
  for (unsigned U = 0; U < N; ++U)
    R.Problem.Names[U] = std::string("v").append(std::to_string(U));
  for (unsigned E = 0; E < NumEdges; ++E) {
    R.Problem.Names[R.EdgeGadgets[E].first] = "x_e" + std::to_string(E);
    R.Problem.Names[R.EdgeGadgets[E].second] = "y_e" + std::to_string(E);
  }
  return R;
}

CoalescingSolution Theorem3Reduction::fullCoalescing() const {
  unsigned N = static_cast<unsigned>(Problem.G.numVertices()) -
               2 * static_cast<unsigned>(EdgeGadgets.size());
  CoalescingSolution S;
  S.NumClasses = N;
  S.ClassIds.resize(Problem.G.numVertices());
  for (unsigned U = 0; U < N; ++U)
    S.ClassIds[U] = U;
  for (unsigned E = 0; E < EdgeGadgets.size(); ++E) {
    S.ClassIds[EdgeGadgets[E].first] = OriginalEdges[E].first;
    S.ClassIds[EdgeGadgets[E].second] = OriginalEdges[E].second;
  }
  return S;
}
