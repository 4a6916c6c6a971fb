//===- npc/Theorem6Reduction.cpp - Vertex cover -> optimistic -------------===//

#include "npc/Theorem6Reduction.h"

#include <cassert>

using namespace rc;

Theorem6Reduction Theorem6Reduction::build(const Graph &G) {
  Theorem6Reduction R;
  R.NumInputVertices = G.numVertices();
  unsigned N = G.numVertices();
  R.Problem.K = 4;
  GraphBuilder H(N * StructureSize);

  for (unsigned V = 0; V < N; ++V) {
    assert(G.degree(V) <= 3 &&
           "Theorem 6 requires maximum degree 3 (GJS restriction)");
    unsigned Base = V * StructureSize;
    unsigned A = Base, APrime = Base + 1;
    unsigned Q1 = Base + 2, Q2 = Base + 3, Q3 = Base + 4, Q4 = Base + 5;
    auto D = [Base](unsigned I) { return Base + 6 + I; }; // d_0..d_2
    auto B = [Base](unsigned I) { return Base + 9 + I; }; // b_0..b_2

    // Inner 4-clique.
    H.addClique({Q1, Q2, Q3, Q4});
    // Hearts. A and A' do not interfere (they carry the affinity).
    H.addEdge(A, D(0));
    H.addEdge(A, D(1));
    H.addEdge(A, Q1);
    H.addEdge(APrime, D(2));
    H.addEdge(APrime, Q2);
    H.addEdge(APrime, Q3);
    // Branches.
    for (unsigned I = 0; I < 3; ++I) {
      H.addEdge(D(I), B(I));
      H.addEdge(D(I), Q1);
      H.addEdge(D(I), Q2);
      H.addEdge(B(I), Q3);
      H.addEdge(B(I), Q4);
    }
    R.Problem.Affinities.push_back({A, APrime, 1.0});
    R.Problem.Names.resize(H.numVertices());
    const char *Tags[StructureSize] = {"A", "A'", "q1", "q2", "q3", "q4",
                                       "d1", "d2", "d3", "b1", "b2", "b3"};
    for (unsigned I = 0; I < StructureSize; ++I)
      R.Problem.Names[Base + I] = std::string("s")
                                      .append(std::to_string(V))
                                      .append(".")
                                      .append(Tags[I]);
  }

  // External edges: edge (u, v) of G consumes one branch connector on each
  // side.
  std::vector<unsigned> NextBranch(N, 0);
  for (unsigned U = 0; U < N; ++U)
    for (unsigned V : G.neighbors(U)) {
      if (V < U)
        continue;
      unsigned BU = U * StructureSize + 9 + NextBranch[U]++;
      unsigned BV = V * StructureSize + 9 + NextBranch[V]++;
      H.addEdge(BU, BV);
    }
  R.Problem.G = std::move(H).build();
  return R;
}

CoalescingSolution
Theorem6Reduction::solutionFromCover(const std::vector<bool> &InCover) const {
  assert(InCover.size() == NumInputVertices && "cover has wrong size");
  CoalescingSolution S;
  unsigned Total = Problem.G.numVertices();
  S.ClassIds.resize(Total);
  unsigned Next = 0;
  std::vector<bool> Assigned(Total, false);
  for (unsigned V = 0; V < NumInputVertices; ++V) {
    unsigned A = heartA(V), APrime = A + 1;
    if (!InCover[V]) {
      // Kept coalesced: A and A' share a class.
      S.ClassIds[A] = S.ClassIds[APrime] = Next++;
      Assigned[A] = Assigned[APrime] = true;
    }
  }
  for (unsigned X = 0; X < Total; ++X)
    if (!Assigned[X])
      S.ClassIds[X] = Next++;
  S.NumClasses = Next;
  return S;
}

CoalescingSolution Theorem6Reduction::fullCoalescing() const {
  return solutionFromCover(std::vector<bool>(NumInputVertices, false));
}
