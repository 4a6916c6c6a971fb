//===- npc/MultiwayCut.cpp - Multiway cut ----------------------------------===//

#include "npc/MultiwayCut.h"

#include <algorithm>

using namespace rc;

unsigned rc::countCutEdges(const Graph &G,
                           const std::vector<unsigned> &Labels) {
  unsigned Cut = 0;
  for (unsigned U = 0; U < G.numVertices(); ++U)
    for (unsigned V : G.neighbors(U))
      if (V > U && Labels[U] != Labels[V])
        ++Cut;
  return Cut;
}

namespace {

class MultiwayCutSearch {
public:
  explicit MultiwayCutSearch(const MultiwayCutInstance &Instance)
      : Instance(Instance), N(Instance.G.numVertices()),
        K(static_cast<unsigned>(Instance.Terminals.size())) {}

  MultiwayCutResult run() {
    Labels.assign(N, ~0u);
    IsTerminal.assign(N, false);
    for (unsigned T = 0; T < K; ++T) {
      Labels[Instance.Terminals[T]] = T;
      IsTerminal[Instance.Terminals[T]] = true;
    }
    // Non-terminal vertices, highest degree first (stronger pruning).
    for (unsigned V = 0; V < N; ++V)
      if (!IsTerminal[V])
        Free.push_back(V);
    std::sort(Free.begin(), Free.end(), [this](unsigned A, unsigned B) {
      return Instance.G.degree(A) > Instance.G.degree(B);
    });

    // Incumbent: every free vertex labeled 0.
    Best = Labels;
    for (unsigned V : Free)
      Best[V] = 0;
    BestCut = countCutEdges(Instance.G, Best);

    // Edges between two terminals are cut no matter what.
    unsigned Base = 0;
    for (unsigned T = 0; T < K; ++T)
      for (unsigned W : Instance.G.neighbors(Instance.Terminals[T]))
        if (IsTerminal[W] && W > Instance.Terminals[T] &&
            Labels[W] != Labels[Instance.Terminals[T]])
          ++Base;
    recurse(0, Base);

    MultiwayCutResult Result;
    Result.CutSize = BestCut;
    Result.Labels = Best;
    Result.NodesExplored = Nodes;
    return Result;
  }

private:
  void recurse(size_t Index, unsigned PartialCut) {
    ++Nodes;
    if (PartialCut >= BestCut)
      return;
    if (Index == Free.size()) {
      BestCut = PartialCut;
      Best = Labels;
      return;
    }
    unsigned V = Free[Index];
    for (unsigned Label = 0; Label < K; ++Label) {
      Labels[V] = Label;
      unsigned Added = 0;
      for (unsigned W : Instance.G.neighbors(V))
        if (Labels[W] != ~0u && Labels[W] != Label)
          ++Added;
      recurse(Index + 1, PartialCut + Added);
    }
    Labels[V] = ~0u;
  }

  const MultiwayCutInstance &Instance;
  unsigned N, K;
  std::vector<unsigned> Labels, Best;
  std::vector<bool> IsTerminal;
  std::vector<unsigned> Free;
  unsigned BestCut = 0;
  uint64_t Nodes = 0;
};

} // namespace

MultiwayCutResult
rc::solveMultiwayCutExact(const MultiwayCutInstance &Instance) {
  assert(!Instance.Terminals.empty() && "need at least one terminal");
  return MultiwayCutSearch(Instance).run();
}

MultiwayCutInstance rc::randomMultiwayCutInstance(unsigned NumVertices,
                                                  double EdgeProbability,
                                                  unsigned NumTerminals,
                                                  Rng &Rand) {
  assert(NumTerminals <= NumVertices && "more terminals than vertices");
  MultiwayCutInstance Instance;
  GraphBuilder G(NumVertices);
  for (unsigned U = 0; U < NumVertices; ++U)
    for (unsigned V = U + 1; V < NumVertices; ++V)
      if (Rand.flip(EdgeProbability))
        G.addEdge(U, V);
  Instance.G = std::move(G).build();
  std::vector<unsigned> Perm = Rand.permutation(NumVertices);
  Instance.Terminals.assign(Perm.begin(), Perm.begin() + NumTerminals);
  return Instance;
}
