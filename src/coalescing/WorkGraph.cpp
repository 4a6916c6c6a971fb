//===- coalescing/WorkGraph.cpp - Unified coalescing merge engine ---------===//

#include "coalescing/WorkGraph.h"

#include <bit>

using namespace rc;

/// Appends the set bit positions of \p Row (over \p Words words) to \p Out,
/// ascending.
static void appendBits(const uint64_t *Row, unsigned Words,
                       std::vector<unsigned> &Out) {
  for (unsigned W = 0; W < Words; ++W)
    for (uint64_t B = Row[W]; B; B &= B - 1)
      Out.push_back(W * 64 + static_cast<unsigned>(std::countr_zero(B)));
}

WorkGraph::WorkGraph(const Graph &G, unsigned DenseThreshold)
    : Original(G), Dense(G.numVertices() <= DenseThreshold),
      Rep(G.numVertices()), Rank(G.numVertices(), 0),
      Members(G.numVertices()), NumClasses(G.numVertices()) {
  unsigned N = G.numVertices();
  if (Dense) {
    ClassEdges.reset(N);
    Deg.assign(N, 0);
    AdjStamp.assign(N, 0);
    ClassAdj.resize(N);
  } else {
    ClassArena.reset(N);
    ClassArena.reserveEntries(2 * static_cast<size_t>(G.numEdges()));
  }
  for (unsigned V = 0; V < N; ++V) {
    Rep[V] = V;
    Members[V] = {V};
    if (Dense) {
      // The bit rows are the primary adjacency; sorted vectors are
      // materialized on demand (see materializedNeighbors). Each row is
      // filled from its own full neighbor list — symmetry comes from the
      // input graph, with no scattered column writes.
      Deg[V] = static_cast<unsigned>(G.neighbors(V).size());
      uint64_t *R = ClassEdges.row(V);
      for (unsigned W : G.neighbors(V))
        R[W >> 6] |= uint64_t(1) << (W & 63);
    } else {
      // Graph rows are already sorted; the reserved pool takes them in
      // id order with no relocation.
      ClassArena.assignRow(V, G.neighbors(V));
    }
  }
}

const std::vector<unsigned> &
WorkGraph::materializedNeighbors(unsigned C) const {
  assert(Dense && "sparse mode maintains neighbor vectors eagerly");
  if (!AdjStamp[C]) {
    std::vector<unsigned> &A = ClassAdj[C];
    A.clear();
    A.reserve(Deg[C]);
    appendBits(ClassEdges.row(C), ClassEdges.wordsPerRow(), A);
    AdjStamp[C] = 1;
  }
  return ClassAdj[C];
}

void WorkGraph::enableDegreeCache(unsigned K) {
  assert(K > 0 && "degree cache needs a positive k");
  CacheK = K;
  unsigned N = numOriginalVertices();
  if (Dense) {
    // The masks are the whole cache: the tests sweep them word-at-a-time,
    // and significantNeighbors() popcounts on demand, so there are no
    // per-class counters to maintain through merges.
    SigWords.assign(ClassEdges.wordsPerRow(), 0);
    ExactKWords.assign(ClassEdges.wordsPerRow(), 0);
    for (unsigned V = 0; V < N; ++V)
      if (Rep[V] == V)
        setDegreeBits(V, classDegree(V));
    return;
  }
  // Sparse mode keeps the same threshold masks (probed per neighbor by
  // the merge-walk tests) plus the per-class significant-neighbor
  // counters the O(1) free-pass shortcuts read.
  SigCount.assign(N, 0);
  SigWords.assign((static_cast<size_t>(N) + 63) / 64, 0);
  ExactKWords.assign((static_cast<size_t>(N) + 63) / 64, 0);
  // Tiled rows build lazily per class (see tileRowReady); merges maintain
  // whichever rows exist from here on.
  Tiles.reset(N);
  for (unsigned V = 0; V < N; ++V) {
    if (Rep[V] != V)
      continue;
    setDegreeBits(V, classDegree(V));
    if (classDegree(V) < K)
      continue;
    for (unsigned X : ClassArena.row(V))
      ++SigCount[X];
  }
}

bool WorkGraph::briggsSafe(unsigned CU, unsigned CV) const {
  assert(CacheK && "the safety tests read the degree cache");
  assert(CU != CV && "testing a merge of one class with itself");
  const unsigned K = CacheK;
  if (Dense) {
    // The sweep counts interfering endpoints themselves when they are
    // significant, so the bar is raised to compensate.
    unsigned Limit = K;
    if (ClassEdges.test(CU, CV))
      Limit += (Deg[CU] >= K) + (Deg[CV] >= K);
    return briggsHighDegreeBelow(CU, CV, Limit);
  }
  // The high-degree count is at most SU + SV (overlap corrections only
  // shrink it), so the test passes without looking at any neighbor.
  if (SigCount[CU] + SigCount[CV] < K)
    return true;
  // The sparse sweeps skip the endpoints, so the limit needs no adjacency
  // correction.
  if (tileRowReady(CU) && tileRowReady(CV))
    return briggsHighDegreeBelowSparseTiled(CU, CV, K);
  return briggsHighDegreeBelowSparseWalk(CU, CV, K);
}

bool WorkGraph::georgeSafe(unsigned CU, unsigned CV) const {
  assert(CacheK && "the safety tests read the degree cache");
  assert(CU != CV && "testing a merge of one class with itself");
  if (Dense)
    return georgeWitnessesEmpty(CU, CV);
  // Free pass when CU has no significant neighbor besides CV.
  unsigned SU = SigCount[CU];
  if (ClassArena.rowSize(CV) >= CacheK && classesAdjacent(CU, CV))
    --SU;
  if (SU == 0)
    return true;
  if (tileRowReady(CU) && tileRowReady(CV))
    return georgeWitnessesEmptySparseTiled(CU, CV);
  return georgeWitnessesEmptySparseWalk(CU, CV);
}

bool WorkGraph::briggsHighDegreeBelow(unsigned CU, unsigned CV,
                                      unsigned Limit) const {
  assert(Dense && CacheK && "needs dense adjacency and an enabled cache");
  const uint64_t *RU = ClassEdges.row(CU), *RV = ClassEdges.row(CV);
  unsigned High = 0;
  for (unsigned W = 0; W < ClassEdges.wordsPerRow(); ++W) {
    uint64_t B = (RU[W] | RV[W]) & SigWords[W] &
                 ~(RU[W] & RV[W] & ExactKWords[W]);
    High += static_cast<unsigned>(std::popcount(B));
    if (High >= Limit)
      return false;
  }
  return true;
}

bool WorkGraph::georgeWitnessesEmpty(unsigned CU, unsigned CV) const {
  assert(Dense && CacheK && "needs dense adjacency and an enabled cache");
  const uint64_t *RU = ClassEdges.row(CU), *RV = ClassEdges.row(CV);
  for (unsigned W = 0; W < ClassEdges.wordsPerRow(); ++W) {
    uint64_t B = RU[W] & SigWords[W] & ~RV[W];
    if ((CV >> 6) == W)
      B &= ~(uint64_t(1) << (CV & 63));
    if (B)
      return false;
  }
  return true;
}

bool WorkGraph::briggsHighDegreeBelowSparseWalk(unsigned CU, unsigned CV,
                                                unsigned Limit) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  auto SigBit = [this](unsigned C) {
    return (SigWords[C >> 6] >> (C & 63)) & 1;
  };
  auto ExactKBit = [this](unsigned C) {
    return (ExactKWords[C >> 6] >> (C & 63)) & 1;
  };
  // One merge-walk over the two sorted rows: commons fall out of the
  // comparison, so nothing is stamped up front and a failing test stops
  // mid-row having paid only for the entries it saw.
  VertexSpan RU = ClassArena.row(CU), RV = ClassArena.row(CV);
  const unsigned *PU = RU.begin(), *EU = RU.end();
  const unsigned *PV = RV.begin(), *EV = RV.end();
  unsigned High = 0;
  while (PU != EU || PV != EV) {
    unsigned NU = PU != EU ? *PU : ~0u;
    unsigned NV = PV != EV ? *PV : ~0u;
    if (NU < NV) {
      if (NU != CV && SigBit(NU) && ++High >= Limit)
        return false;
      ++PU;
    } else if (NV < NU) {
      if (NV != CU && SigBit(NV) && ++High >= Limit)
        return false;
      ++PV;
    } else {
      // A common neighbor loses one degree in the merge: it stays high
      // only above K, i.e. significant but not exactly K. (Commons are
      // never the endpoints — no row contains its own class.)
      if (SigBit(NU) && !ExactKBit(NU) && ++High >= Limit)
        return false;
      ++PU;
      ++PV;
    }
  }
  return true;
}

void WorkGraph::appendBriggsHighDegreeSparse(unsigned CU, unsigned CV,
                                             std::vector<unsigned> &Out) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  auto SigBit = [this](unsigned C) {
    return (SigWords[C >> 6] >> (C & 63)) & 1;
  };
  auto ExactKBit = [this](unsigned C) {
    return (ExactKWords[C >> 6] >> (C & 63)) & 1;
  };
  // Same merge-walk as briggsHighDegreeBelowSparseWalk, collecting instead
  // of counting. CV's exclusive blockers detour through ScratchList so the
  // emitted order matches the legacy two-loop walk exactly.
  ScratchList.clear();
  VertexSpan RU = ClassArena.row(CU), RV = ClassArena.row(CV);
  const unsigned *PU = RU.begin(), *EU = RU.end();
  const unsigned *PV = RV.begin(), *EV = RV.end();
  while (PU != EU || PV != EV) {
    unsigned NU = PU != EU ? *PU : ~0u;
    unsigned NV = PV != EV ? *PV : ~0u;
    if (NU < NV) {
      if (NU != CV && SigBit(NU))
        Out.push_back(NU);
      ++PU;
    } else if (NV < NU) {
      if (NV != CU && SigBit(NV))
        ScratchList.push_back(NV);
      ++PV;
    } else {
      if (SigBit(NU) && !ExactKBit(NU))
        Out.push_back(NU);
      ++PU;
      ++PV;
    }
  }
  Out.insert(Out.end(), ScratchList.begin(), ScratchList.end());
}

void WorkGraph::appendGeorgeWitnessesSparse(unsigned CU, unsigned CV,
                                            std::vector<unsigned> &Out) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  VertexSpan RV = ClassArena.row(CV);
  const unsigned *PV = RV.begin(), *EV = RV.end();
  for (unsigned N : ClassArena.row(CU)) {
    if (N == CV || !((SigWords[N >> 6] >> (N & 63)) & 1))
      continue;
    while (PV != EV && *PV < N)
      ++PV;
    if (PV == EV || *PV != N)
      Out.push_back(N);
  }
}

bool WorkGraph::georgeWitnessesEmptySparseWalk(unsigned CU,
                                               unsigned CV) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  // Both rows are sorted, so CV-membership of CU's significant neighbors
  // is a resumable forward probe — no stamping, and a witness exits
  // having touched only the prefix before it.
  VertexSpan RV = ClassArena.row(CV);
  const unsigned *PV = RV.begin(), *EV = RV.end();
  for (unsigned N : ClassArena.row(CU)) {
    if (N == CV || !((SigWords[N >> 6] >> (N & 63)) & 1))
      continue;
    while (PV != EV && *PV < N)
      ++PV;
    if (PV == EV || *PV != N)
      return false;
  }
  return true;
}

bool WorkGraph::briggsHighDegreeBelowSparseTiled(unsigned CU, unsigned CV,
                                                 unsigned Limit) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  assert(Tiles.built(CU) && Tiles.built(CV) && "tile rows not built");
  constexpr unsigned WPT = TiledBitRows::WordsPerTile;
  const uint32_t *IU = Tiles.tileIndices(CU), *IV = Tiles.tileIndices(CV);
  const uint64_t *WU = Tiles.tileWords(CU), *WV = Tiles.tileWords(CV);
  const unsigned NU = Tiles.tileCount(CU), NV = Tiles.tileCount(CV);
  // Endpoint bits are masked out of the sweep — the walk skips the
  // endpoints, so unlike the dense form no limit correction exists.
  const size_t CUWord = CU >> 6, CVWord = CV >> 6;
  const uint64_t CUBit = uint64_t(1) << (CU & 63);
  const uint64_t CVBit = uint64_t(1) << (CV & 63);
  unsigned High = 0;
  unsigned I = 0, J = 0;
  while (I < NU || J < NV) {
    uint32_t TI = I < NU ? IU[I] : ~uint32_t(0);
    uint32_t TJ = J < NV ? IV[J] : ~uint32_t(0);
    uint32_t T = TI < TJ ? TI : TJ;
    const uint64_t *AU = TI == T ? WU + size_t(I) * WPT : nullptr;
    const uint64_t *AV = TJ == T ? WV + size_t(J) * WPT : nullptr;
    for (unsigned W = 0; W < WPT; ++W) {
      uint64_t RU = AU ? AU[W] : 0, RV = AV ? AV[W] : 0;
      uint64_t Union = RU | RV;
      if (!Union)
        continue;
      // A nonzero tile word holds a class id < numOriginalVertices(), so
      // the global word index is always inside the threshold masks.
      size_t GW = size_t(T) * WPT + W;
      uint64_t B = Union & SigWords[GW] & ~(RU & RV & ExactKWords[GW]);
      if (GW == CUWord)
        B &= ~CUBit;
      if (GW == CVWord)
        B &= ~CVBit;
      High += static_cast<unsigned>(std::popcount(B));
      if (High >= Limit)
        return false;
    }
    I += TI == T;
    J += TJ == T;
  }
  return true;
}

bool WorkGraph::georgeWitnessesEmptySparseTiled(unsigned CU,
                                                unsigned CV) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  assert(Tiles.built(CU) && Tiles.built(CV) && "tile rows not built");
  constexpr unsigned WPT = TiledBitRows::WordsPerTile;
  const uint32_t *IU = Tiles.tileIndices(CU), *IV = Tiles.tileIndices(CV);
  const uint64_t *WU = Tiles.tileWords(CU), *WV = Tiles.tileWords(CV);
  const unsigned NU = Tiles.tileCount(CU), NV = Tiles.tileCount(CV);
  const size_t CVWord = CV >> 6;
  const uint64_t CVBit = uint64_t(1) << (CV & 63);
  // Only CU's tiles can hold witnesses; merge-walk CV's list alongside.
  unsigned J = 0;
  for (unsigned I = 0; I < NU; ++I) {
    uint32_t T = IU[I];
    while (J < NV && IV[J] < T)
      ++J;
    const uint64_t *AU = WU + size_t(I) * WPT;
    const uint64_t *AV = J < NV && IV[J] == T ? WV + size_t(J) * WPT : nullptr;
    for (unsigned W = 0; W < WPT; ++W) {
      uint64_t RU = AU[W];
      if (!RU)
        continue;
      size_t GW = size_t(T) * WPT + W;
      uint64_t B = RU & SigWords[GW] & ~(AV ? AV[W] : 0);
      if (GW == CVWord)
        B &= ~CVBit;
      if (B)
        return false;
    }
  }
  return true;
}

void WorkGraph::briggsWatchWords(unsigned CU, unsigned CV,
                                 uint64_t *Out) const {
  assert(Dense && CacheK && "needs dense adjacency and an enabled cache");
  const uint64_t *RU = ClassEdges.row(CU), *RV = ClassEdges.row(CV);
  for (unsigned W = 0; W < ClassEdges.wordsPerRow(); ++W)
    Out[W] |= (RU[W] | RV[W]) & SigWords[W] &
              ~(RU[W] & RV[W] & ExactKWords[W]);
}

void WorkGraph::georgeWatchWords(unsigned CU, unsigned CV,
                                 uint64_t *Out) const {
  assert(Dense && CacheK && "needs dense adjacency and an enabled cache");
  const uint64_t *RU = ClassEdges.row(CU), *RV = ClassEdges.row(CV);
  for (unsigned W = 0; W < ClassEdges.wordsPerRow(); ++W)
    Out[W] |= RU[W] & SigWords[W] & ~RV[W];
}

void WorkGraph::updateDegreeCache(unsigned Root, unsigned Loser,
                                  const std::vector<unsigned> &LoserAdj,
                                  const std::vector<unsigned> &NewNeighbors,
                                  const std::vector<unsigned> &Commons,
                                  bool Undo) {
  const unsigned K = CacheK;
  const unsigned LoserDeg = static_cast<unsigned>(LoserAdj.size());
  const unsigned RootDegNew = classDegree(Root);
  const unsigned RootDegOld =
      RootDegNew - static_cast<unsigned>(NewNeighbors.size());

  if (Dense) {
    // Dense mode keeps no per-class counters — only the threshold masks.
    // A one-step degree change flips a class's bits only when it straddles
    // the significance or exactly-K thresholds.
    for (unsigned X : Commons) {
      unsigned NewDeg = classDegree(X);
      if (NewDeg == K - 1 || NewDeg == K)
        setDegreeBits(X, Undo ? NewDeg + 1 : NewDeg);
    }
    setDegreeBits(Root, Undo ? RootDegOld : RootDegNew);
    // Degree 0 on merge clears both of the dead loser's mask bits (K > 0).
    setDegreeBits(Loser, Undo ? LoserDeg : 0);
    return;
  }

  // Merge-direction delta; the undo direction negates every step. Unsigned
  // counter arithmetic is modular, so intermediate wraps cancel exactly.
  const unsigned D = Undo ? ~0u : 1u;

  // The loser leaves every neighborhood it occupied.
  if (LoserDeg >= K)
    for (unsigned X : LoserAdj)
      SigCount[X] -= D;

  // The root's contribution to its neighbors: if the merge pushed it over
  // the significance threshold, all merged neighbors gain it; if it was
  // already significant, only the newly adjacent ones do.
  if (RootDegNew >= K) {
    if (RootDegOld < K) {
      for (unsigned X : ClassArena.row(Root))
        SigCount[X] += D;
    } else {
      for (unsigned X : NewNeighbors)
        SigCount[X] += D;
    }
  }

  // The root gains the significant among its new neighbors (their degrees
  // are unchanged by the merge: they swapped Loser for Root).
  for (unsigned X : NewNeighbors)
    if (classDegree(X) >= K)
      SigCount[Root] += D;

  // Common neighbors lost one degree. A common that was exactly at K
  // flipped to insignificant for its whole (post-merge) neighborhood.
  for (unsigned X : Commons) {
    if (classDegree(X) == K - 1)
      for (unsigned Y : ClassArena.row(X))
        SigCount[Y] -= D;
  }

  // SigCount[Loser] is deliberately left at its pre-merge value: the class
  // is dead, and exact LIFO rollback makes the frozen value correct again
  // the moment the class revives.

  // Sparse mode maintains the same threshold masks as dense mode (the
  // merge-walk tests probe them per neighbor). Bit updates depend
  // only on class degrees, so the undo direction restores them exactly.
  for (unsigned X : Commons) {
    unsigned NewDeg = classDegree(X);
    if (NewDeg == K - 1 || NewDeg == K)
      setDegreeBits(X, Undo ? NewDeg + 1 : NewDeg);
  }
  setDegreeBits(Root, Undo ? RootDegOld : RootDegNew);
  // Degree 0 on merge clears both of the dead loser's mask bits (K > 0).
  setDegreeBits(Loser, Undo ? LoserDeg : 0);
}

unsigned WorkGraph::merge(unsigned U, unsigned V) {
  assert(canMerge(U, V) && "merging interfering or identical classes");
  if (Cancel)
    Cancel->poll();
  unsigned CU = Rep[U], CV = Rep[V];
  // Union by rank: the higher rank wins; on a tie the first argument wins
  // and its rank is bumped.
  unsigned Root = Rank[CU] >= Rank[CV] ? CU : CV;
  unsigned Loser = Root == CU ? CV : CU;
  bool RankBumped = Rank[Root] == Rank[Loser];
  if (RankBumped)
    ++Rank[Root];

  std::vector<unsigned> LoserAdjList;
  std::vector<unsigned> NewNeighbors;
  std::vector<unsigned> Commons;
  bool NeedCommons = CacheK || Observer;

  if (Dense) {
    // Word-parallel merge over the bit rows: split the loser's row into
    // new neighbors and commons, OR it into the root's row, then patch the
    // loser's column out of the matrix. No per-neighbor vector surgery.
    const unsigned Words = ClassEdges.wordsPerRow();
    uint64_t *RR = ClassEdges.row(Root);
    const uint64_t *RL = ClassEdges.row(Loser);
    // Take over the loser's materialization buffer for the walk. If it is
    // still valid — rollback restores it, so speculative merge/rollback
    // cycles over the same classes stay on this path — the list is already
    // built and the walk skips per-bit extraction entirely; either way the
    // cycle runs allocation-free, which is what the exact searches hammer.
    const bool LoserValid = AdjStamp[Loser] != 0;
    LoserAdjList = std::move(ClassAdj[Loser]);
    NewNeighbors.reserve(Deg[Loser]);
    if (NeedCommons)
      Commons.reserve(Deg[Loser]);
    if (LoserValid) {
      assert(LoserAdjList.size() == Deg[Loser] && "stale materialization");
      for (unsigned X : LoserAdjList) {
        if (!((RR[X >> 6] >> (X & 63)) & 1))
          NewNeighbors.push_back(X);
        else if (NeedCommons)
          Commons.push_back(X);
        else
          --Deg[X]; // Common neighbor; nobody needs the list itself.
      }
      for (unsigned W = 0; W < Words; ++W)
        RR[W] |= RL[W];
    } else {
      LoserAdjList.clear();
      LoserAdjList.reserve(Deg[Loser]);
      for (unsigned W = 0; W < Words; ++W) {
        uint64_t L = RL[W];
        if (!L)
          continue;
        unsigned Base = W * 64;
        for (uint64_t B = L; B; B &= B - 1) {
          unsigned X = Base + static_cast<unsigned>(std::countr_zero(B));
          LoserAdjList.push_back(X);
          if (!((RR[W] >> (X & 63)) & 1))
            NewNeighbors.push_back(X);
          else if (NeedCommons)
            Commons.push_back(X);
          else
            --Deg[X]; // Common neighbor; nobody needs the list itself.
        }
        RR[W] |= L;
      }
    }
    // Column-side maintenance only: the root's row already took every
    // loser neighbor via the word-wise OR above, and the loser's row is
    // zeroed wholesale below. Only rows touched here lose their
    // materialized neighbor lists; the rest of the lazy cache stays warm.
    const unsigned LoserWord = Loser >> 6;
    const uint64_t LoserMask = ~(uint64_t(1) << (Loser & 63));
    for (unsigned X : LoserAdjList) {
      ClassEdges.row(X)[LoserWord] &= LoserMask;
      AdjStamp[X] = 0;
    }
    const unsigned RootWord = Root >> 6;
    const uint64_t RootBit = uint64_t(1) << (Root & 63);
    for (unsigned X : NewNeighbors)
      ClassEdges.row(X)[RootWord] |= RootBit;
    uint64_t *RLMut = ClassEdges.row(Loser);
    for (unsigned W = 0; W < Words; ++W)
      RLMut[W] = 0;
    Deg[Root] += static_cast<unsigned>(NewNeighbors.size());
    for (unsigned X : Commons)
      --Deg[X];
    // Deg[Loser] freezes at its pre-merge value for exact LIFO rollback.
    AdjStamp[Root] = 0;
    AdjStamp[Loser] = 0;
  } else {
    // Copy the loser's row out of the arena first: every arena mutation
    // below may relocate rows or compact the pool, so spans cannot be
    // held across the relink.
    VertexSpan LoserRow = ClassArena.row(Loser);
    LoserAdjList.assign(LoserRow.begin(), LoserRow.end());
    VertexSpan RootRow = ClassArena.row(Root);

    // Loser neighbors not already adjacent to Root (both rows sorted).
    NewNeighbors.reserve(LoserAdjList.size());
    std::set_difference(LoserAdjList.begin(), LoserAdjList.end(),
                        RootRow.begin(), RootRow.end(),
                        std::back_inserter(NewNeighbors));
    if (NeedCommons) {
      Commons.reserve(LoserAdjList.size() - NewNeighbors.size());
      std::set_difference(LoserAdjList.begin(), LoserAdjList.end(),
                          NewNeighbors.begin(), NewNeighbors.end(),
                          std::back_inserter(Commons));
    }

    // Relink the loser's neighbors: drop Loser everywhere, add Root where
    // it was not already adjacent. canMerge guarantees Root is not in the
    // loser's row.
    for (unsigned X : LoserAdjList) {
      [[maybe_unused]] bool Erased = ClassArena.erase(X, Loser);
      assert(Erased && "asymmetric class adjacency");
    }
    for (unsigned X : NewNeighbors)
      ClassArena.insert(X, Root);
    ClassArena.mergeSorted(Root, NewNeighbors);
    ClassArena.clearRow(Loser);

    if (CacheK) {
      // Mirror the relink on whatever tiled rows exist, keeping every
      // built row equal to its CSR row. The loser's own tiles freeze with
      // its frozen SigCount when speculating (rollback revives them as
      // they stand); a committed merge releases the storage.
      for (unsigned X : LoserAdjList)
        Tiles.clearIfBuilt(X, Loser);
      for (unsigned X : NewNeighbors)
        Tiles.setIfBuilt(X, Root);
      if (Tiles.built(Root))
        for (unsigned X : NewNeighbors)
          Tiles.set(Root, X);
      if (Marks.empty())
        Tiles.releaseRow(Loser);
    }
  }

  unsigned RootMembersBefore = static_cast<unsigned>(Members[Root].size());
  for (unsigned M : Members[Loser])
    Rep[M] = Root;
  Members[Root].insert(Members[Root].end(), Members[Loser].begin(),
                       Members[Loser].end());
  --NumClasses;

  if (NeedCommons) {
    if (CacheK)
      updateDegreeCache(Root, Loser, LoserAdjList, NewNeighbors, Commons,
                        /*Undo=*/false);
    if (Observer)
      Observer->onMergeTouched(Root, Loser, Commons);
  }

  if (!Marks.empty()) {
    // Speculating: park the loser's adjacency in the undo-log so rollback
    // can restore it without rebuilding.
    MergeRecord Rec;
    Rec.Root = Root;
    Rec.Loser = Loser;
    Rec.RootMembersBefore = RootMembersBefore;
    Rec.RankBumped = RankBumped;
    Rec.LoserAdj = std::move(LoserAdjList);
    Rec.LoserMembers = std::move(Members[Loser]);
    Rec.NewRootNeighbors = std::move(NewNeighbors);
    if (Dense)
      ClassAdj[Loser].clear();
    Members[Loser].clear();
    UndoLog.push_back(std::move(Rec));
  } else {
    // Committed for good: release the loser's storage instead of leaving
    // it alive for the rest of the run.
    if (Dense)
      std::vector<unsigned>().swap(ClassAdj[Loser]);
    std::vector<unsigned>().swap(Members[Loser]);
  }

  note(EngineEvent::MergeCommitted, Root, Loser);
  return Root;
}

void WorkGraph::undoMerge(MergeRecord &Rec) {
  unsigned Root = Rec.Root, Loser = Rec.Loser;
  if (Rec.RankBumped)
    --Rank[Root];

  std::vector<unsigned> Commons;
  if (CacheK) {
    Commons.reserve(Rec.LoserAdj.size() - Rec.NewRootNeighbors.size());
    std::set_difference(Rec.LoserAdj.begin(), Rec.LoserAdj.end(),
                        Rec.NewRootNeighbors.begin(),
                        Rec.NewRootNeighbors.end(),
                        std::back_inserter(Commons));
  }
  if (CacheK) {
    // Reverse the cache deltas while degrees and rows still reflect the
    // post-merge state the deltas were computed against.
    updateDegreeCache(Root, Loser, Rec.LoserAdj, Rec.NewRootNeighbors,
                      Commons, /*Undo=*/true);
  }

  Members[Root].resize(Rec.RootMembersBefore);
  Members[Loser] = std::move(Rec.LoserMembers);
  for (unsigned M : Members[Loser])
    Rep[M] = Loser;

  if (Dense) {
    // Take back the root-side bits the merge added, revive the loser's
    // row and column, and restore the degree deltas. Commons =
    // LoserAdj \ NewRootNeighbors, both sorted ascending, the latter a
    // subset of the former — walked inline without materializing.
    uint64_t *RRoot = ClassEdges.row(Root);
    const unsigned RootWord = Root >> 6;
    const uint64_t RootMask = ~(uint64_t(1) << (Root & 63));
    for (unsigned X : Rec.NewRootNeighbors) {
      RRoot[X >> 6] &= ~(uint64_t(1) << (X & 63));
      ClassEdges.row(X)[RootWord] &= RootMask;
    }
    uint64_t *RLoser = ClassEdges.row(Loser);
    const unsigned LoserWord = Loser >> 6;
    const uint64_t LoserBit = uint64_t(1) << (Loser & 63);
    auto It = Rec.NewRootNeighbors.begin();
    auto End = Rec.NewRootNeighbors.end();
    for (unsigned X : Rec.LoserAdj) {
      RLoser[X >> 6] |= uint64_t(1) << (X & 63);
      ClassEdges.row(X)[LoserWord] |= LoserBit;
      AdjStamp[X] = 0;
      if (It != End && *It == X) {
        ++It;
        continue;
      }
      ++Deg[X];
    }
    Deg[Root] -= static_cast<unsigned>(Rec.NewRootNeighbors.size());
    AdjStamp[Root] = 0;
    // The recorded list is exactly the revived row (sorted), so the
    // loser's materialization comes back valid for free.
    ClassAdj[Loser] = std::move(Rec.LoserAdj);
    AdjStamp[Loser] = 1;
  } else {
    // Undo the adjacency relink: take back the root-side entries the merge
    // added, then revive the loser's row from the record.
    for (unsigned X : Rec.NewRootNeighbors) {
      [[maybe_unused]] bool Erased = ClassArena.erase(X, Root);
      assert(Erased && "undo of unrecorded neighbor");
    }
    ClassArena.removeSorted(Root, Rec.NewRootNeighbors);
    ClassArena.assignRow(Loser, Rec.LoserAdj);
    for (unsigned X : Rec.LoserAdj)
      ClassArena.insert(X, Loser);

    if (CacheK) {
      // The exact reverse of the merge-side tile maintenance. This also
      // holds for rows tiled only after the merge: they were built from
      // the post-merge CSR state, and these ops map post-merge to
      // pre-merge. The loser's frozen tiles (if any) are correct again
      // the moment its row revives.
      if (Tiles.built(Root))
        for (unsigned X : Rec.NewRootNeighbors)
          Tiles.clear(Root, X);
      for (unsigned X : Rec.NewRootNeighbors)
        Tiles.clearIfBuilt(X, Root);
      for (unsigned X : Rec.LoserAdj)
        Tiles.setIfBuilt(X, Loser);
    }
  }

  ++NumClasses;
  note(EngineEvent::MergeRolledBack, Root, Loser);
}

WorkGraph::Checkpoint WorkGraph::checkpoint() {
  if (Cancel)
    Cancel->poll();
  Marks.push_back(UndoLog.size());
  note(EngineEvent::CheckpointTaken);
  return UndoLog.size();
}

void WorkGraph::rollback() {
  assert(!Marks.empty() && "rollback without an active checkpoint");
  size_t Target = Marks.back();
  Marks.pop_back();
  while (UndoLog.size() > Target) {
    undoMerge(UndoLog.back());
    UndoLog.pop_back();
  }
  note(EngineEvent::RollbackPerformed);
}

void WorkGraph::rollbackTo(Checkpoint C) {
  assert(!Marks.empty() && Marks.front() <= C &&
         "rolling back past every active checkpoint");
  while (!Marks.empty() && Marks.back() > C)
    Marks.pop_back();
  while (UndoLog.size() > C) {
    undoMerge(UndoLog.back());
    UndoLog.pop_back();
  }
  note(EngineEvent::RollbackPerformed);
}

void WorkGraph::commit() {
  assert(!Marks.empty() && "commit without an active checkpoint");
  Marks.pop_back();
  if (Marks.empty()) {
    // The parked losers are now dead for good; drop their frozen tiles
    // along with the undo-log.
    if (!Dense && CacheK)
      for (const MergeRecord &Rec : UndoLog)
        Tiles.releaseRow(Rec.Loser);
    UndoLog.clear();
    UndoLog.shrink_to_fit();
  }
}

CoalescingSolution WorkGraph::solution() const {
  CoalescingSolution S = solutionFromLabels(Rep);
  assert(S.NumClasses == NumClasses && "class count out of sync");
  return S;
}

Graph WorkGraph::quotientGraph() const {
  CoalescingSolution S = solution();
  return Original.quotient(S.ClassIds, S.NumClasses);
}

bool WorkGraph::quotientGreedyKColorable(
    unsigned K, std::vector<unsigned> *StuckReps) const {
  if (Cancel)
    Cancel->poll();
  note(EngineEvent::ColorabilityCheck);
  ScopedMicros Timer(Telemetry ? &Telemetry->ColorabilityMicros : nullptr);

  // Greedy elimination (empty-k-core test, Section 2.2) directly over the
  // class adjacency: repeatedly remove classes of degree < k. The result
  // is elimination-order independent, so it equals running greedyEliminate
  // on a materialized quotient.
  unsigned N = numOriginalVertices();
  std::vector<unsigned> DegLeft(N, 0);
  std::vector<bool> Removed(N, true);
  std::vector<unsigned> Queue;
  for (unsigned V = 0; V < N; ++V) {
    if (Rep[V] != V)
      continue;
    Removed[V] = false;
    DegLeft[V] = classDegree(V);
    if (DegLeft[V] < K)
      Queue.push_back(V);
  }
  unsigned Eliminated = 0;
  while (!Queue.empty()) {
    unsigned V = Queue.back();
    Queue.pop_back();
    if (Removed[V])
      continue;
    Removed[V] = true;
    ++Eliminated;
    // In dense mode this rides the lazy neighbor-list cache: repeated
    // colorability checks (brute-force probing) re-materialize only the
    // lists a merge invalidated, and iterate warm contiguous vectors
    // everywhere else.
    VertexSpan Nbrs =
        Dense ? VertexSpan(materializedNeighbors(V)) : ClassArena.row(V);
    for (unsigned W : Nbrs) {
      if (Removed[W])
        continue;
      if (DegLeft[W]-- == K)
        Queue.push_back(W);
    }
  }
  if (StuckReps) {
    StuckReps->clear();
    if (Eliminated != NumClasses)
      for (unsigned V = 0; V < N; ++V)
        if (Rep[V] == V && !Removed[V])
          StuckReps->push_back(V);
  }
  return Eliminated == NumClasses;
}

bool WorkGraph::mergedQuotientGreedyKColorable(
    unsigned C, unsigned K, std::vector<unsigned> *StuckReps) const {
  assert(CacheK == K && "the local check reads the degree cache at K");
  assert(Rep[C] == C && "the merged class must be a representative");
  if (Cancel)
    Cancel->poll();
  note(EngineEvent::ColorabilityCheck);
  ScopedMicros Timer(Telemetry ? &Telemetry->ColorabilityMicros : nullptr);
  if (StuckReps)
    StuckReps->clear();

  // A k-core class has degree >= K (the significance mask) and at least K
  // significant neighbors; anything else falls in the first two rounds of
  // any elimination. If C itself falls there the k-core, which would
  // contain C, is empty.
  auto Bit = [](unsigned X) { return uint64_t(1) << (X & 63); };
  if (!(SigWords[C >> 6] & Bit(C)) || significantNeighbors(C) < K)
    return true;

  // The scratch masks hold only bits of the classes the previous call
  // touched, so zeroing those classes' words clears them exactly.
  const size_t Words = SigWords.size();
  if (LocalSeen.size() != Words) {
    LocalSeen.assign(Words, 0);
    LocalIn.assign(Words, 0);
    LocalDeg.assign(numOriginalVertices(), 0);
    LocalTouched.clear();
  }
  for (unsigned X : LocalTouched)
    LocalSeen[X >> 6] = LocalIn[X >> 6] = 0;
  LocalTouched.clear();
  LocalComp.clear();
  auto classify = [&](unsigned W, bool Candidate) {
    LocalSeen[W >> 6] |= Bit(W);
    LocalTouched.push_back(W);
    if (Candidate) {
      LocalIn[W >> 6] |= Bit(W);
      LocalComp.push_back(W);
    }
  };
  classify(C, true);

  // Breadth-first over the candidates reachable from C, classifying each
  // significant neighbor once and recording every component class's
  // in-component degree (a candidate neighbor of a component class is in
  // the component). C's own count is the third screening round: fewer
  // than K candidate neighbors and C peels, so the merge passes.
  for (size_t I = 0; I < LocalComp.size(); ++I) {
    unsigned X = LocalComp[I];
    unsigned InDeg = 0;
    if (Dense) {
      // Word-parallel over the matrix row: only unclassified neighbors are
      // visited one by one.
      const uint64_t *R = ClassEdges.row(X);
      for (size_t W = 0; W < Words; ++W) {
        uint64_t Sig = R[W] & SigWords[W];
        for (uint64_t B = Sig & ~LocalSeen[W]; B; B &= B - 1) {
          unsigned Y = static_cast<unsigned>(W * 64 + std::countr_zero(B));
          classify(Y, significantNeighbors(Y) >= K);
        }
        InDeg += static_cast<unsigned>(std::popcount(Sig & LocalIn[W]));
      }
    } else {
      // Branch-light: most neighbors are classified already, and the
      // in-component count needs no significance test (LocalIn is a
      // subset of the significant classes).
      for (unsigned Y : ClassArena.row(X)) {
        if (SigWords[Y >> 6] & ~LocalSeen[Y >> 6] & Bit(Y))
          classify(Y, significantNeighbors(Y) >= K);
        InDeg += static_cast<unsigned>((LocalIn[Y >> 6] >> (Y & 63)) & 1);
      }
    }
    LocalDeg[X] = InDeg;
    if (I == 0 && InDeg < K)
      return true;
  }

  // The k-core lies inside the component, so peeling the component alone
  // finds it exactly. Once C peels, the k-core is empty.
  LocalQueue.clear();
  for (unsigned X : LocalComp)
    if (LocalDeg[X] < K)
      LocalQueue.push_back(X);
  auto dropNeighbor = [&](unsigned W) {
    if (LocalDeg[W]-- == K)
      LocalQueue.push_back(W);
  };
  while (!LocalQueue.empty()) {
    unsigned X = LocalQueue.back();
    LocalQueue.pop_back();
    if (X == C)
      return true;
    LocalIn[X >> 6] &= ~Bit(X);
    if (Dense) {
      const uint64_t *R = ClassEdges.row(X);
      for (size_t W = 0; W < Words; ++W)
        for (uint64_t B = R[W] & LocalIn[W]; B; B &= B - 1)
          dropNeighbor(static_cast<unsigned>(W * 64 + std::countr_zero(B)));
    } else {
      for (unsigned Y : ClassArena.row(X))
        if (LocalIn[Y >> 6] & Bit(Y))
          dropNeighbor(Y);
    }
  }
  if (StuckReps) {
    for (unsigned X : LocalComp)
      if (LocalIn[X >> 6] & Bit(X))
        StuckReps->push_back(X);
    std::sort(StuckReps->begin(), StuckReps->end());
  }
  return false;
}
