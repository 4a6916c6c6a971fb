//===- coalescing/WorkGraph.cpp - Unified coalescing merge engine ---------===//

#include "coalescing/WorkGraph.h"

#include <bit>

using namespace rc;

WorkGraph::WorkGraph(const Graph &G, unsigned DenseThreshold)
    : Original(G), Dense(G.numVertices() <= DenseThreshold),
      Rep(G.numVertices()), Rank(G.numVertices(), 0),
      Members(G.numVertices()), NumClasses(G.numVertices()) {
  unsigned N = G.numVertices();
  if (Dense) {
    ClassEdges.reset(N);
    Deg.assign(N, 0);
  } else {
    ClassArena.reset(N);
    ClassArena.reserveEntries(2 * static_cast<size_t>(G.numEdges()));
  }
  for (unsigned V = 0; V < N; ++V) {
    Rep[V] = V;
    Members[V] = {V};
    if (Dense) {
      // Each row is filled from its own full neighbor list — symmetry
      // comes from the input graph, with no scattered column writes.
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

template <typename Visitor>
void WorkGraph::forEachNeighbor(unsigned C, Visitor Visit) const {
  if (Dense) {
    const uint64_t *R = ClassEdges.row(C);
    for (unsigned W = 0; W < ClassEdges.wordsPerRow(); ++W)
      for (uint64_t B = R[W]; B; B &= B - 1)
        Visit(W * 64 + static_cast<unsigned>(std::countr_zero(B)));
  } else {
    for (unsigned X : ClassArena.row(C))
      Visit(X);
  }
}

void WorkGraph::enableDegreeCache(unsigned K) {
  assert(K > 0 && "degree cache needs a positive k");
  CacheK = K;
  unsigned N = numOriginalVertices();
  SigCount.assign(N, 0);
  SigWords.assign((static_cast<size_t>(N) + 63) / 64, 0);
  ExactKWords.assign((static_cast<size_t>(N) + 63) / 64, 0);
  // Each significant class counts itself into its neighbors' counters, so
  // only the (usually few) rows of significant classes are walked. While
  // every class is a singleton its row is the input graph's sorted list,
  // which is cheaper to walk than a bit row.
  const bool Singletons = NumClasses == N;
  for (unsigned V = 0; V < N; ++V) {
    if (Rep[V] != V)
      continue;
    setDegreeBits(V, classDegree(V));
    if (classDegree(V) < K)
      continue;
    if (Singletons) {
      for (unsigned X : Original.neighbors(V))
        ++SigCount[X];
    } else {
      forEachNeighbor(V, [this](unsigned X) { ++SigCount[X]; });
    }
  }
}

template <typename Visitor>
bool WorkGraph::forEachBriggsBlockerSparse(unsigned CU, unsigned CV,
                                           Visitor Visit) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  auto SigBit = [this](unsigned C) {
    return (SigWords[C >> 6] >> (C & 63)) & 1;
  };
  auto ExactKBit = [this](unsigned C) {
    return (ExactKWords[C >> 6] >> (C & 63)) & 1;
  };
  // One merge-walk over the two sorted rows: commons fall out of the
  // comparison, so nothing is stamped up front and a stopped walk has paid
  // only for the entries it saw.
  VertexSpan RU = ClassArena.row(CU), RV = ClassArena.row(CV);
  const unsigned *PU = RU.begin(), *EU = RU.end();
  const unsigned *PV = RV.begin(), *EV = RV.end();
  while (PU != EU || PV != EV) {
    unsigned NU = PU != EU ? *PU : ~0u;
    unsigned NV = PV != EV ? *PV : ~0u;
    if (NU < NV) {
      if (NU != CV && SigBit(NU) && Visit(NU))
        return true;
      ++PU;
    } else if (NV < NU) {
      if (NV != CU && SigBit(NV) && Visit(NV))
        return true;
      ++PV;
    } else {
      // A common neighbor loses one degree in the merge: it stays high
      // only above K, i.e. significant but not exactly K. (Commons are
      // never the endpoints — no row contains its own class.)
      if (SigBit(NU) && !ExactKBit(NU) && Visit(NU))
        return true;
      ++PU;
      ++PV;
    }
  }
  return false;
}

template <typename Visitor>
bool WorkGraph::forEachGeorgeWitnessSparse(unsigned CU, unsigned CV,
                                           Visitor Visit) const {
  assert(!Dense && CacheK && "needs sparse adjacency and an enabled cache");
  // Both rows are sorted, so CV-membership of CU's significant neighbors
  // is a resumable forward probe — no stamping, and a stopped walk has
  // touched only the prefix before it.
  VertexSpan RV = ClassArena.row(CV);
  const unsigned *PV = RV.begin(), *EV = RV.end();
  for (unsigned N : ClassArena.row(CU)) {
    if (N == CV || !((SigWords[N >> 6] >> (N & 63)) & 1))
      continue;
    while (PV != EV && *PV < N)
      ++PV;
    if ((PV == EV || *PV != N) && Visit(N))
      return true;
  }
  return false;
}

bool WorkGraph::briggsSafe(unsigned CU, unsigned CV) const {
  assert(CacheK && "the safety tests read the degree cache");
  assert(CU != CV && "testing a merge of one class with itself");
  const unsigned K = CacheK;
  // The high-degree count is at most SU + SV (overlap corrections only
  // shrink it), so the test passes without looking at any neighbor.
  if (SigCount[CU] + SigCount[CV] < K)
    return true;
  if (Dense) {
    // The sweep counts interfering endpoints themselves when they are
    // significant, so the bar is raised to compensate.
    unsigned Limit = K;
    if (ClassEdges.test(CU, CV))
      Limit += (Deg[CU] >= K) + (Deg[CV] >= K);
    return briggsHighDegreeBelow(CU, CV, Limit);
  }
  // The walk skips the endpoints, so the limit needs no adjacency
  // correction.
  unsigned High = 0;
  return !forEachBriggsBlockerSparse(CU, CV,
                                     [&](unsigned) { return ++High >= K; });
}

bool WorkGraph::georgeSafe(unsigned CU, unsigned CV) const {
  assert(CacheK && "the safety tests read the degree cache");
  assert(CU != CV && "testing a merge of one class with itself");
  // Free pass when CU has no significant neighbor besides CV.
  unsigned SU = SigCount[CU];
  if (classDegree(CV) >= CacheK && classesAdjacent(CU, CV))
    --SU;
  if (SU == 0)
    return true;
  if (Dense)
    return georgeWitnessesEmpty(CU, CV);
  return !forEachGeorgeWitnessSparse(CU, CV, [](unsigned) { return true; });
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

void WorkGraph::appendBriggsHighDegreeSparse(unsigned CU, unsigned CV,
                                             std::vector<unsigned> &Out) const {
  forEachBriggsBlockerSparse(CU, CV, [&Out](unsigned X) {
    Out.push_back(X);
    return false;
  });
}

void WorkGraph::appendGeorgeWitnessesSparse(unsigned CU, unsigned CV,
                                            std::vector<unsigned> &Out) const {
  forEachGeorgeWitnessSparse(CU, CV, [&Out](unsigned X) {
    Out.push_back(X);
    return false;
  });
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
      forEachNeighbor(Root, [&](unsigned X) { SigCount[X] += D; });
    } else {
      for (unsigned X : NewNeighbors)
        SigCount[X] += D;
    }
  }

  // The root gains the significant among its new neighbors (their degrees
  // are unchanged by the merge: they swapped Loser for Root). Counted
  // without a branch: the outcome is a coin flip per neighbor.
  unsigned Gained = 0;
  for (unsigned X : NewNeighbors)
    Gained += classDegree(X) >= K;
  SigCount[Root] += Gained * D;

  // Common neighbors lost one degree. A common that was exactly at K
  // flipped to insignificant for its whole (post-merge) neighborhood.
  for (unsigned X : Commons) {
    if (classDegree(X) == K - 1)
      forEachNeighbor(X, [&](unsigned Y) { SigCount[Y] -= D; });
  }

  // SigCount[Loser] is deliberately left at its pre-merge value: the class
  // is dead, and exact LIFO rollback makes the frozen value correct again
  // the moment the class revives.

  // A one-step degree change flips a class's mask bits only when it
  // straddles the significance or exactly-K thresholds. Bit updates depend
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
    LoserAdjList.reserve(Deg[Loser]);
    NewNeighbors.reserve(Deg[Loser]);
    if (NeedCommons)
      Commons.reserve(Deg[Loser]);
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
    // Column-side maintenance only: the root's row already took every
    // loser neighbor via the word-wise OR above, and the loser's row is
    // zeroed wholesale below.
    const unsigned LoserWord = Loser >> 6;
    const uint64_t LoserMask = ~(uint64_t(1) << (Loser & 63));
    for (unsigned X : LoserAdjList)
      ClassEdges.row(X)[LoserWord] &= LoserMask;
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
    Members[Loser].clear();
    UndoLog.push_back(std::move(Rec));
  } else {
    // Committed for good: release the loser's storage instead of leaving
    // it alive for the rest of the run.
    std::vector<unsigned>().swap(Members[Loser]);
  }

  note(EngineEvent::MergeCommitted);
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
      if (It != End && *It == X) {
        ++It;
        continue;
      }
      ++Deg[X];
    }
    Deg[Root] -= static_cast<unsigned>(Rec.NewRootNeighbors.size());
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
  }

  ++NumClasses;
  note(EngineEvent::MergeRolledBack);
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
    forEachNeighbor(V, [&](unsigned W) {
      if (!Removed[W] && DegLeft[W]-- == K)
        Queue.push_back(W);
    });
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
  // significant neighbors — a candidate; anything else falls in the first
  // two rounds of any elimination. If C itself falls there the k-core,
  // which would contain C, is empty.
  auto Bit = [](unsigned X) { return uint64_t(1) << (X & 63); };
  if (!(SigWords[C >> 6] & Bit(C)) || SigCount[C] < K)
    return true;

  // The scratch masks hold only bits of the classes the previous call
  // touched, so zeroing those classes' words clears them exactly.
  const size_t Words = SigWords.size();
  if (LocalSeen.size() != Words) {
    LocalSeen.assign(Words, 0);
    LocalIn.assign(Words, 0);
    LocalWalked.assign(Words, 0);
    LocalDeg.assign(numOriginalVertices(), 0);
    LocalTouched.clear();
  }
  for (unsigned X : LocalTouched)
    LocalSeen[X >> 6] = LocalIn[X >> 6] = LocalWalked[X >> 6] = 0;
  LocalTouched.clear();
  LocalComp.clear();
  auto classify = [&](unsigned W) {
    LocalSeen[W >> 6] |= Bit(W);
    LocalTouched.push_back(W);
    if (SigCount[W] >= K) {
      LocalIn[W >> 6] |= Bit(W);
      LocalComp.push_back(W);
    }
  };
  classify(C);

  // Peels \p X and cascades: every walked, unpeeled neighbor loses one
  // unpeeled candidate neighbor and peels in turn when that leaves it
  // below K. Candidates not walked yet are recounted by their own walk.
  // Returns true once C peels, which empties the k-core.
  auto peel = [&](unsigned X) {
    LocalQueue.clear();
    LocalQueue.push_back(X);
    while (!LocalQueue.empty()) {
      unsigned Y = LocalQueue.back();
      LocalQueue.pop_back();
      if (Y == C)
        return true;
      LocalIn[Y >> 6] &= ~Bit(Y);
      auto dropNeighbor = [&](unsigned Z) {
        if (LocalDeg[Z]-- == K)
          LocalQueue.push_back(Z);
      };
      if (Dense) {
        const uint64_t *R = ClassEdges.row(Y);
        for (size_t W = 0; W < Words; ++W)
          for (uint64_t B = R[W] & LocalIn[W] & LocalWalked[W]; B;
               B &= B - 1)
            dropNeighbor(static_cast<unsigned>(W * 64 + std::countr_zero(B)));
      } else {
        for (unsigned Z : ClassArena.row(Y))
          if (LocalIn[Z >> 6] & LocalWalked[Z >> 6] & Bit(Z))
            dropNeighbor(Z);
      }
    }
    return false;
  };

  // Breadth-first over the candidates reachable from C, classifying each
  // significant neighbor once. A class's count of unpeeled candidate
  // neighbors is complete when its walk ends, since every candidate
  // neighbor is classified by then; below K, the class peels at once.
  // C's own walk is the third screening round.
  for (size_t I = 0; I < LocalComp.size(); ++I) {
    unsigned X = LocalComp[I];
    assert((LocalIn[X >> 6] & Bit(X)) && "an unwalked candidate peeled");
    unsigned InDeg = 0;
    if (Dense) {
      // Word-parallel over the matrix row: only unclassified neighbors are
      // visited one by one.
      const uint64_t *R = ClassEdges.row(X);
      for (size_t W = 0; W < Words; ++W) {
        uint64_t Sig = R[W] & SigWords[W];
        for (uint64_t B = Sig & ~LocalSeen[W]; B; B &= B - 1)
          classify(static_cast<unsigned>(W * 64 + std::countr_zero(B)));
        // Most words hold no unpeeled candidate and skip the popcount.
        if (uint64_t In = Sig & LocalIn[W])
          InDeg += static_cast<unsigned>(std::popcount(In));
      }
    } else {
      // Branch-light: most neighbors are classified already, and the
      // candidate count needs no significance test (LocalIn is a subset
      // of the significant classes).
      for (unsigned Y : ClassArena.row(X)) {
        if (SigWords[Y >> 6] & ~LocalSeen[Y >> 6] & Bit(Y))
          classify(Y);
        InDeg += static_cast<unsigned>((LocalIn[Y >> 6] >> (Y & 63)) & 1);
      }
    }
    if (InDeg < K) {
      if (peel(X))
        return true;
      continue;
    }
    LocalDeg[X] = InDeg;
    LocalWalked[X >> 6] |= Bit(X);
  }

  // Every candidate of the component was walked, and each unpeeled one
  // keeps K unpeeled neighbors among them: that is the k-core.
  if (StuckReps) {
    for (unsigned X : LocalComp)
      if (LocalIn[X >> 6] & Bit(X))
        StuckReps->push_back(X);
    std::sort(StuckReps->begin(), StuckReps->end());
  }
  return false;
}
