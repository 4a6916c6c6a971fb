//===- coalescing/WorkGraph.h - Unified coalescing merge engine -*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamic view of an interference graph under coalescing merges: classes
/// of merged vertices with class-level adjacency. Every coalescer that asks
/// class-level questions (aggressive, the conservative rules, optimistic
/// de-coalescing, node merging, the exact searches) keeps its classes in
/// one WorkGraph — this is the shared merge engine the Appel–George
/// comparison pays for uniformly. Iterated register coalescing and the
/// Theorem 5 chain driver build none: IRC keeps its classes in Appel's
/// Alias and reads its own adjacency lists (see
/// IteratedRegisterCoalescing.cpp), and the Theorem 5 driver relabels the
/// classes of its quotient graph (see ChordalStrategy.cpp).
///
/// Engine features:
///  - One class adjacency per mode. Up to a size threshold (dense mode;
///    4096 vertices cost two megabytes of matrix) it lives in a row-major
///    BitRows matrix: merges OR the loser's row into the root's and patch
///    the loser's column word-at-a-time, interference tests are O(1) bit
///    probes, the Briggs/George tests are masked word sweeps, and
///    neighbour walks iterate a row's set bits. Above the threshold the
///    sorted rows live in one pooled adjacency arena
///    (support/AdjacencyArena), updated eagerly on every merge; tests
///    binary-search the smaller row, and a Briggs/George test is one
///    merge-walk over the two sorted rows, O(deg(u) + deg(v)) with commons
///    falling out of the comparison.
///  - Merge undo-log. checkpoint()/rollback() bracket speculative merges so
///    probing strategies (brute-force conservative test, exact branch and
///    bound, optimistic de-coalescing) no longer deep-copy the graph.
///  - Degree cache. enableDegreeCache(k) maintains, through every merge and
///    rollback and in both adjacency modes, the number of significant
///    neighbor classes (degree >= k) of each class, plus bit masks of the
///    significant and exactly-k classes. The Briggs and George safety tests
///    and the local colorability check read these instead of re-walking
///    and re-probing neighbor sets.
///  - Greedy-k-colorability checks. quotientGreedyKColorable peels the
///    whole quotient; mergedQuotientGreedyKColorable decides a speculative
///    merge from the merged class's k-core neighbourhood, peeling as it
///    explores, when the quotient before it is known to be
///    greedy-k-colorable.
///  - Instrumentation. An optional CoalescingTelemetry sink counts engine
///    events (merges, rollbacks, interference queries, colorability
///    checks); an optional EngineObserver sees, per committed merge, the
///    set of classes the merge touched (the incremental conservative
///    driver's reactivation source).
///
/// Class representatives follow union by rank (higher rank wins; ties keep
/// the first argument and bump its rank), so a partition's representatives
/// — and rep-order-sensitive tie-breaks in drivers — depend only on the
/// merge sequence.
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_WORKGRAPH_H
#define COALESCING_WORKGRAPH_H

#include "coalescing/Problem.h"
#include "coalescing/Telemetry.h"
#include "graph/Graph.h"
#include "support/AdjacencyArena.h"
#include "support/BitRows.h"
#include "support/CancelToken.h"
#include "support/VertexSpan.h"

#include <algorithm>
#include <vector>

namespace rc {

/// An interference graph whose vertices can be merged (coalesced). Classes
/// are named by a representative original vertex.
class WorkGraph {
public:
  /// Largest vertex count that keeps the dense class-pair bit rows (4096
  /// vertices cost two megabytes of matrix).
  static constexpr unsigned DefaultDenseThreshold = 4096;

  /// Keeps the dense class-pair bit rows up to \p DenseThreshold vertices.
  explicit WorkGraph(const Graph &G,
                     unsigned DenseThreshold = DefaultDenseThreshold);

  WorkGraph(const WorkGraph &) = default;
  WorkGraph &operator=(const WorkGraph &) = delete;

  /// Number of original vertices.
  unsigned numOriginalVertices() const { return Original.numVertices(); }

  /// Number of current classes.
  unsigned numClasses() const { return NumClasses; }

  /// True when the dense class-pair bit rows are active.
  bool usesDenseAdjacency() const { return Dense; }

  /// Returns the class representative of original vertex \p V.
  unsigned classOf(unsigned V) const { return Rep[V]; }

  /// Returns true if \p U and \p V have been merged.
  bool sameClass(unsigned U, unsigned V) const { return Rep[U] == Rep[V]; }

  /// Returns true if the classes of \p U and \p V interfere.
  bool interfere(unsigned U, unsigned V) const {
    note(EngineEvent::InterferenceQuery);
    return classesAdjacent(Rep[U], Rep[V]);
  }

  /// Returns true if classes \p CU and \p CV (representatives) interfere.
  /// Not an event source — drivers and tests may probe freely.
  bool classesAdjacent(unsigned CU, unsigned CV) const {
    if (CU == CV)
      return false;
    if (Dense)
      return ClassEdges.test(CU, CV);
    return ClassArena.rowSize(CU) <= ClassArena.rowSize(CV)
               ? ClassArena.contains(CU, CV)
               : ClassArena.contains(CV, CU);
  }

  /// Number of interfering neighbor classes of the class of \p V
  /// (maintained incrementally in both adjacency modes).
  unsigned degree(unsigned V) const {
    unsigned C = Rep[V];
    return Dense ? Deg[C] : ClassArena.rowSize(C);
  }

  /// Original vertices in the class of \p V.
  const std::vector<unsigned> &members(unsigned V) const {
    return Members[Rep[V]];
  }

  /// Returns true if \p U and \p V may be merged (distinct, non-interfering
  /// classes).
  bool canMerge(unsigned U, unsigned V) const {
    return !sameClass(U, V) && !classesAdjacent(Rep[U], Rep[V]);
  }

  /// Merges the classes of \p U and \p V. Requires canMerge.
  /// \returns the representative of the merged class.
  unsigned merge(unsigned U, unsigned V);

  // --- Degree cache ------------------------------------------------------

  /// Starts maintaining significance state for \p K in both adjacency
  /// modes: bit masks of the significant (degree >= \p K) and exactly-K
  /// classes, plus a per-class count of significant neighbors. The cache
  /// is updated inside merge() and its undo, so briggsSafe/georgeSafe read
  /// masked popcounts (or counters) instead of probing neighbor sets, and
  /// significantNeighbors is one load. Must not be enabled while
  /// merges that predate the call are still subject to rollback (enable
  /// right after construction, or after the last checkpoint that could
  /// unwind earlier merges has been committed). Re-enabling with a
  /// different K rebuilds the cache.
  void enableDegreeCache(unsigned K);

  /// The K the degree cache maintains; 0 when disabled.
  unsigned degreeCacheK() const { return CacheK; }

  /// Number of significant neighbor classes (degree >= the cache K) of
  /// class \p C (a representative): the incrementally maintained counter,
  /// in both modes. Requires an enabled cache.
  unsigned significantNeighbors(unsigned C) const {
    assert(CacheK && "degree cache is not enabled");
    return SigCount[C];
  }

  /// Briggs' test for merging classes \p CU and \p CV (representatives)
  /// at the cache K: true iff fewer than K neighbor classes of the merged
  /// class keep degree >= K. A common neighbor loses one degree in the
  /// merge and is counted once; the endpoints themselves are never
  /// counted. Requires an enabled cache. Passes for free when the two
  /// classes' significant-neighbor counters sum below K; otherwise dense
  /// mode answers with one masked word sweep and sparse mode merge-walks
  /// the sorted rows (forEachBriggsBlockerSparse). Both paths give the
  /// same answer.
  bool briggsSafe(unsigned CU, unsigned CV) const;

  /// George's test for merging class \p CU into \p CV at the cache K:
  /// true iff every significant neighbor class of \p CU other than \p CV
  /// is adjacent to \p CV. Asymmetric. Requires an enabled cache; same
  /// representation dispatch as briggsSafe, with a free pass when \p CU
  /// has no significant neighbor besides \p CV.
  bool georgeSafe(unsigned CU, unsigned CV) const;

  /// Sparse cached mode: appends the Briggs blockers for a merge of \p CU
  /// and \p CV — the neighbor classes still significant after the merge —
  /// in ascending class order: briggsSafe's merge-walk, run to the end.
  /// The conservative driver's sparse watch set for a rejected affinity.
  void appendBriggsHighDegreeSparse(unsigned CU, unsigned CV,
                                    std::vector<unsigned> &Out) const;

  /// Sparse cached mode: appends every George witness for merging \p CU
  /// into \p CV — significant neighbors of \p CU outside \p CV's
  /// neighborhood — in \p CU's row order: georgeSafe's walk, run to the
  /// end.
  void appendGeorgeWitnessesSparse(unsigned CU, unsigned CV,
                                   std::vector<unsigned> &Out) const;

  /// Dense mode: number of 64-bit words in a class bitmask row (for
  /// callers holding watch sets as masks).
  unsigned maskWords() const {
    assert(Dense && "bitmask rows exist only in dense mode");
    return ClassEdges.wordsPerRow();
  }

  /// Dense mode with an enabled cache: OR the Briggs blockers (the
  /// neighbor classes still significant after a merge of \p CU and \p CV)
  /// resp. the George witnesses against merging \p CU into \p CV into
  /// \p Out (maskWords() words) — the dense counterparts of the append
  /// forms above, without materializing class ids: O(words) stores
  /// instead of one push per blocker. Unlike the append forms, the
  /// endpoint bits are not masked out; callers watch the endpoints anyway.
  void briggsWatchWords(unsigned CU, unsigned CV, uint64_t *Out) const;
  void georgeWatchWords(unsigned CU, unsigned CV, uint64_t *Out) const;

  // --- Speculation -------------------------------------------------------

  /// A position in the merge undo-log.
  using Checkpoint = size_t;

  /// Marks the current state. While at least one checkpoint is active,
  /// merges are recorded in the undo-log (and the loser's storage is
  /// retained for restoration instead of being released).
  Checkpoint checkpoint();

  /// Undoes all merges since the most recent checkpoint and deactivates it.
  void rollback();

  /// Undoes all merges back to \p C. Checkpoints taken after \p C are
  /// deactivated; the checkpoint that produced \p C stays active, so the
  /// caller can keep merging and roll back to it again.
  void rollbackTo(Checkpoint C);

  /// Deactivates the most recent checkpoint, keeping all merges. When no
  /// checkpoint remains active the undo-log is discarded.
  void commit();

  // --- Extraction --------------------------------------------------------

  /// Extracts the current partition as a CoalescingSolution (dense class
  /// ids in order of first appearance by vertex id).
  CoalescingSolution solution() const;

  /// Materializes the current quotient graph. Class c of the quotient is
  /// the class with dense id c in solution().
  Graph quotientGraph() const;

  /// Returns true if the current quotient graph is greedy-k-colorable,
  /// computed in-engine (k-core elimination over the class adjacency)
  /// without materializing the quotient. Equivalent to
  /// isGreedyKColorable(quotientGraph(), K) — greedy elimination is
  /// order-independent. When \p StuckReps is non-null it receives the
  /// representatives of the classes left stuck (the unique maximal k-core;
  /// empty on success), sorted ascending.
  bool quotientGreedyKColorable(unsigned K,
                                std::vector<unsigned> *StuckReps =
                                    nullptr) const;

  /// The local form of quotientGreedyKColorable for a state one merge past
  /// a greedy-k-colorable quotient: \p C is the merged class (a
  /// representative). Precondition: the quotient before the merge that
  /// produced \p C was greedy-k-colorable. The merge changes no edge
  /// between other classes, so every component of the post-merge k-core
  /// that avoids \p C was already a k-core before it; the k-core is
  /// therefore empty or connected and containing \p C. A k-core class has
  /// degree >= K and >= K significant neighbors (a candidate), so the
  /// check
  ///  1. passes when \p C is no candidate or fewer than K of its neighbors
  ///     are (one walk of \p C's row against the cached degree state), and
  ///     otherwise
  ///  2. walks the candidate component of \p C breadth-first, peeling as
  ///     it goes: a walked class with fewer than K unpeeled candidate
  ///     neighbors peels at once, and its peel cascades into the classes
  ///     walked before it. The check passes the moment \p C peels; when
  ///     the component is exhausted first, the unpeeled classes are the
  ///     k-core.
  /// Returns the same decision and the same sorted \p StuckReps as the
  /// whole-quotient check, and counts and times as one colorability
  /// check. Requires the degree cache enabled at \p K.
  bool mergedQuotientGreedyKColorable(unsigned C, unsigned K,
                                      std::vector<unsigned> *StuckReps =
                                          nullptr) const;

  // --- Cancellation ------------------------------------------------------

  /// Attaches (or detaches, with null) a cooperative cancellation token.
  /// The engine polls it at its natural work boundaries — every merge(),
  /// checkpoint() and quotientGreedyKColorable() — so drivers only need to
  /// read cancelRequested() at their loop heads. The engine itself never
  /// aborts: merges and rollbacks always complete, keeping the graph
  /// consistent; stopping is the driver's job.
  void setCancelToken(const CancelToken *C) { Cancel = C; }

  /// True once the attached token has expired. One relaxed atomic load
  /// (plus a null test); safe in hot loops.
  bool cancelRequested() const { return Cancel && Cancel->expired(); }

  // --- Instrumentation ---------------------------------------------------

  /// Attaches (or detaches, with null) a telemetry counter sink.
  void attachTelemetry(CoalescingTelemetry *T) { Telemetry = T; }

  /// Attaches (or detaches, with null) a committed-merge observer.
  void setObserver(EngineObserver *O) { Observer = O; }

  /// Counts one event into the attached telemetry. Drivers use this to
  /// report decisions (test outcomes, de-coalesces) through the engine's
  /// sink.
  void note(EngineEvent E) const {
    if (Telemetry)
      Telemetry->count(E);
  }

private:
  /// Everything needed to undo one merge. The loser's adjacency and member
  /// storage are moved here, so rollback restores them without rebuilding.
  struct MergeRecord {
    unsigned Root = 0;
    unsigned Loser = 0;
    /// Members[Root].size() before the splice.
    unsigned RootMembersBefore = 0;
    /// True when the merge bumped Rank[Root] (equal-rank tie).
    bool RankBumped = false;
    std::vector<unsigned> LoserAdj;
    std::vector<unsigned> LoserMembers;
    /// Loser neighbors that were not already Root neighbors (sorted).
    std::vector<unsigned> NewRootNeighbors;
  };

  void undoMerge(MergeRecord &Rec);

  /// Dense mode with an enabled cache: true iff the Briggs high-degree
  /// count for a merge of \p CU and \p CV stays below \p Limit. The count
  /// is one fused sweep — significant neighbors of the union minus commons
  /// at exactly K, which drop below the bar when the merge takes their
  /// shared neighbor (the exactly-K mask is a subset of the significance
  /// mask, so the subtraction is exact). Adjacent endpoints count
  /// themselves when significant; briggsSafe folds the correction into
  /// \p Limit. Aborts as soon as the count reaches \p Limit.
  bool briggsHighDegreeBelow(unsigned CU, unsigned CV, unsigned Limit) const;

  /// Dense mode with an enabled cache: true iff no significant neighbor of
  /// \p CU (other than \p CV itself) lies outside \p CV's neighborhood.
  /// Early-exits on the first word holding a witness.
  bool georgeWitnessesEmpty(unsigned CU, unsigned CV) const;

  /// Sparse mode with an enabled cache: one merge-walk over the sorted
  /// rows of \p CU and \p CV that hands \p Visit every Briggs blocker
  /// (a neighbor class still significant after the merge; the endpoints
  /// are skipped) in ascending order. \p Visit returns true to stop the
  /// walk. \returns true iff the walk was stopped.
  template <typename Visitor>
  bool forEachBriggsBlockerSparse(unsigned CU, unsigned CV,
                                  Visitor Visit) const;

  /// Sparse mode with an enabled cache: walks \p CU's row, probing \p CV's
  /// sorted row with a resumable forward cursor, and hands \p Visit every
  /// George witness (a significant neighbor of \p CU other than \p CV
  /// outside \p CV's neighborhood) in row order. \p Visit returns true to
  /// stop the walk. \returns true iff the walk was stopped.
  template <typename Visitor>
  bool forEachGeorgeWitnessSparse(unsigned CU, unsigned CV,
                                  Visitor Visit) const;

  /// Calls \p Visit on every neighbor class of class \p C, in ascending
  /// order, through the mode's adjacency.
  template <typename Visitor>
  void forEachNeighbor(unsigned C, Visitor Visit) const;

  /// Class degree through the mode-appropriate representation.
  unsigned classDegree(unsigned C) const {
    return Dense ? Deg[C] : ClassArena.rowSize(C);
  }

  /// Updates (or, with \p Undo, exactly reverses) the degree cache for one
  /// merge of \p Loser into \p Root. \p LoserAdj and \p NewNeighbors are
  /// the loser's pre-merge neighbors and the subset of them not previously
  /// adjacent to Root; \p Commons is their difference (the classes whose
  /// degree the merge dropped). Must run while the class adjacency reflects
  /// the POST-merge state: after the structural updates in merge(), before
  /// them in undoMerge(). Every counter delta depends only on class
  /// degrees, never on other counters, so the undo direction is the exact
  /// negation of the merge direction.
  void updateDegreeCache(unsigned Root, unsigned Loser,
                         const std::vector<unsigned> &LoserAdj,
                         const std::vector<unsigned> &NewNeighbors,
                         const std::vector<unsigned> &Commons, bool Undo);

  /// Sets the dense significant/exactly-K mask bits of class \p C for
  /// degree \p Deg.
  void setDegreeBits(unsigned C, unsigned Deg) {
    uint64_t Bit = uint64_t(1) << (C & 63);
    if (Deg >= CacheK)
      SigWords[C >> 6] |= Bit;
    else
      SigWords[C >> 6] &= ~Bit;
    if (Deg == CacheK)
      ExactKWords[C >> 6] |= Bit;
    else
      ExactKWords[C >> 6] &= ~Bit;
  }

  const Graph &Original;
  bool Dense;
  /// Dense mode only: the class adjacency — interference bits between
  /// class representatives, row-major so neighborhoods intersect
  /// word-at-a-time. Rows are kept exact — a merge clears the loser's bits
  /// and rollback re-sets them — so masked popcounts and row walks never
  /// see dead classes.
  BitRows ClassEdges;
  /// Sparse mode only: the primary class adjacency — pooled sorted rows
  /// keyed by representative, updated eagerly on every merge and undo.
  AdjacencyArena ClassArena;
  /// Per original vertex: its class representative (eagerly maintained).
  std::vector<unsigned> Rep;
  /// Union-by-rank state per representative (see file comment).
  std::vector<unsigned> Rank;
  /// Dense mode: per-representative class degree. Dead classes freeze at
  /// their pre-merge degree, which is exactly what rollback restores.
  std::vector<unsigned> Deg;
  /// Keyed by representative.
  std::vector<std::vector<unsigned>> Members;
  unsigned NumClasses = 0;

  /// Degree cache (enableDegreeCache). CacheK == 0 means disabled.
  /// SigCount[C] counts neighbor classes of live class C with degree >=
  /// CacheK; entries of dead classes freeze at their pre-merge value, which
  /// is exactly what rollback restores.
  /// SigWords/ExactKWords (both modes) are one bit per class: degree
  /// >= CacheK resp. == CacheK, with dead classes cleared. Dense mode
  /// sweeps them word-parallel against the bit rows; sparse mode probes
  /// them per neighbor in the merge-walk tests.
  unsigned CacheK = 0;
  std::vector<unsigned> SigCount;
  std::vector<uint64_t> SigWords;
  std::vector<uint64_t> ExactKWords;
  /// mergedQuotientGreedyKColorable scratch, sized once per engine.
  /// LocalSeen, LocalIn and LocalWalked are class bit masks: classified,
  /// an unpeeled candidate, and walked without peeling at once.
  /// LocalTouched lists the classes whose bits a call set, so the next
  /// call clears just their words. LocalDeg holds a walked class's count
  /// of unpeeled candidate neighbors; LocalComp lists the candidates in
  /// walk order and LocalQueue is the peel work list.
  mutable std::vector<uint64_t> LocalSeen;
  mutable std::vector<uint64_t> LocalIn;
  mutable std::vector<uint64_t> LocalWalked;
  mutable std::vector<unsigned> LocalTouched;
  mutable std::vector<unsigned> LocalDeg;
  mutable std::vector<unsigned> LocalComp;
  mutable std::vector<unsigned> LocalQueue;

  std::vector<MergeRecord> UndoLog;
  /// Active checkpoints (positions into UndoLog, non-decreasing).
  std::vector<size_t> Marks;

  CoalescingTelemetry *Telemetry = nullptr;
  EngineObserver *Observer = nullptr;
  const CancelToken *Cancel = nullptr;
};

} // namespace rc

#endif // COALESCING_WORKGRAPH_H
