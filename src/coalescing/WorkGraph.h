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
///  - Hybrid adjacency. Below a size threshold (dense mode; 4096 vertices
///    cost two megabytes of matrix) class adjacency lives in a row-major
///    BitRows matrix: merges OR the loser's row into the root's and patch
///    the loser's column word-at-a-time, interference tests are O(1) bit
///    probes, and common-neighbor counts are masked popcounts. Sorted
///    neighbor vectors are materialized lazily, only when a caller asks
///    for a class's neighbor list. Above the threshold the sorted rows
///    live in one pooled adjacency arena (support/AdjacencyArena) — the
///    primary representation, updated eagerly on every merge; tests
///    binary-search the smaller row. The cached Briggs/George sweeps keep
///    paying off past the threshold as merge-walks over the two sorted
///    rows, so a safety test is O(deg(u) + deg(v)) with commons falling
///    out of the comparison; big tile-dense classes switch to popcount
///    sweeps over tiled bit rows (support/TiledBitRows).
///  - Merge undo-log. checkpoint()/rollback() bracket speculative merges so
///    probing strategies (brute-force conservative test, exact branch and
///    bound, optimistic de-coalescing) no longer deep-copy the graph.
///  - Degree cache. enableDegreeCache(k) maintains, through every merge and
///    rollback, the number of significant neighbor classes (degree >= k) of
///    each class, plus dense bit masks of the significant and exactly-k
///    classes. The Briggs and George safety tests read these instead of
///    re-walking and re-probing neighbor sets.
///  - Greedy-k-colorability checks. quotientGreedyKColorable peels the
///    whole quotient; mergedQuotientGreedyKColorable decides a speculative
///    merge from the merged class's k-core neighbourhood when the quotient
///    before it is known to be greedy-k-colorable.
///  - Instrumentation. An optional CoalescingTelemetry sink counts engine
///    events (merges, rollbacks, interference queries, colorability
///    checks); an optional EngineObserver sees the raw event stream and,
///    per committed merge, the set of classes the merge touched (the
///    incremental conservative driver's reactivation source).
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
#include "support/TiledBitRows.h"
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
    note(EngineEvent::InterferenceQuery, U, V);
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

  /// The neighbor classes (as representatives, sorted ascending) of the
  /// class of \p V. In dense mode the list is materialized from the
  /// class's bit row on first use after a merge or rollback. The span
  /// stays valid until the next merge, rollback, or (dense mode)
  /// materialization of that same class.
  VertexSpan neighborClasses(unsigned V) const {
    unsigned C = Rep[V];
    return Dense ? VertexSpan(materializedNeighbors(C)) : ClassArena.row(C);
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

  /// Starts maintaining significance state for \p K: bit masks of the
  /// significant (degree >= \p K) and exactly-K classes in both adjacency
  /// modes, plus, in sparse mode, a per-class count of significant
  /// neighbors. The cache is updated inside merge() and its undo, so
  /// briggsSafe/georgeSafe read masked popcounts (or counters) instead of
  /// probing neighbor sets. Must not be enabled while
  /// merges that predate the call are still subject to rollback (enable
  /// right after construction, or after the last checkpoint that could
  /// unwind earlier merges has been committed). Re-enabling with a
  /// different K rebuilds the cache.
  void enableDegreeCache(unsigned K);

  /// The K the degree cache maintains; 0 when disabled.
  unsigned degreeCacheK() const { return CacheK; }

  /// Number of significant neighbor classes (degree >= the cache K) of
  /// class \p C (a representative). Requires an enabled cache. Sparse mode
  /// reads the incrementally maintained counter; dense mode computes the
  /// count on demand from the row and the significance mask — merges then
  /// maintain no per-class counters at all.
  unsigned significantNeighbors(unsigned C) const {
    assert(CacheK && "degree cache is not enabled");
    if (!Dense)
      return SigCount[C];
    const uint64_t *R = ClassEdges.row(C);
    unsigned S = 0;
    for (unsigned W = 0; W < ClassEdges.wordsPerRow(); ++W)
      S += static_cast<unsigned>(std::popcount(R[W] & SigWords[W]));
    return S;
  }

  /// Briggs' test for merging classes \p CU and \p CV (representatives)
  /// at the cache K: true iff fewer than K neighbor classes of the merged
  /// class keep degree >= K. A common neighbor loses one degree in the
  /// merge and is counted once; the endpoints themselves are never
  /// counted. Requires an enabled cache. Dense mode answers with one
  /// masked word sweep; sparse mode passes for free when the two classes'
  /// significant-neighbor counters sum below K, and otherwise sweeps the
  /// tiled rows when both classes have them (see tileRowReady) or
  /// merge-walks the sorted rows. Every path gives the same answer.
  bool briggsSafe(unsigned CU, unsigned CV) const;

  /// George's test for merging class \p CU into \p CV at the cache K:
  /// true iff every significant neighbor class of \p CU other than \p CV
  /// is adjacent to \p CV. Asymmetric. Requires an enabled cache; same
  /// representation dispatch as briggsSafe, with a free sparse pass when
  /// \p CU has no significant neighbor besides \p CV.
  bool georgeSafe(unsigned CU, unsigned CV) const;

  /// Sparse cached mode: true iff the Briggs high-degree count for a merge
  /// of \p CU and \p CV stays below \p Limit, by one merge-walk over both
  /// endpoints' sorted rows — common neighbors fall out of the comparison
  /// instead of costing a binary search each; significance and exactly-K
  /// come from the threshold masks the degree cache maintains in both
  /// modes. The endpoints are skipped. Aborts as soon as the count reaches
  /// \p Limit. briggsSafe's untiled sparse path; public, with an explicit
  /// limit, so the parity fuzz property can pit it against the tiled sweep.
  bool briggsHighDegreeBelowSparseWalk(unsigned CU, unsigned CV,
                                       unsigned Limit) const;

  /// Sparse cached mode: true iff the George test passes for merging \p CU
  /// into \p CV, by walking \p CU's row and probing \p CV's sorted row with
  /// a resumable forward cursor per significant neighbor. georgeSafe's
  /// untiled sparse path; public for the parity fuzz property.
  bool georgeWitnessesEmptySparseWalk(unsigned CU, unsigned CV) const;

  /// Sparse cached mode: appends the Briggs blockers for a merge of \p CU
  /// and \p CV — the neighbor classes still significant after the merge —
  /// \p CU's row first, then \p CV's exclusive neighbors. One merge-walk
  /// over the two sorted rows with bit-mask significance probes; the
  /// conservative driver's sparse watch set for a rejected affinity.
  void appendBriggsHighDegreeSparse(unsigned CU, unsigned CV,
                                    std::vector<unsigned> &Out) const;

  /// Sparse cached mode: appends every George witness for merging \p CU
  /// into \p CV — significant neighbors of \p CU outside \p CV's
  /// neighborhood — in \p CU's row order.
  void appendGeorgeWitnessesSparse(unsigned CU, unsigned CV,
                                   std::vector<unsigned> &Out) const;

  /// Tiled Briggs sweep (both classes' tile rows must be built, see
  /// tileRowReady): a merge-walk over the two sorted tile lists computing
  /// the same fused word formula as the dense sweep —
  /// significant union minus commons at exactly K — with the endpoint bits
  /// masked out to match the walk's skip-endpoints semantics.
  bool briggsHighDegreeBelowSparseTiled(unsigned CU, unsigned CV,
                                        unsigned Limit) const;

  /// Tiled George sweep over \p CU's tiles against \p CV's (both built):
  /// a word of `sig(CU-row) & ~CV-row` outside the CV bit is a witness.
  bool georgeWitnessesEmptySparseTiled(unsigned CU, unsigned CV) const;

  /// Sparse cached mode: returns true once class \p C has a tiled bit row,
  /// lazily materializing it from the class's CSR row when the row is both
  /// big (degree >= TileMinDegree) and tile-dense: degree must be at least
  /// TileMinDensity bits per 512-bit tile spanned by the sorted row
  /// ((back >> 9) - (front >> 9) + 1, an O(1) lower bound on bits per
  /// distinct tile). Scattered rows — about one neighbor per tile — stay
  /// on the walk, where probing degree entries beats popcounting 8 words
  /// for every nearly-empty tile; concentrated rows flip that economics by
  /// an order of magnitude. Once built, a row is maintained through every
  /// merge/undo, so build timing never changes decisions.
  bool tileRowReady(unsigned C) const {
    if (Tiles.built(C))
      return true;
    VertexSpan Row = ClassArena.row(C);
    if (TileMinDegree) {
      if (Row.size() < TileMinDegree)
        return false;
      unsigned SpanTiles = (Row.back() >> TiledBitRows::TileShift) -
                           (Row.front() >> TiledBitRows::TileShift) + 1;
      if (Row.size() < size_t(TileMinDensity) * SpanTiles)
        return false;
    }
    Tiles.buildRow(C, Row);
    return true;
  }

  /// Sets the class degree at or above which sparse cached tests consider
  /// tiling a class (default DefaultTileMinDegree). Low-degree classes
  /// stay on the merge-walk, which is cheaper than materializing tiles for
  /// a handful of neighbors. 0 tiles everything unconditionally
  /// (bypassing the density gate too — the parity fuzz hook), ~0u disables
  /// tiling; decisions are identical at any setting. Takes effect on
  /// future lazy builds — call before the tests run.
  void setTileMinDegree(unsigned MinDegree) { TileMinDegree = MinDegree; }

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
  /// degree >= K and >= K significant neighbors, so the check
  ///  1. passes when fewer than K neighbors of \p C clear both bars (one
  ///     sweep of \p C's row against the cached degree state), and
  ///     otherwise
  ///  2. peels only the component of \p C among classes clearing both
  ///     bars.
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

  /// Attaches (or detaches, with null) a raw event observer.
  void setObserver(EngineObserver *O) { Observer = O; }

  /// Routes one event to the attached telemetry/observer. Drivers use this
  /// to report decisions (test outcomes, de-coalesces) through the engine's
  /// sinks.
  void note(EngineEvent E, unsigned U = ~0u, unsigned V = ~0u) const {
    if (Telemetry)
      Telemetry->count(E);
    if (Observer)
      Observer->onEvent(E, U, V);
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

  /// Class degree through the mode-appropriate representation.
  unsigned classDegree(unsigned C) const {
    return Dense ? Deg[C] : ClassArena.rowSize(C);
  }

  /// Dense mode: rebuilds ClassAdj[C] from the class's bit row unless it
  /// is already current for this adjacency epoch.
  const std::vector<unsigned> &materializedNeighbors(unsigned C) const;

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
  /// Dense mode only: interference bits between class representatives,
  /// row-major so neighborhoods intersect word-at-a-time. Unlike the class
  /// adjacency vectors, rows are kept exact — a merge clears the loser's
  /// bits and rollback re-sets them — so masked popcounts never see dead
  /// classes.
  BitRows ClassEdges;
  /// Sparse mode only: the primary class adjacency — pooled sorted rows
  /// keyed by representative, updated eagerly on every merge and undo.
  AdjacencyArena ClassArena;
  /// Per original vertex: its class representative (eagerly maintained).
  std::vector<unsigned> Rep;
  /// Union-by-rank state per representative (see file comment).
  std::vector<unsigned> Rank;
  /// Dense mode only: lazily materialized sorted neighbor vectors cached
  /// from the bit rows, valid while AdjStamp is set.
  mutable std::vector<std::vector<unsigned>> ClassAdj;
  /// Dense mode: per-representative class degree. Dead classes freeze at
  /// their pre-merge degree, which is exactly what rollback restores.
  std::vector<unsigned> Deg;
  /// Dense mode: AdjStamp[C] != 0 iff ClassAdj[C] currently matches row C.
  /// Merge and rollback clear the stamps of exactly the classes whose rows
  /// they touch (the two endpoints and the loser's neighborhood), so the
  /// cache stays warm elsewhere — brute-force probes re-materialize only
  /// O(deg) lists instead of the whole quotient.
  mutable std::vector<uint8_t> AdjStamp;
  /// Keyed by representative.
  std::vector<std::vector<unsigned>> Members;
  unsigned NumClasses = 0;

  /// Degree cache (enableDegreeCache). CacheK == 0 means disabled.
  /// SigCount[C] (sparse mode only) counts neighbor classes of live class
  /// C with degree >= CacheK; entries of dead classes freeze at their
  /// pre-merge value, which is exactly what rollback restores.
  /// SigWords/ExactKWords (both modes) are one bit per class: degree
  /// >= CacheK resp. == CacheK, with dead classes cleared. Dense mode
  /// sweeps them word-parallel against the bit rows; sparse mode probes
  /// them per neighbor in the merge-walk tests.
  unsigned CacheK = 0;
  std::vector<unsigned> SigCount;
  std::vector<uint64_t> SigWords;
  std::vector<uint64_t> ExactKWords;
  /// appendBriggsHighDegreeSparse: holds \p CV's exclusive blockers during
  /// the merge-walk so they can follow \p CU's without a per-call
  /// allocation.
  mutable std::vector<unsigned> ScratchList;
  /// mergedQuotientGreedyKColorable scratch, sized once per engine.
  /// LocalSeen and LocalIn are class bit masks: classified, and in the
  /// candidate component (cleared again as the peel removes a class).
  /// LocalTouched lists the classes whose bits a call set, so the next
  /// call clears just their words. LocalDeg holds a component class's
  /// remaining in-component degree; LocalComp lists the component and
  /// LocalQueue is the peel work list.
  mutable std::vector<uint64_t> LocalSeen;
  mutable std::vector<uint64_t> LocalIn;
  mutable std::vector<unsigned> LocalTouched;
  mutable std::vector<unsigned> LocalDeg;
  mutable std::vector<unsigned> LocalComp;
  mutable std::vector<unsigned> LocalQueue;
  /// Sparse cached tests: per-class tiled bit rows (512-bit tiles keyed by
  /// tile index in a pooled arena beside the CSR rows), built lazily for
  /// big tile-dense classes (see tileRowReady) and then maintained through
  /// every merge and undo exactly like the CSR rows — a built row always
  /// equals its CSR row, dead losers freeze for LIFO rollback. Mutable for
  /// the lazy build inside logically-const tests.
  mutable TiledBitRows Tiles;
  /// See setTileRowReady/setTileMinDegree. The density floor of 8 bits per
  /// spanned tile is where popcounting a tile's 8 words breaks even with
  /// probing its bits one walk entry at a time.
  static constexpr unsigned DefaultTileMinDegree = 64;
  static constexpr unsigned TileMinDensity = 8;
  unsigned TileMinDegree = DefaultTileMinDegree;

  std::vector<MergeRecord> UndoLog;
  /// Active checkpoints (positions into UndoLog, non-decreasing).
  std::vector<size_t> Marks;

  CoalescingTelemetry *Telemetry = nullptr;
  EngineObserver *Observer = nullptr;
  const CancelToken *Cancel = nullptr;
};

} // namespace rc

#endif // COALESCING_WORKGRAPH_H
