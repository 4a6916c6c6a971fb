//===- coalescing/Conservative.cpp - Conservative coalescing --------------===//

#include "coalescing/Conservative.h"

#include "graph/GreedyColorability.h"

#include <algorithm>
#include <numeric>

using namespace rc;

bool rc::briggsTest(const WorkGraph &WG, unsigned U, unsigned V,
                    [[maybe_unused]] unsigned K) {
  WG.note(EngineEvent::BriggsTestRun);
  assert(WG.degreeCacheK() == K && "enable the degree cache at K first");
  bool Passed = WG.briggsSafe(WG.classOf(U), WG.classOf(V));
  if (Passed)
    WG.note(EngineEvent::BriggsTestPassed);
  return Passed;
}

bool rc::georgeTest(const WorkGraph &WG, unsigned U, unsigned V,
                    [[maybe_unused]] unsigned K) {
  WG.note(EngineEvent::GeorgeTestRun);
  assert(WG.degreeCacheK() == K && "enable the degree cache at K first");
  bool Passed = WG.georgeSafe(WG.classOf(U), WG.classOf(V));
  if (Passed)
    WG.note(EngineEvent::GeorgeTestPassed);
  return Passed;
}

bool rc::bruteForceTest(WorkGraph &WG, unsigned U, unsigned V, unsigned K,
                        std::vector<unsigned> *StuckReps,
                        bool PreMergeGreedy) {
  WG.note(EngineEvent::BruteForceTestRun);
  WG.checkpoint();
  unsigned C = WG.merge(U, V);
  // From a greedy-k-colorable quotient the only k-core one merge can
  // create is the merged class's component, so the check stays local.
  bool Passed = PreMergeGreedy
                    ? WG.mergedQuotientGreedyKColorable(C, K, StuckReps)
                    : WG.quotientGreedyKColorable(K, StuckReps);
  WG.rollback();
  if (Passed)
    WG.note(EngineEvent::BruteForceTestPassed);
  return Passed;
}

namespace {

/// Reactivation plumbing for the incremental driver. Each committed merge
/// stamps the classes it touched with a fresh timestamp; a rejected
/// affinity records the stamp at park time plus its private watch list
/// (endpoints + blockers), and the sweep re-tests it only when a watched
/// class carries a newer stamp. Keeping the watch list with the affinity —
/// instead of an inverted per-class index — makes parking one buffer swap
/// and the wake check a scan of one contiguous vector against a
/// cache-resident stamp table.
///
/// With \p FilterDrops set (the Briggs/George rules), degree drops are
/// stamped only when the class lands on degree K or K-1. A parked
/// rejection can only flip to a pass by losing one of its park-time
/// blockers (the 0/1 contributions to the high-degree count never go
/// negative, so the count cannot fall below its park-time value without
/// one), and every such loss is either a merge consuming the blocker
/// (stamped unconditionally) or a drop across the K / K-1 thresholds.
/// Brute-force rejections watch the stuck k-core, where any degree drop
/// can start a dissolving cascade, so they keep every drop.
class TouchObserver final : public EngineObserver {
public:
  TouchObserver(const WorkGraph &WG, std::vector<uint64_t> &LastTouched,
                std::vector<uint64_t> *WordStamp, unsigned K,
                bool FilterDrops)
      : WG(WG), LastTouched(LastTouched), WordStamp(WordStamp), K(K),
        FilterDrops(FilterDrops) {}

  void onMergeTouched(unsigned Root, unsigned Loser,
                      const std::vector<unsigned> &DegreeDropped) override {
    if (Suppressed)
      return;
    ++Stamp;
    touch(Root);
    touch(Loser);
    for (unsigned C : DegreeDropped) {
      if (FilterDrops) {
        unsigned D = WG.degree(C);
        if (D + 1 < K || D > K)
          continue;
      }
      touch(C);
    }
  }

  /// True while the driver is inside a speculative probe whose merges are
  /// rolled back immediately and must not wake parked affinities.
  bool Suppressed = false;

  /// Monotone merge counter; LastTouched entries hold the stamp of the
  /// last merge that touched the class.
  uint64_t Stamp = 0;

private:
  void touch(unsigned C) {
    LastTouched[C] = Stamp;
    if (WordStamp)
      (*WordStamp)[C >> 6] = Stamp;
  }

  const WorkGraph &WG;
  std::vector<uint64_t> &LastTouched;
  /// Coarse 64-class summary of LastTouched for bitmask watch sets, or
  /// null in sparse mode (class-list watch sets need no summary).
  std::vector<uint64_t> *WordStamp;
  unsigned K;
  bool FilterDrops;
};

} // namespace

/// Runs \p Rule's safety test(s). On a brute-force rejection, \p StuckReps
/// receives the stuck k-core — the rule's watch set; the Briggs/George
/// watch sets are collected by the caller from the cached masks instead.
/// Brute-force probes suppress \p Probe so their speculative merge does
/// not wake parked affinities.
///
/// \p QuotientGreedy tracks whether the current quotient is known
/// greedy-k-colorable. While it is, a cached Briggs/George pass screens
/// the brute-force probe entirely: both tests preserve
/// greedy-k-colorability (Section 4), so the speculative merge's
/// colorability check is guaranteed to succeed and the accept/reject
/// decision is unchanged. A probe that does run and passes establishes the
/// invariant (it literally verified the post-merge quotient), so the flag
/// needs no up-front whole-graph check. While the flag holds, probes that
/// do run check only the merged class's neighbourhood; until then they
/// re-peel the whole quotient.
static bool ruleAllows(WorkGraph &WG, unsigned U, unsigned V, unsigned K,
                       ConservativeRule Rule,
                       std::vector<unsigned> &StuckReps, TouchObserver &Probe,
                       bool &QuotientGreedy) {
  switch (Rule) {
  case ConservativeRule::Briggs:
    return briggsTest(WG, U, V, K);
  case ConservativeRule::George:
    // The test is asymmetric; try both directions.
    return georgeTest(WG, U, V, K) || georgeTest(WG, V, U, K);
  case ConservativeRule::BriggsOrGeorge:
    return briggsTest(WG, U, V, K) || georgeTest(WG, U, V, K) ||
           georgeTest(WG, V, U, K);
  case ConservativeRule::BruteForce: {
    if (QuotientGreedy &&
        (briggsTest(WG, U, V, K) || georgeTest(WG, U, V, K) ||
         georgeTest(WG, V, U, K))) {
      WG.note(EngineEvent::CachedTestSkip);
      return true;
    }
    Probe.Suppressed = true;
    bool Passed = bruteForceTest(WG, U, V, K, &StuckReps, QuotientGreedy);
    Probe.Suppressed = false;
    if (Passed)
      QuotientGreedy = true;
    return Passed;
  }
  }
  return false;
}

/// Fills the watch set for a just-rejected affinity: the classes whose
/// state must change before \p Rule's outcome can. Dense mode ORs the
/// cached masks into \p Mask (maskWords() words); sparse mode appends
/// class ids to \p List through the merge-walk helpers. Brute-force
/// rejections watch the stuck core in \p StuckReps. The endpoints are
/// added by the caller.
static void collectWatchSet(const WorkGraph &WG, unsigned CU, unsigned CV,
                            ConservativeRule Rule,
                            const std::vector<unsigned> &StuckReps,
                            uint64_t *Mask, std::vector<unsigned> *List) {
  switch (Rule) {
  case ConservativeRule::Briggs:
    if (Mask)
      WG.briggsWatchWords(CU, CV, Mask);
    else
      WG.appendBriggsHighDegreeSparse(CU, CV, *List);
    break;
  case ConservativeRule::George:
    if (Mask) {
      WG.georgeWatchWords(CU, CV, Mask);
      WG.georgeWatchWords(CV, CU, Mask);
    } else {
      WG.appendGeorgeWitnessesSparse(CU, CV, *List);
      WG.appendGeorgeWitnessesSparse(CV, CU, *List);
    }
    break;
  case ConservativeRule::BriggsOrGeorge:
    if (Mask) {
      WG.briggsWatchWords(CU, CV, Mask);
      WG.georgeWatchWords(CU, CV, Mask);
      WG.georgeWatchWords(CV, CU, Mask);
    } else {
      WG.appendBriggsHighDegreeSparse(CU, CV, *List);
      WG.appendGeorgeWitnessesSparse(CU, CV, *List);
      WG.appendGeorgeWitnessesSparse(CV, CU, *List);
    }
    break;
  case ConservativeRule::BruteForce:
    if (Mask) {
      for (unsigned C : StuckReps)
        Mask[C >> 6] |= uint64_t(1) << (C & 63);
    } else {
      List->insert(List->end(), StuckReps.begin(), StuckReps.end());
    }
    break;
  }
}

ConservativeResult rc::conservativeCoalesce(const CoalescingProblem &P,
                                            ConservativeRule Rule,
                                            CoalescingTelemetry *Telemetry,
                                            const CancelToken *Cancel) {
  WorkGraph WG(P.G);
  WG.attachTelemetry(Telemetry);
  WG.setCancelToken(Cancel);
  // Rollbacks happen only inside brute-force probes, which never unwind
  // past this point, so the cache enable is safe.
  WG.enableDegreeCache(P.K);

  const unsigned NumAff = static_cast<unsigned>(P.Affinities.size());
  std::vector<unsigned> Order(NumAff);
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [&P](unsigned A, unsigned B) {
    return P.Affinities[A].Weight > P.Affinities[B].Weight;
  });

#ifdef RC_EXPENSIVE_CHECKS
  bool InputGreedy = isGreedyKColorable(P.G, P.K);
#endif

  // Every affinity starts untested (due for its first test). A rejected
  // one parks with a stamp and a watch list and is skipped by later sweeps
  // until a merge stamps a watched class. The sweep therefore visits
  // exactly the legacy pass order minus visits whose outcome provably
  // cannot have changed, which keeps the merge sequence (and the solution)
  // identical to the legacy fixpoint driver.
  enum class Category : uint8_t { Untested, TestRejected, Interfering };
  std::vector<Category> Cat(NumAff, Category::Untested);
  std::vector<bool> Done(NumAff, false);
  // Dense mode holds watch sets as bitmask rows (parking is O(words)
  // stores, no per-blocker pushes) with WordStamp as a coarse touch
  // summary; sparse mode holds class-id lists.
  const bool MaskWatch = WG.usesDenseAdjacency();
  const unsigned Words = MaskWatch ? WG.maskWords() : 0;
  std::vector<std::vector<uint64_t>> WatchMask(MaskWatch ? NumAff : 0);
  std::vector<std::vector<unsigned>> WatchList(MaskWatch ? 0 : NumAff);
  std::vector<uint64_t> ParkStamp(NumAff, 0);
  std::vector<uint64_t> LastTouched(P.G.numVertices(), 0);
  std::vector<uint64_t> WordStamp(Words, 0);
  TouchObserver Obs(WG, LastTouched, MaskWatch ? &WordStamp : nullptr, P.K,
                    /*FilterDrops=*/Rule != ConservativeRule::BruteForce);
  WG.setObserver(&Obs);
  if (Telemetry)
    Telemetry->WorklistPushes += NumAff;

  std::vector<unsigned> StuckReps;
  ConservativeResult Result;
  bool QuotientGreedy = false;
  bool Progress = true;
  while (Progress && !Result.TimedOut) {
    Progress = false;
    if (Cancel)
      Cancel->pollNow();
    for (unsigned Idx : Order) {
      if (WG.cancelRequested()) {
        Result.TimedOut = true;
        break;
      }
      if (Done[Idx])
        continue;
      if (Cat[Idx] == Category::Interfering) {
        // Interference between classes is permanent (merging two adjacent
        // classes is impossible, directly or transitively): parked
        // terminally, empty watch set.
        WG.note(EngineEvent::CachedTestSkip);
        continue;
      }
      if (Cat[Idx] == Category::TestRejected) {
        const uint64_t S = ParkStamp[Idx];
        bool Woken = false;
        if (MaskWatch) {
          const std::vector<uint64_t> &M = WatchMask[Idx];
          for (unsigned W = 0; W < Words && !Woken; ++W) {
            if (!M[W] || WordStamp[W] <= S)
              continue;
            for (uint64_t B = M[W]; B; B &= B - 1)
              if (LastTouched[W * 64 +
                              static_cast<unsigned>(std::countr_zero(B))] >
                  S) {
                Woken = true;
                break;
              }
          }
        } else {
          for (unsigned C : WatchList[Idx])
            if (LastTouched[C] > S) {
              Woken = true;
              break;
            }
        }
        if (!Woken) {
          // Parked with every watched class untouched: the legacy driver
          // would re-run the failing test here; the outcome is known.
          WG.note(EngineEvent::CachedTestSkip);
          continue;
        }
        if (Telemetry)
          Telemetry->count(EngineEvent::WorklistReactivation);
      }
      const Affinity &A = P.Affinities[Idx];
      if (WG.sameClass(A.U, A.V)) {
        Done[Idx] = true;
        continue;
      }
      WG.note(EngineEvent::MergeAttempted);
      if (WG.interfere(A.U, A.V)) {
        Cat[Idx] = Category::Interfering;
        continue;
      }
      StuckReps.clear();
      if (!ruleAllows(WG, A.U, A.V, P.K, Rule, StuckReps, Obs,
                      QuotientGreedy)) {
        Cat[Idx] = Category::TestRejected;
        ParkStamp[Idx] = Obs.Stamp;
        unsigned CU = WG.classOf(A.U), CV = WG.classOf(A.V);
        if (MaskWatch) {
          std::vector<uint64_t> &M = WatchMask[Idx];
          M.assign(Words, 0);
          collectWatchSet(WG, CU, CV, Rule, StuckReps, M.data(), nullptr);
          M[CU >> 6] |= uint64_t(1) << (CU & 63);
          M[CV >> 6] |= uint64_t(1) << (CV & 63);
        } else {
          std::vector<unsigned> &L = WatchList[Idx];
          L.clear();
          collectWatchSet(WG, CU, CV, Rule, StuckReps, nullptr, &L);
          L.push_back(CU);
          L.push_back(CV);
        }
        continue;
      }
      WG.merge(A.U, A.V); // Stamps the touched classes via the observer.
      Done[Idx] = true;
      Progress = true;
    }
  }
  WG.setObserver(nullptr);

  // The rejection counters are the census of parked categories. Every
  // pending category is current — changing one requires a merge that
  // dirties the affinity first — so the census describes the returned
  // solution exactly, even on a mid-sweep timeout (where the legacy driver
  // used to report partially reset per-pass counts).
  for (unsigned Idx = 0; Idx < NumAff; ++Idx) {
    if (Done[Idx])
      continue;
    if (Cat[Idx] == Category::TestRejected)
      ++Result.TestRejections;
    else if (Cat[Idx] == Category::Interfering)
      ++Result.InterferenceRejections;
  }

  Result.Solution = WG.solution();
  Result.Stats = evaluateSolution(P, Result.Solution);
  // All three tests preserve greedy-k-colorability (Section 4). The full
  // rebuild-and-recheck is two orders of magnitude more work than the
  // driver itself at scale, so it compiles in only under
  // RC_EXPENSIVE_CHECKS, which sanitizer builds (-DRC_SANITIZE=...) define;
  // the coalescer-sound fuzz property checks the same claim continuously.
#ifdef RC_EXPENSIVE_CHECKS
  assert((!InputGreedy ||
          isGreedyKColorable(buildCoalescedGraph(P.G, Result.Solution),
                             P.K)) &&
         "conservative rule broke greedy-k-colorability");
#endif
  return Result;
}
