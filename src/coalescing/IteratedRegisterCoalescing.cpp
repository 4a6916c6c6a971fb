//===- coalescing/IteratedRegisterCoalescing.cpp - IRC --------------------===//
//
// Faithful port of the George–Appel worklist pseudocode ("Iterated Register
// Coalescing", TOPLAS 1996; Appel, "Modern Compiler Implementation").
//
// IRC keeps its classes once, in Appel's Alias, and answers every
// adjacency question from its own lists, the move's constrained check
// included. AdjList's insertion order drives the simplify order, and
// Appel's Degree leaves out simplified neighbors.
//
// The live-list invariant. Call a node live when it is neither Coalesced
// nor OnStack. For live T and U, T is a live entry of AdjList[U] exactly
// when adjSet(T, U) holds, and adjSet is class interference. The lists
// start as the graph's rows. Appel's combine(u, v) adds an edge from u to
// every live neighbor of v, deduplicated against the lists themselves, so
// every edge between two live nodes' classes reaches their representatives
// and no live pair is listed twice. Edges to nodes already OnStack are
// never needed again. So the constrained check walks the shorter of the
// two live lists for the other node, and three tests read stamps instead
// of probing:
//  - Briggs stamps V's significant live neighbors. A stamped entry of U's
//    list is a common neighbor and loses one edge in the merge; V's second
//    walk counts only the stamped entries U's walk did not see, which are
//    V's own significant neighbors.
//  - George stamps U's live list; a significant neighbor of V must carry
//    the stamp.
//  - combine stamps U's live list; a live neighbor of V already stamped is
//    already adjacent to U and gets no second entry.
//
// Compaction. Appel's lists never shrink, so each walk drops the dead
// entries it passes and keeps the live ones in order; the simplify order
// stays the same. A list is walked only while its owner X is live or at
// the moment X dies (its own simplify or combine), and the colors
// assignColors reads from X's list stay the same:
//  - an entry that went OnStack while X was live is popped after X, so it
//    has no color yet when X picks one;
//  - an entry W coalesced into A while X was live had A added to X's list
//    by combine (or A was there already), and A, or the class A later
//    joins, keeps standing for W's class there, so X still sees that
//    class's color.
//
//===----------------------------------------------------------------------===//

#include "coalescing/IteratedRegisterCoalescing.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

using namespace rc;

namespace {

class Irc {
public:
  Irc(const CoalescingProblem &P, const IrcOptions &Options,
      CoalescingTelemetry *Telemetry)
      : P(P), Options(Options), Telemetry(Telemetry), K(P.K),
        N(P.G.numVertices()) {}

  IrcResult run();

private:
  enum class NodeState {
    Initial,
    SimplifyWL,
    FreezeWL,
    SpillWL,
    Spilled,
    Coalesced,
    Colored,
    OnStack,
  };
  enum class MoveState { Worklist, Active, Coalesced, Constrained, Frozen };

  // --- Queries -----------------------------------------------------------
  unsigned getAlias(unsigned N0) const {
    while (State[N0] == NodeState::Coalesced)
      N0 = Alias[N0];
    return N0;
  }
  bool isLive(unsigned N0) const {
    return State[N0] != NodeState::OnStack &&
           State[N0] != NodeState::Coalesced;
  }
  /// Appel's adjSet test, read from the shorter of the two live lists
  /// (see the file comment); only the move's constrained check asks it.
  bool inAdjSet(unsigned U, unsigned V) {
    assert(isLive(U) && isLive(V) && "adjSet is only queried for live nodes");
    if (AdjList[V].size() < AdjList[U].size())
      std::swap(U, V);
    return !forEachAdjacent(U, [V](unsigned T) { return T != V; });
  }
  /// Calls F on each live entry of N0's list, in order, and drops the dead
  /// entries it passes (see the file comment). When F returns bool, false
  /// stops the walk and the unvisited tail stays as it is; the return value
  /// says whether the walk reached the end. F must not add to N0's list.
  template <typename Fn> bool forEachAdjacent(unsigned N0, Fn &&F) {
    std::vector<unsigned> &L = AdjList[N0];
    const size_t Size = L.size();
    size_t Kept = 0, Next = 0;
    bool Completed = true;
    while (Next < Size) {
      unsigned W = L[Next++];
      if (!isLive(W))
        continue;
      L[Kept++] = W;
      if constexpr (std::is_same_v<std::invoke_result_t<Fn &, unsigned>,
                                   bool>) {
        if (!F(W)) {
          Completed = false;
          break;
        }
      } else {
        F(W);
      }
    }
    assert(L.size() == Size && "a walk added to the list it walks");
    L.erase(L.begin() + Kept, L.begin() + Next);
    return Completed;
  }
  /// Returns a stamp no node carries yet.
  unsigned freshStamp() {
    if (++CurrentStamp == 0) {
      std::fill(NeighborStamp.begin(), NeighborStamp.end(), 0u);
      CurrentStamp = 1;
    }
    return CurrentStamp;
  }
  /// Stamps N0's live neighbors with a fresh stamp and returns it.
  unsigned stampAdjacent(unsigned N0) {
    unsigned S = freshStamp();
    forEachAdjacent(N0, [&](unsigned T) { NeighborStamp[T] = S; });
    return S;
  }
  bool moveRelated(unsigned N0) const {
    for (unsigned M : MoveList[N0])
      if (MState[M] == MoveState::Active || MState[M] == MoveState::Worklist)
        return true;
    return false;
  }

  // --- Phases ------------------------------------------------------------
  void build();
  void makeWorklist();
  void simplify();
  void coalesce();
  void freeze();
  void selectSpill();
  void assignColors();

  // --- Helpers -----------------------------------------------------------
  void decrementDegree(unsigned M);
  void enableMoves(unsigned N0);
  void addWorkList(unsigned U);
  bool georgeOk(unsigned U, unsigned V);
  bool briggsOk(unsigned U, unsigned V);
  void combine(unsigned U, unsigned V);
  void freezeMoves(unsigned U);
  void removeFromWorklist(unsigned N0);

  void count(EngineEvent E) const {
    if (Telemetry)
      Telemetry->count(E);
  }

  const CoalescingProblem &P;
  IrcOptions Options;
  CoalescingTelemetry *Telemetry;
  unsigned K;
  unsigned N;

  std::vector<NodeState> State;
  std::vector<unsigned> Alias;
  std::vector<unsigned> Degree;
  std::vector<std::vector<unsigned>> AdjList;
  std::vector<std::vector<unsigned>> MoveList; // Move indices per node.
  std::vector<MoveState> MState;

  /// Per-node stamps for the Briggs, George and combine list readings,
  /// reused across tests (see freshStamp).
  std::vector<unsigned> NeighborStamp;
  unsigned CurrentStamp = 0;

  std::vector<unsigned> SimplifyWorklist, FreezeWorklist, SpillWorklist;
  std::vector<unsigned> WorklistMoves, ActiveMoves;
  std::vector<unsigned> SelectStack;
  std::vector<unsigned> SpilledNodes;
  Coloring Colors;
};

void Irc::build() {
  State.assign(N, NodeState::Initial);
  Alias.assign(N, ~0u);
  Degree.assign(N, 0);
  AdjList.assign(N, {});
  MoveList.assign(N, {});
  MState.assign(P.Affinities.size(), MoveState::Active);
  NeighborStamp.assign(N, 0);
  CurrentStamp = 0;

  for (unsigned U = 0; U < N; ++U) {
    VertexSpan Row = P.G.neighbors(U);
    AdjList[U].assign(Row.begin(), Row.end());
    Degree[U] = static_cast<unsigned>(Row.size());
  }

  // Moves in decreasing weight order so Coalesce prefers expensive moves.
  std::vector<unsigned> Order(P.Affinities.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(), [this](unsigned A, unsigned B) {
    return P.Affinities[A].Weight < P.Affinities[B].Weight;
  });
  // WorklistMoves is consumed from the back, so sort ascending.
  for (unsigned M : Order) {
    const Affinity &A = P.Affinities[M];
    MoveList[A.U].push_back(M);
    MoveList[A.V].push_back(M);
    MState[M] = MoveState::Worklist;
    WorklistMoves.push_back(M);
  }
}

void Irc::makeWorklist() {
  for (unsigned V = 0; V < N; ++V) {
    if (Degree[V] >= K) {
      State[V] = NodeState::SpillWL;
      SpillWorklist.push_back(V);
    } else if (moveRelated(V)) {
      State[V] = NodeState::FreezeWL;
      FreezeWorklist.push_back(V);
    } else {
      State[V] = NodeState::SimplifyWL;
      SimplifyWorklist.push_back(V);
    }
  }
}

void Irc::removeFromWorklist(unsigned N0) {
  auto erase = [N0](std::vector<unsigned> &WL) {
    auto It = std::find(WL.begin(), WL.end(), N0);
    assert(It != WL.end() && "node missing from its worklist");
    *It = WL.back();
    WL.pop_back();
  };
  switch (State[N0]) {
  case NodeState::SimplifyWL:
    erase(SimplifyWorklist);
    break;
  case NodeState::FreezeWL:
    erase(FreezeWorklist);
    break;
  case NodeState::SpillWL:
    erase(SpillWorklist);
    break;
  default:
    assert(false && "node is not on a worklist");
  }
}

void Irc::simplify() {
  unsigned V = SimplifyWorklist.back();
  SimplifyWorklist.pop_back();
  State[V] = NodeState::OnStack;
  SelectStack.push_back(V);
  forEachAdjacent(V, [this](unsigned M) { decrementDegree(M); });
}

void Irc::decrementDegree(unsigned M) {
  unsigned D = Degree[M];
  --Degree[M];
  if (D != K)
    return;
  // M just became low degree: its moves (and its neighbors') may succeed.
  enableMoves(M);
  forEachAdjacent(M, [this](unsigned T) { enableMoves(T); });
  if (State[M] != NodeState::SpillWL)
    return;
  removeFromWorklist(M);
  if (moveRelated(M)) {
    State[M] = NodeState::FreezeWL;
    FreezeWorklist.push_back(M);
  } else {
    State[M] = NodeState::SimplifyWL;
    SimplifyWorklist.push_back(M);
  }
}

void Irc::enableMoves(unsigned N0) {
  for (unsigned M : MoveList[N0]) {
    if (MState[M] != MoveState::Active)
      continue;
    MState[M] = MoveState::Worklist;
    WorklistMoves.push_back(M);
  }
}

void Irc::addWorkList(unsigned U) {
  if (State[U] == NodeState::FreezeWL && !moveRelated(U) && Degree[U] < K) {
    removeFromWorklist(U);
    State[U] = NodeState::SimplifyWL;
    SimplifyWorklist.push_back(U);
  }
}

bool Irc::georgeOk(unsigned U, unsigned V) {
  count(EngineEvent::GeorgeTestRun);
  // Every significant neighbor of V must be a neighbor of U, that is, a
  // live entry of U's list.
  unsigned InU = stampAdjacent(U);
  bool AllOk = forEachAdjacent(V, [&](unsigned T) {
    return Degree[T] < K || NeighborStamp[T] == InU;
  });
  if (AllOk)
    count(EngineEvent::GeorgeTestPassed);
  return AllOk;
}

bool Irc::briggsOk(unsigned U, unsigned V) {
  count(EngineEvent::BriggsTestRun);
  // Conservative (Briggs): merged node has < K significant neighbors. A
  // common neighbor loses one edge in the merge; one that is not
  // significant stays so, and is not stamped. Once the count reaches K the
  // test has failed no matter what remains.
  unsigned InV = freshStamp();
  unsigned Seen = freshStamp();
  forEachAdjacent(V, [&](unsigned T) {
    if (Degree[T] >= K)
      NeighborStamp[T] = InV;
  });
  unsigned Significant = 0;
  auto CountU = [&](unsigned T) {
    unsigned D = Degree[T];
    if (NeighborStamp[T] == InV) {
      NeighborStamp[T] = Seen;
      --D;
    }
    if (D >= K)
      ++Significant;
    return Significant < K;
  };
  // What still carries InV after U's walk is V's own significant neighbor.
  auto CountVOnly = [&](unsigned T) {
    if (NeighborStamp[T] == InV)
      ++Significant;
    return Significant < K;
  };
  bool Passed = forEachAdjacent(U, CountU) && forEachAdjacent(V, CountVOnly);
  if (Passed)
    count(EngineEvent::BriggsTestPassed);
  return Passed;
}

void Irc::coalesce() {
  unsigned M = WorklistMoves.back();
  WorklistMoves.pop_back();
  unsigned U = getAlias(P.Affinities[M].U);
  unsigned V = getAlias(P.Affinities[M].V);
  count(EngineEvent::MergeAttempted);

  if (U == V) {
    MState[M] = MoveState::Coalesced;
    addWorkList(U);
    return;
  }
  if (inAdjSet(U, V)) {
    MState[M] = MoveState::Constrained;
    addWorkList(U);
    addWorkList(V);
    return;
  }
  if (briggsOk(U, V) || (Options.UseGeorge && georgeOk(U, V))) {
    MState[M] = MoveState::Coalesced;
    combine(U, V);
    addWorkList(getAlias(U));
  } else {
    MState[M] = MoveState::Active;
    ActiveMoves.push_back(M);
  }
}

void Irc::combine(unsigned U, unsigned V) {
  // V is absorbed into U.
  count(EngineEvent::MergeCommitted);
  removeFromWorklist(V);
  State[V] = NodeState::Coalesced;
  Alias[V] = U;
  MoveList[U].insert(MoveList[U].end(), MoveList[V].begin(),
                     MoveList[V].end());
  enableMoves(V);
  // Appel's addEdge(T, U), deduplicated against U's live list.
  unsigned InU = stampAdjacent(U);
  forEachAdjacent(V, [&](unsigned T) {
    assert(T != U && "a move between interfering nodes was coalesced");
    if (NeighborStamp[T] != InU) {
      AdjList[T].push_back(U);
      AdjList[U].push_back(T);
      ++Degree[T];
      ++Degree[U];
    }
    decrementDegree(T);
  });
  if (Degree[U] >= K && State[U] == NodeState::FreezeWL) {
    removeFromWorklist(U);
    State[U] = NodeState::SpillWL;
    SpillWorklist.push_back(U);
  }
}

void Irc::freeze() {
  unsigned U = FreezeWorklist.back();
  FreezeWorklist.pop_back();
  State[U] = NodeState::SimplifyWL;
  SimplifyWorklist.push_back(U);
  freezeMoves(U);
}

void Irc::freezeMoves(unsigned U) {
  for (unsigned M : MoveList[U]) {
    if (MState[M] != MoveState::Active && MState[M] != MoveState::Worklist)
      continue;
    if (MState[M] == MoveState::Worklist) {
      auto It = std::find(WorklistMoves.begin(), WorklistMoves.end(), M);
      assert(It != WorklistMoves.end() && "move missing from worklist");
      *It = WorklistMoves.back();
      WorklistMoves.pop_back();
    } else {
      auto It = std::find(ActiveMoves.begin(), ActiveMoves.end(), M);
      if (It != ActiveMoves.end()) {
        *It = ActiveMoves.back();
        ActiveMoves.pop_back();
      }
    }
    MState[M] = MoveState::Frozen;
    unsigned X = getAlias(P.Affinities[M].U);
    unsigned Y = getAlias(P.Affinities[M].V);
    unsigned W = (Y == getAlias(U)) ? X : Y;
    if (!moveRelated(W) && Degree[W] < K &&
        State[W] == NodeState::FreezeWL) {
      removeFromWorklist(W);
      State[W] = NodeState::SimplifyWL;
      SimplifyWorklist.push_back(W);
    }
  }
}

void Irc::selectSpill() {
  // Chaitin's heuristic: minimal cost/degree. With uniform costs this is
  // the highest-degree candidate. A merged class costs the sum of its
  // members' costs -- approximated here by the representative's cost, which
  // is exact for the unmerged case that matters (fresh reload temps).
  auto CostOf = [this](unsigned V) {
    return V < Options.SpillCosts.size() ? Options.SpillCosts[V] : 1.0;
  };
  auto It = std::min_element(SpillWorklist.begin(), SpillWorklist.end(),
                             [&](unsigned A, unsigned B) {
                               return CostOf(A) / std::max(1u, Degree[A]) <
                                      CostOf(B) / std::max(1u, Degree[B]);
                             });
  unsigned M = *It;
  *It = SpillWorklist.back();
  SpillWorklist.pop_back();
  State[M] = NodeState::SimplifyWL;
  SimplifyWorklist.push_back(M);
  freezeMoves(M);
}

void Irc::assignColors() {
  std::vector<int> Color(N, -1);
  // UsedBy[C] == V marks color C taken around V; no clearing per node.
  std::vector<unsigned> UsedBy(K, ~0u);
  while (!SelectStack.empty()) {
    unsigned V = SelectStack.back();
    SelectStack.pop_back();
    for (unsigned W : AdjList[V]) {
      unsigned A = getAlias(W);
      if ((State[A] == NodeState::Colored) && Color[A] >= 0)
        UsedBy[static_cast<unsigned>(Color[A])] = V;
    }
    int Free = -1;
    for (unsigned C = 0; C < K; ++C)
      if (UsedBy[C] != V) {
        Free = static_cast<int>(C);
        break;
      }
    if (Free < 0) {
      State[V] = NodeState::Spilled;
      SpilledNodes.push_back(V);
    } else {
      State[V] = NodeState::Colored;
      Color[V] = Free;
    }
  }
  for (unsigned V = 0; V < N; ++V)
    if (State[V] == NodeState::Coalesced) {
      unsigned A = getAlias(V);
      if (State[A] == NodeState::Colored)
        Color[V] = Color[A];
    }
  Colors = std::move(Color);
}

IrcResult Irc::run() {
  build();
  makeWorklist();
  do {
    if (!SimplifyWorklist.empty())
      simplify();
    else if (!WorklistMoves.empty())
      coalesce();
    else if (!FreezeWorklist.empty())
      freeze();
    else if (!SpillWorklist.empty())
      selectSpill();
  } while (!SimplifyWorklist.empty() || !WorklistMoves.empty() ||
           !FreezeWorklist.empty() || !SpillWorklist.empty());
  assignColors();

  IrcResult Result;
  Result.Colors = std::move(Colors);
  // A coalesced class containing a spilled root stays merged for
  // reporting purposes.
  std::vector<unsigned> Roots(N);
  for (unsigned V = 0; V < N; ++V)
    Roots[V] = getAlias(V);
  Result.Solution = solutionFromLabels(Roots);
  Result.Stats = evaluateSolution(P, Result.Solution);
  Result.Spilled = SpilledNodes;
  for (MoveState S : MState) {
    if (S == MoveState::Constrained)
      ++Result.ConstrainedMoves;
    if (S == MoveState::Frozen)
      ++Result.FrozenMoves;
  }
  assert(isValidCoalescing(P.G, Result.Solution) &&
         "IRC merged interfering vertices");
  return Result;
}

} // namespace

IrcResult rc::iteratedRegisterCoalescing(const CoalescingProblem &P,
                                         const IrcOptions &Options,
                                         CoalescingTelemetry *Telemetry) {
  Irc Allocator(P, Options, Telemetry);
  return Allocator.run();
}
