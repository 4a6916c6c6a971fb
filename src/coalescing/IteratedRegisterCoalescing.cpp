//===- coalescing/IteratedRegisterCoalescing.cpp - IRC --------------------===//
//
// Faithful port of the George–Appel worklist pseudocode ("Iterated Register
// Coalescing", TOPLAS 1996; Appel, "Modern Compiler Implementation").
//
// Merges go through the shared WorkGraph engine, which also answers Appel's
// adjSet membership test. That substitution is exact because IRC only ever
// asks whether two live nodes (neither Coalesced nor OnStack) interfere,
// and for live nodes adjSet is class interference. Appel's combine(u, v)
// adds an edge from u to every live neighbor of v, so every edge between
// two live nodes' classes reaches their representatives, and edges to
// nodes already OnStack are never needed again. AdjList and Degree stay
// IRC's own: AdjList's insertion order drives the simplify order, and
// Appel's degree leaves out simplified neighbors.
//
//===----------------------------------------------------------------------===//

#include "coalescing/IteratedRegisterCoalescing.h"

#include "coalescing/WorkGraph.h"

#include <algorithm>
#include <numeric>

using namespace rc;

namespace {

class Irc {
public:
  Irc(const CoalescingProblem &P, const IrcOptions &Options,
      CoalescingTelemetry *Telemetry)
      : P(P), Options(Options), Telemetry(Telemetry), K(P.K),
        N(P.G.numVertices()), WG(P.G) {}

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
  /// Appel's adjSet test, answered by the engine (see the file comment).
  bool inAdjSet(unsigned U, unsigned V) const {
    assert(isLive(U) && isLive(V) && "adjSet is only queried for live nodes");
    return WG.classesAdjacent(WG.classOf(U), WG.classOf(V));
  }
  template <typename Fn> void forEachAdjacent(unsigned N0, Fn &&F) const {
    for (unsigned W : AdjList[N0])
      if (isLive(W))
        F(W);
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
  void addEdge(unsigned U, unsigned V);
  void decrementDegree(unsigned M);
  void enableMoves(unsigned N0);
  void addWorkList(unsigned U);
  bool ok(unsigned T, unsigned R) const; // George single-neighbor test.
  bool georgeOk(unsigned U, unsigned V) const;
  bool briggsOk(unsigned U, unsigned V) const;
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
  /// The coalesced classes; no telemetry attached, IRC counts its own
  /// events.
  WorkGraph WG;

  std::vector<NodeState> State;
  std::vector<unsigned> Alias;
  std::vector<unsigned> Degree;
  std::vector<std::vector<unsigned>> AdjList;
  std::vector<std::vector<unsigned>> MoveList; // Move indices per node.
  std::vector<MoveState> MState;

  /// Scratch for briggsOk: per-node visit stamps reused across tests.
  mutable std::vector<unsigned> NeighborStamp;
  mutable unsigned CurrentStamp = 0;

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

  for (unsigned U = 0; U < N; ++U)
    for (unsigned V : P.G.neighbors(U))
      if (V > U) {
        AdjList[U].push_back(V);
        AdjList[V].push_back(U);
        ++Degree[U];
        ++Degree[V];
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

void Irc::addEdge(unsigned U, unsigned V) {
  if (U == V || inAdjSet(U, V))
    return;
  AdjList[U].push_back(V);
  AdjList[V].push_back(U);
  ++Degree[U];
  ++Degree[V];
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

bool Irc::ok(unsigned T, unsigned R) const {
  return Degree[T] < K || inAdjSet(T, R);
}

bool Irc::georgeOk(unsigned U, unsigned V) const {
  count(EngineEvent::GeorgeTestRun);
  // Every significant neighbor of V must be a neighbor of U.
  bool AllOk = true;
  forEachAdjacent(V, [&](unsigned T) { AllOk = AllOk && ok(T, U); });
  if (AllOk)
    count(EngineEvent::GeorgeTestPassed);
  return AllOk;
}

bool Irc::briggsOk(unsigned U, unsigned V) const {
  count(EngineEvent::BriggsTestRun);
  // Conservative (Briggs): merged node has < K significant neighbors.
  // Epoch-stamped dedup over the two adjacency lists instead of a std::set
  // per test; the count is order-independent, so the outcome is identical,
  // and once it reaches K the test has failed no matter what remains.
  if (++CurrentStamp == 0) {
    std::fill(NeighborStamp.begin(), NeighborStamp.end(), 0u);
    CurrentStamp = 1;
  }
  unsigned Significant = 0;
  auto Visit = [&](unsigned T) {
    if (Significant >= K || NeighborStamp[T] == CurrentStamp)
      return;
    NeighborStamp[T] = CurrentStamp;
    unsigned D = Degree[T];
    // A common neighbor loses one edge in the merge; when D < K the
    // decrement cannot change the outcome, so skip the set probes.
    if (D >= K && inAdjSet(T, U) && inAdjSet(T, V))
      --D;
    if (D >= K)
      ++Significant;
  };
  forEachAdjacent(U, Visit);
  forEachAdjacent(V, Visit);
  if (Significant < K)
    count(EngineEvent::BriggsTestPassed);
  return Significant < K;
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
  forEachAdjacent(V, [this, U](unsigned T) {
    addEdge(T, U);
    decrementDegree(T);
  });
  // After the loop, so addEdge's dedupe sees the classes before the merge.
  WG.merge(U, V);
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
  while (!SelectStack.empty()) {
    unsigned V = SelectStack.back();
    SelectStack.pop_back();
    std::vector<bool> Used(K, false);
    for (unsigned W : AdjList[V]) {
      unsigned A = getAlias(W);
      if ((State[A] == NodeState::Colored) && Color[A] >= 0)
        Used[static_cast<unsigned>(Color[A])] = true;
    }
    int Free = -1;
    for (unsigned C = 0; C < K; ++C)
      if (!Used[C]) {
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
  Result.Colors = Colors;
  // A coalesced class containing a spilled root stays merged for
  // reporting purposes.
  Result.Solution = WG.solution();
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
