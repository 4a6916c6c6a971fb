//===- challenge/StrategyRegistry.cpp - Named strategy registry -----------===//

#include "challenge/StrategyRegistry.h"

#include "coalescing/Aggressive.h"
#include "coalescing/BiasedColoring.h"
#include "coalescing/ChordalStrategy.h"
#include "coalescing/Conservative.h"
#include "coalescing/ExactSearch.h"
#include "coalescing/IteratedRegisterCoalescing.h"
#include "coalescing/Optimistic.h"
#include "graph/Chordal.h"
#include "graph/GreedyColorability.h"

#include <algorithm>
#include <cassert>

using namespace rc;

void StrategyOptions::set(const std::string &Key, const std::string &Value) {
  for (auto &Entry : Entries)
    if (Entry.first == Key) {
      Entry.second = Value;
      return;
    }
  Entries.emplace_back(Key, Value);
}

bool StrategyOptions::has(const std::string &Key) const {
  return std::any_of(Entries.begin(), Entries.end(),
                     [&Key](const auto &E) { return E.first == Key; });
}

std::string StrategyOptions::get(const std::string &Key,
                                 const std::string &Default) const {
  for (const auto &Entry : Entries)
    if (Entry.first == Key)
      return Entry.second;
  return Default;
}

bool StrategyOptions::getBool(const std::string &Key, bool Default) const {
  if (!has(Key))
    return Default;
  std::string V = get(Key);
  if (V == "1" || V == "true" || V == "yes")
    return true;
  assert((V == "0" || V == "false" || V == "no") &&
         "strategy option is not a bool");
  return false;
}

bool rc::parseStrategySpec(const std::string &Spec, std::string &Name,
                           StrategyOptions &Options, SpecError &Error) {
  Error = SpecError();
  Options = StrategyOptions();
  size_t Colon = Spec.find(':');
  Name = Spec.substr(0, Colon);
  if (Name.empty()) {
    Error.Message = "empty strategy name in spec '" + Spec + "'";
    return false;
  }
  if (Colon == std::string::npos)
    return true;
  std::string Rest = Spec.substr(Colon + 1);
  size_t Pos = 0;
  while (Pos <= Rest.size()) {
    size_t Comma = Rest.find(',', Pos);
    std::string Item = Rest.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    size_t Eq = Item.find('=');
    if (Item.empty() || Eq == 0 || Eq == std::string::npos) {
      Error.Message = "malformed option '" + Item + "' in spec '" + Spec +
                      "' (expected key=value)";
      Error.Key = Item;
      return false;
    }
    Options.set(Item.substr(0, Eq), Item.substr(Eq + 1));
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

bool rc::parseStrategySpec(const std::string &Spec, std::string &Name,
                           StrategyOptions &Options, std::string *Error) {
  SpecError E;
  if (parseStrategySpec(Spec, Name, Options, E))
    return true;
  if (Error)
    *Error = E.Message;
  return false;
}

static bool isBoolValue(const std::string &V) {
  return V == "1" || V == "true" || V == "yes" || V == "0" || V == "false" ||
         V == "no";
}

bool rc::validateStrategyOptions(const StrategyInfo &Info,
                                 const StrategyOptions &Options,
                                 SpecError &Error) {
  Error = SpecError();
  auto fail = [&Error](const std::string &Message, const std::string &Key,
                       const std::string &Value) {
    Error.Message = Message;
    Error.Key = Key;
    Error.Value = Value;
    return false;
  };
  for (const auto &[Key, Value] : Options.entries()) {
    const StrategyOptionSpec *Spec = nullptr;
    for (const StrategyOptionSpec &S : Info.OptionSpecs)
      if (S.Key == Key) {
        Spec = &S;
        break;
      }
    if (!Spec) {
      std::string Known;
      for (const StrategyOptionSpec &S : Info.OptionSpecs)
        Known += (Known.empty() ? "" : ", ") + S.Key;
      return fail("strategy '" + Info.Name + "' does not take option '" +
                      Key + "' (got '" + Key + "=" + Value + "'" +
                      (Known.empty() ? "; it takes none)"
                                     : "; options: " + Known + ")"),
                  Key, Value);
    }
    if (Spec->Values.empty()) {
      if (!isBoolValue(Value))
        return fail("option '" + Key + "' of strategy '" + Info.Name +
                        "' expects a boolean, got '" + Value + "'",
                    Key, Value);
    } else if (std::find(Spec->Values.begin(), Spec->Values.end(), Value) ==
               Spec->Values.end()) {
      std::string Allowed;
      for (const std::string &V : Spec->Values)
        Allowed += (Allowed.empty() ? "" : "|") + V;
      return fail("option '" + Key + "' of strategy '" + Info.Name +
                      "' must be one of " + Allowed + ", got '" + Value + "'",
                  Key, Value);
    }
  }
  return true;
}

bool rc::validateStrategyOptions(const StrategyInfo &Info,
                                 const StrategyOptions &Options,
                                 std::string *Error) {
  SpecError E;
  if (validateStrategyOptions(Info, Options, E))
    return true;
  if (Error)
    *Error = E.Message;
  return false;
}

StrategyRegistry &StrategyRegistry::instance() {
  static StrategyRegistry Registry;
  return Registry;
}

void StrategyRegistry::add(StrategyInfo Info) {
  assert(!Info.Name.empty() && "strategy must be named");
  assert(!lookup(Info.Name) && "duplicate strategy name");
  assert(Info.Run && "strategy must have a runner");
  Strategies.push_back(std::move(Info));
}

const StrategyInfo *StrategyRegistry::lookup(const std::string &Name) const {
  for (const StrategyInfo &S : Strategies)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> Names;
  Names.reserve(Strategies.size());
  for (const StrategyInfo &S : Strategies)
    Names.push_back(S.Name);
  return Names;
}

StrategyRegistry::StrategyRegistry() {
  auto conservative = [](ConservativeRule Rule) {
    return [Rule](const CoalescingProblem &P, const StrategyOptions &,
                  StrategyContext &Ctx) {
      ConservativeResult R =
          conservativeCoalesce(P, Rule, &Ctx.Telemetry, Ctx.Cancel);
      Ctx.TimedOut = R.TimedOut;
      return R.Solution;
    };
  };
  // Theorem 5 on chordal inputs with k >= omega, brute-conservative on the
  // rest.
  auto chordal = [](ChordalChain Chain) {
    return [Chain](const CoalescingProblem &P, const StrategyOptions &,
                   StrategyContext &Ctx) {
      std::vector<unsigned> Peo;
      if (isChordal(P.G, &Peo) && P.K >= chordalCliqueNumber(P.G, Peo)) {
        ChordalStrategyResult R =
            chordalCoalesce(P, Chain, &Ctx.Telemetry, Ctx.Cancel);
        Ctx.TimedOut = R.TimedOut;
        return R.Solution;
      }
      ConservativeResult R = conservativeCoalesce(
          P, ConservativeRule::BruteForce, &Ctx.Telemetry, Ctx.Cancel);
      Ctx.TimedOut = R.TimedOut;
      return R.Solution;
    };
  };

  // Built-ins, in the historical comparison order of allStrategies().
  add({"aggressive", "weight-greedy merging, no register bound (upper bound)",
       [](const CoalescingProblem &P, const StrategyOptions &,
          StrategyContext &Ctx) {
         return aggressiveCoalesceGreedy(P, &Ctx.Telemetry).Solution;
       },
       {}});
  add({"briggs", "conservative coalescing, Briggs' test only",
       conservative(ConservativeRule::Briggs), {}});
  add({"george", "conservative coalescing, George's test (both directions)",
       conservative(ConservativeRule::George), {}});
  add({"briggs+george", "conservative coalescing, either test suffices",
       conservative(ConservativeRule::BriggsOrGeorge), {}});
  add({"brute-conservative",
       "conservative coalescing, merge-and-check greedy-k-colorability",
       conservative(ConservativeRule::BruteForce), {}});
  add({"optimistic",
       "Park-Moon aggressive + de-coalescing + restore "
       "(options: restore=bool, dissolve=cheapest|biggest)",
       [](const CoalescingProblem &P, const StrategyOptions &Options,
          StrategyContext &Ctx) {
         OptimisticOptions OO;
         OO.Restore = Options.getBool("restore", true);
         std::string Dissolve = Options.get("dissolve", "cheapest");
         assert((Dissolve == "cheapest" || Dissolve == "biggest") &&
                "dissolve must be cheapest or biggest");
         OO.DissolveCheapest = Dissolve != "biggest";
         OptimisticResult R =
             optimisticCoalesce(P, OO, &Ctx.Telemetry, Ctx.Cancel);
         Ctx.TimedOut = R.TimedOut;
         return R.Solution;
       },
       {{"restore", {}}, {"dissolve", {"cheapest", "biggest"}}}});
  add({"irc",
       "iterated register coalescing, George-Appel worklists "
       "(options: george=bool)",
       [](const CoalescingProblem &P, const StrategyOptions &Options,
          StrategyContext &Ctx) {
         IrcOptions IO;
         IO.UseGeorge = Options.getBool("george", true);
         return iteratedRegisterCoalescing(P, IO, &Ctx.Telemetry).Solution;
       },
       {{"george", {}}}});
  add({"chordal-thm5",
       "Theorem 5 chain strategy on chordal inputs with k >= omega "
       "(falls back to brute-conservative otherwise)",
       chordal(ChordalChain::Any), {}});
  add({"biased-select",
       "no merging; biased select-phase coloring only (Section 1)",
       [](const CoalescingProblem &P, const StrategyOptions &,
          StrategyContext &) {
         if (isGreedyKColorable(P.G, P.K))
           return biasedColoring(P).Solution;
         return identitySolution(P.G);
       },
       {}});
  add({"exact-chordal-dp",
       "Theorem 5 strategy driven by the clique-tree DP (minimal chains) "
       "on chordal inputs with k >= omega (falls back to "
       "brute-conservative otherwise)",
       chordal(ChordalChain::FewestMerges), {}});
  add({"exact-bb",
       "exact undo-stack branch-and-bound over affinity subsets "
       "(options: feasible=greedy|kcolor|any, nodes=10k|100k|1m|unlimited)",
       [](const CoalescingProblem &P, const StrategyOptions &Options,
          StrategyContext &Ctx) {
         ExactSearchOptions EO;
         std::string Feasible = Options.get("feasible", "greedy");
         if (Feasible == "any")
           EO.Feasibility = ExactFeasibility::Any;
         else if (Feasible == "kcolor")
           EO.Feasibility = ExactFeasibility::ExactColor;
         else
           EO.Feasibility = ExactFeasibility::Greedy;
         std::string Nodes = Options.get("nodes", "100k");
         if (Nodes == "10k")
           EO.NodeLimit = 10000;
         else if (Nodes == "100k")
           EO.NodeLimit = 100000;
         else if (Nodes == "1m")
           EO.NodeLimit = 1000000;
         ExactSearchResult R =
             exactCoalesceSearch(P, EO, &Ctx.Telemetry, Ctx.Cancel);
         Ctx.TimedOut = R.TimedOut;
         return R.Solution;
       },
       {{"feasible", {"greedy", "kcolor", "any"}},
        {"nodes", {"10k", "100k", "1m", "unlimited"}}}});
}
