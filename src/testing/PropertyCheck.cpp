//===- testing/PropertyCheck.cpp - Property-based fuzz runner -------------===//

#include "testing/PropertyCheck.h"

#include "challenge/ChallengeBinary.h"
#include "challenge/ChallengeFormat.h"
#include "challenge/ChallengeInstance.h"
#include "coalescing/Conservative.h"
#include "graph/DimacsIO.h"
#include "graph/Generators.h"
#include "graph/GreedyColorability.h"
#include "ir/Function.h"
#include "ir/ProgramGenerator.h"
#include "testing/LegacyConservative.h"
#include "testing/Oracles.h"
#include "testing/Shrinker.h"

#include <fstream>
#include <ostream>
#include <sstream>

using namespace rc;
using namespace rc::testing;

//===----------------------------------------------------------------------===//
// Reproducer formatting and parsing.
//===----------------------------------------------------------------------===//

namespace {

/// Everything a reproducer file records.
struct ReproHeader {
  std::string Property;
  uint64_t Seed = 0;
  uint64_t Trial = 0;
  unsigned MaxSize = 40;
  bool HasProblem = false;
  CoalescingProblem Problem;
};

} // namespace

static std::string formatReproducer(const std::string &Property,
                                    const FuzzConfig &Config, uint64_t Trial,
                                    const std::string &Diagnostic,
                                    const CoalescingProblem *P,
                                    const ir::Function *F) {
  std::ostringstream OS;
  OS << "# rc_fuzz reproducer -- see docs/FUZZING.md\n";
  OS << "# " << Diagnostic << "\n";
  OS << "property " << Property << "\n";
  OS << "seed " << Config.Seed << "\n";
  OS << "trial " << Trial << "\n";
  OS << "max-size " << Config.MaxSize << "\n";
  if (P) {
    OS << "k " << P->K << "\n";
    OS << "begin-graph\n";
    writeDimacs(OS, P->G);
    OS << "end-graph\n";
    for (const Affinity &A : P->Affinities)
      OS << "affinity " << A.U + 1 << " " << A.V + 1 << " " << A.Weight
         << "\n";
  }
  if (F) {
    OS << "begin-ir\n";
    F->print(OS);
    OS << "end-ir\n";
  }
  return OS.str();
}

static bool parseReproducer(std::istream &IS, ReproHeader &Out,
                            std::string *Error) {
  auto fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "property") {
      if (!(LS >> Out.Property))
        return fail("bad property line: " + Line);
    } else if (Key == "seed") {
      if (!(LS >> Out.Seed))
        return fail("bad seed line: " + Line);
    } else if (Key == "trial") {
      if (!(LS >> Out.Trial))
        return fail("bad trial line: " + Line);
    } else if (Key == "max-size") {
      if (!(LS >> Out.MaxSize))
        return fail("bad max-size line: " + Line);
    } else if (Key == "k") {
      if (!(LS >> Out.Problem.K))
        return fail("bad k line: " + Line);
    } else if (Key == "begin-graph") {
      std::ostringstream Dimacs;
      while (std::getline(IS, Line) && Line != "end-graph")
        Dimacs << Line << "\n";
      std::istringstream DS(Dimacs.str());
      std::string Why;
      if (!readDimacs(DS, Out.Problem.G, &Why))
        return fail("bad DIMACS payload: " + Why);
      Out.HasProblem = true;
    } else if (Key == "affinity") {
      Affinity A;
      if (!(LS >> A.U >> A.V >> A.Weight) || A.U == 0 || A.V == 0)
        return fail("bad affinity line: " + Line);
      --A.U; // 1-based in the file, like DIMACS edges.
      --A.V;
      Out.Problem.Affinities.push_back(A);
    } else if (Key == "begin-ir") {
      // Informational only; IR properties replay by regeneration.
      while (std::getline(IS, Line) && Line != "end-ir")
        ;
    } else {
      return fail("unknown reproducer key: " + Key);
    }
  }
  if (Out.Property.empty())
    return fail("reproducer has no property line");
  return true;
}

//===----------------------------------------------------------------------===//
// Instance generators.
//===----------------------------------------------------------------------===//

static ir::GeneratorOptions randomGeneratorOptions(Rng &Rand,
                                                   unsigned MaxSize) {
  ir::GeneratorOptions Options;
  Options.NumBlocks =
      1 + static_cast<unsigned>(Rand.nextBelow(std::max(2u, MaxSize / 2)));
  Options.MaxInstructionsPerBlock =
      1 + static_cast<unsigned>(Rand.nextBelow(8));
  Options.BranchProbability = 0.8 * Rand.nextDouble();
  Options.MaxPhisPerJoin = static_cast<unsigned>(Rand.nextBelow(4));
  Options.CopyProbability = 0.1 + 0.4 * Rand.nextDouble();
  Options.NumReturnValues = 1 + static_cast<unsigned>(Rand.nextBelow(4));
  return Options;
}

/// Samples up to \p Count affinities between distinct non-interfering
/// vertices, with integer weights in 1..10.
static void sampleAffinities(CoalescingProblem &P, unsigned Count,
                             Rng &Rand) {
  unsigned N = P.G.numVertices();
  if (N < 2)
    return;
  for (unsigned I = 0; I < 3 * Count && P.Affinities.size() < Count; ++I) {
    unsigned U = static_cast<unsigned>(Rand.nextBelow(N));
    unsigned V = static_cast<unsigned>(Rand.nextBelow(N));
    if (U == V || P.G.hasEdge(U, V))
      continue;
    P.Affinities.push_back(
        {U, V, static_cast<double>(1 + Rand.nextBelow(10))});
  }
}

/// A generic graph-instance generator for the soundness property: a mix of
/// challenge-style chordal instances, program-derived instances, and plain
/// random graphs at pressure K = col(G) + slack.
static CoalescingProblem generateSoundnessInstance(Rng &Rand,
                                                   unsigned MaxSize) {
  switch (Rand.nextBelow(3)) {
  case 0: {
    ChallengeOptions Options;
    Options.NumValues =
        8 + static_cast<unsigned>(Rand.nextBelow(std::max(8u, MaxSize)));
    Options.TreeSize = Options.NumValues / 2 + 2;
    Options.MeanSubtreeSize = 2 + static_cast<unsigned>(Rand.nextBelow(4));
    Options.PressureSlack = static_cast<unsigned>(Rand.nextBelow(3));
    return generateChallengeInstance(Options, Rand);
  }
  case 1: {
    ProgramChallengeOptions Options;
    Options.NumBlocks =
        2 + static_cast<unsigned>(Rand.nextBelow(std::max(4u, MaxSize / 2)));
    Options.MaxInstructionsPerBlock =
        2 + static_cast<unsigned>(Rand.nextBelow(6));
    Options.PressureSlack = static_cast<unsigned>(Rand.nextBelow(3));
    return generateProgramChallengeInstance(Options, Rand);
  }
  default: {
    CoalescingProblem P;
    unsigned N = 4 + static_cast<unsigned>(Rand.nextBelow(std::max(4u,
                                                                   MaxSize)));
    P.G = randomGraph(N, 0.1 + 0.4 * Rand.nextDouble(), Rand);
    P.K = coloringNumber(P.G) + static_cast<unsigned>(Rand.nextBelow(3));
    sampleAffinities(P, N, Rand);
    return P;
  }
  }
}

/// A tiny instance for the exact differential oracle: at most 12 vertices,
/// either chordal (subtree intersection) or Erdos-Renyi, at pressure
/// K = col(G) + slack so the input is greedy-k-colorable.
static CoalescingProblem generateDifferentialInstance(Rng &Rand) {
  CoalescingProblem P;
  unsigned N = 4 + static_cast<unsigned>(Rand.nextBelow(9)); // 4..12
  if (Rand.flip(0.5))
    P.G = randomChordalGraph(N, N, 3, Rand);
  else
    P.G = randomGraph(N, 0.15 + 0.45 * Rand.nextDouble(), Rand);
  P.K = coloringNumber(P.G) + static_cast<unsigned>(Rand.nextBelow(2));
  sampleAffinities(P, N, Rand);
  return P;
}

/// An instance for the dense/sparse safety-test parity oracle. Half the
/// draws are sparse graphs of 520-679 vertices, so the sparse rows and the
/// arena's insert/erase bookkeeping see long rows over many words; the
/// rest are small dense-ish graphs where merges quickly build high-degree
/// classes. K rides along in P.K as the degree-cache pressure.
static CoalescingProblem generateSafetyParityInstance(Rng &Rand,
                                                      unsigned MaxSize) {
  CoalescingProblem P;
  if (Rand.flip(0.5)) {
    unsigned N = 520 + static_cast<unsigned>(Rand.nextBelow(160));
    P.G = randomGraph(N, 0.004 + 0.012 * Rand.nextDouble(), Rand);
  } else {
    unsigned N =
        8 + static_cast<unsigned>(Rand.nextBelow(std::max(8u, MaxSize)));
    P.G = randomGraph(N, 0.05 + 0.3 * Rand.nextDouble(), Rand);
  }
  P.K = 2 + static_cast<unsigned>(Rand.nextBelow(6));
  return P;
}

/// An instance for the merge-colorability parity oracle: chordal or
/// Erdos-Renyi graphs at tight pressure (usually K = col(G), so the input
/// is greedy-k-colorable and random merges readily create k-cores). A
/// quarter of the draws exceed 64 vertices so dense rows span several
/// words.
static CoalescingProblem generateMergeParityInstance(Rng &Rand,
                                                     unsigned MaxSize) {
  CoalescingProblem P;
  unsigned N =
      Rand.flip(0.25)
          ? 65 + static_cast<unsigned>(Rand.nextBelow(96))
          : 6 + static_cast<unsigned>(Rand.nextBelow(std::max(8u, MaxSize)));
  if (Rand.flip(0.5))
    P.G = randomChordalGraph(N, N, 3, Rand);
  else
    P.G = randomGraph(N, 0.05 + 0.35 * Rand.nextDouble(), Rand);
  P.K = coloringNumber(P.G) + (Rand.flip(0.25) ? 1u : 0u);
  return P;
}

/// A tiny instance for the exact gap oracle. Biased toward chordal graphs
/// (the per-affinity Theorem 5 differential only runs on them) with tight
/// pressure (K = omega, where the interval chains actually matter) mixed
/// with slack 1..2 and occasional Erdos-Renyi instances for the
/// optimum-agreement and strategy-bound halves.
static CoalescingProblem generateGapInstance(Rng &Rand) {
  CoalescingProblem P;
  unsigned N = 4 + static_cast<unsigned>(Rand.nextBelow(9)); // 4..12
  if (Rand.flip(0.7))
    P.G = randomChordalGraph(N, N, 3, Rand);
  else
    P.G = randomGraph(N, 0.15 + 0.45 * Rand.nextDouble(), Rand);
  P.K = coloringNumber(P.G) + static_cast<unsigned>(Rand.nextBelow(3));
  sampleAffinities(P, N, Rand);
  return P;
}

//===----------------------------------------------------------------------===//
// Property registry.
//===----------------------------------------------------------------------===//

/// Builds a trial runner for an IR-based oracle: generate, check, shrink,
/// and dump the minimized function plus its regeneration seed.
static TrialResult
runIrTrial(const std::string &Name,
           const std::function<bool(const ir::Function &, std::string *)>
               &Oracle,
           Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
  ir::GeneratorOptions Options = randomGeneratorOptions(Rand, Config.MaxSize);
  ir::Function F = ir::generateRandomSsaFunction(Options, Rand);

  TrialResult Result;
  if (Oracle(F, &Result.Error))
    return Result;

  Result.Ok = false;
  ir::Function Minimal = shrinkFunction(
      std::move(F), [&](const ir::Function &Candidate) {
        std::string Ignored;
        return !Oracle(Candidate, &Ignored);
      });
  Oracle(Minimal, &Result.Error); // Refresh the diagnostic post-shrink.
  Result.Reproducer = formatReproducer(Name, Config, Trial, Result.Error,
                                       nullptr, &Minimal);
  return Result;
}

/// Builds a trial runner for a graph-instance oracle. \p Check must be
/// deterministic in (instance, TrialSeedValue) so shrinking and replay see
/// the same behavior.
static TrialResult runProblemTrial(
    const std::string &Name, const CoalescingProblem &P,
    const std::function<bool(const CoalescingProblem &, uint64_t,
                             std::string *)> &Check,
    const FuzzConfig &Config, uint64_t Trial) {
  uint64_t TrialSeedValue = trialSeed(Config.Seed, Name, Trial);
  TrialResult Result;
  if (Check(P, TrialSeedValue, &Result.Error))
    return Result;

  Result.Ok = false;
  CoalescingProblem Minimal =
      shrinkProblem(P, [&](const CoalescingProblem &Candidate) {
        std::string Ignored;
        return !Check(Candidate, TrialSeedValue, &Ignored);
      });
  Check(Minimal, TrialSeedValue, &Result.Error);
  Result.Reproducer = formatReproducer(Name, Config, Trial, Result.Error,
                                       &Minimal, nullptr);
  return Result;
}

/// Merge-script oracle wrapper: the script Rng is derived from the trial
/// seed (not from the generation stream), so a parsed reproducer instance
/// replays the exact same merge sequence.
static bool checkWorkGraphOnInstance(const CoalescingProblem &P,
                                     uint64_t TrialSeedValue,
                                     std::string *Error) {
  Rng OpRand(deriveSeed(TrialSeedValue, "workgraph-ops"));
  return checkWorkGraphIncremental(P.G, 4 * P.G.numVertices() + 8, OpRand,
                                   Error);
}

/// Rollback-script oracle wrapper; like the merge-script wrapper, the op
/// sequence is derived from the trial seed so reproducers replay exactly.
static bool checkRollbackOnInstance(const CoalescingProblem &P,
                                    uint64_t TrialSeedValue,
                                    std::string *Error) {
  Rng OpRand(deriveSeed(TrialSeedValue, "workgraph-rollback-ops"));
  return checkWorkGraphRollback(P.G, 6 * P.G.numVertices() + 8, OpRand,
                                Error);
}

/// Safety-test parity oracle wrapper; the op script is derived from the
/// trial seed so reproducers replay the exact merge/rollback/probe
/// sequence.
static bool checkSafetyParityOnInstance(const CoalescingProblem &P,
                                        uint64_t TrialSeedValue,
                                        std::string *Error) {
  Rng OpRand(deriveSeed(TrialSeedValue, "sparse-tiled-ops"));
  unsigned K = P.K ? P.K : 4;
  return checkSparseTiledParity(P.G, K, 3 * P.G.numVertices() / 2 + 16,
                                OpRand, Error);
}

/// Merge-colorability parity wrapper; the probe script is derived from
/// the trial seed so reproducers replay the exact merge sequence.
static bool checkMergeParityOnInstance(const CoalescingProblem &P,
                                       uint64_t TrialSeedValue,
                                       std::string *Error) {
  Rng OpRand(deriveSeed(TrialSeedValue, "merge-colorability-ops"));
  unsigned K = P.K ? P.K : coloringNumber(P.G);
  return checkMergeColorabilityParity(P.G, K, 2 * P.G.numVertices() + 8,
                                      OpRand, Error);
}

static bool checkSoundnessOnInstance(const CoalescingProblem &P, uint64_t,
                                     std::string *Error) {
  return checkCoalescerSoundness(P, Error);
}

static bool checkDifferentialOnInstance(const CoalescingProblem &P, uint64_t,
                                        std::string *Error) {
  return checkDifferentialExact(P, Error);
}

static bool checkGapSoundOnInstance(const CoalescingProblem &P, uint64_t,
                                    std::string *Error) {
  return checkExactGapSound(P, Error);
}

/// Worklist-parity oracle: the incremental conservative driver must produce
/// the exact class assignment (and rejection census) of the legacy fixpoint
/// driver, under every safety rule.
static bool checkWorklistParityOnInstance(const CoalescingProblem &P,
                                          uint64_t, std::string *Error) {
  static const std::pair<ConservativeRule, const char *> Rules[] = {
      {ConservativeRule::Briggs, "briggs"},
      {ConservativeRule::George, "george"},
      {ConservativeRule::BriggsOrGeorge, "briggs-or-george"},
      {ConservativeRule::BruteForce, "brute-force"},
  };
  for (const auto &[Rule, Name] : Rules) {
    ConservativeResult New = conservativeCoalesce(P, Rule);
    ConservativeResult Legacy = conservativeCoalesceLegacy(P, Rule);
    if (New.Solution.ClassIds != Legacy.Solution.ClassIds) {
      if (Error)
        *Error = std::string("conservative-worklist-parity: rule ") + Name +
                 ": worklist driver solution differs from legacy fixpoint "
                 "driver";
      return false;
    }
    if (New.TestRejections != Legacy.TestRejections ||
        New.InterferenceRejections != Legacy.InterferenceRejections) {
      if (Error) {
        std::ostringstream OS;
        OS << "conservative-worklist-parity: rule " << Name
           << ": rejection census mismatch (test " << New.TestRejections
           << " vs " << Legacy.TestRejections << ", interference "
           << New.InterferenceRejections << " vs "
           << Legacy.InterferenceRejections << ")";
        *Error = OS.str();
      }
      return false;
    }
  }
  return true;
}

/// Format round-trip oracle: the text and binary serializations must both
/// reconstruct the instance exactly, and the content-sniffing reader must
/// classify both streams correctly. "Exactly" is judged on the canonical
/// binary rendering (sorted edge set, affinity list, k, n), which is the
/// same instance-identity the digest cache key uses.
static bool checkFormatRoundTripOnInstance(const CoalescingProblem &P,
                                           uint64_t, std::string *Error) {
  auto canonical = [](const CoalescingProblem &Q) {
    std::ostringstream OS;
    writeChallengeBinary(OS, Q);
    return OS.str();
  };
  const std::string Want = canonical(P);

  std::ostringstream Bin;
  writeChallengeBinary(Bin, P);
  std::istringstream BinIn(Bin.str());
  CoalescingProblem FromBinary;
  std::string ReadError;
  if (!readChallengeAuto(BinIn, FromBinary, &ReadError)) {
    if (Error)
      *Error = "format-roundtrip: binary re-read failed: " + ReadError;
    return false;
  }
  if (canonical(FromBinary) != Want) {
    if (Error)
      *Error = "format-roundtrip: binary round trip changed the instance";
    return false;
  }

  std::ostringstream Text;
  writeChallenge(Text, P);
  std::istringstream TextIn(Text.str());
  CoalescingProblem FromText;
  if (!readChallengeAuto(TextIn, FromText, &ReadError)) {
    if (Error)
      *Error = "format-roundtrip: text re-read failed: " + ReadError;
    return false;
  }
  if (canonical(FromText) != Want) {
    if (Error)
      *Error = "format-roundtrip: text round trip changed the instance";
    return false;
  }
  return true;
}

/// Order-invariance oracle wrapper: the shuffle Rng is derived from the
/// trial seed, so a parsed reproducer replays the same insertion order.
static bool checkOrderInvarianceOnInstance(const CoalescingProblem &P,
                                           uint64_t TrialSeedValue,
                                           std::string *Error) {
  Rng OrderRand(deriveSeed(TrialSeedValue, "order-invariance"));
  return checkOrderInvariance(P, OrderRand, Error);
}

const std::vector<Property> &testing::allProperties() {
  static const std::vector<Property> Registry = [] {
    std::vector<Property> Props;

    Props.push_back(
        {"ssa-chordal",
         "Theorem 1: strict-SSA interference graphs are chordal, omega = "
         "Maxlive",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           return runIrTrial(
               "ssa-chordal",
               [](const ir::Function &F, std::string *E) {
                 return checkSsaChordalMaxlive(F, E);
               },
               Rand, Config, Trial);
         },
         nullptr});

    Props.push_back(
        {"outofssa-semantics",
         "out-of-SSA lowering preserves interpreter-observable behavior",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           return runIrTrial("outofssa-semantics", checkOutOfSsaSemantics,
                             Rand, Config, Trial);
         },
         nullptr});

    Props.push_back(
        {"coalescer-sound",
         "conservative rules / IRC / chordal strategy never merge "
         "interferences and keep greedy-k-colorability",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P =
               generateSoundnessInstance(Rand, Config.MaxSize);
           // Honor the --strategies filter; replay (below) always re-checks
           // every registered strategy.
           const std::vector<std::string> *Only =
               Config.Strategies.empty() ? nullptr : &Config.Strategies;
           return runProblemTrial(
               "coalescer-sound", P,
               [Only](const CoalescingProblem &Instance, uint64_t,
                      std::string *Error) {
                 return checkCoalescerSoundness(Instance, Error, Only);
               },
               Config, Trial);
         },
         checkSoundnessOnInstance});

    Props.push_back(
        {"exact-differential",
         "heuristics bounded by exact branch-and-bound on <= 12 vertices",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P = generateDifferentialInstance(Rand);
           return runProblemTrial("exact-differential", P,
                                  checkDifferentialOnInstance, Config,
                                  Trial);
         },
         checkDifferentialOnInstance});

    Props.push_back(
        {"exact-gap-sound",
         "exact baselines agree on the optimum and bound every strategy; "
         "the three Theorem 5 decision implementations agree per affinity",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P = generateGapInstance(Rand);
           return runProblemTrial("exact-gap-sound", P,
                                  checkGapSoundOnInstance, Config, Trial);
         },
         checkGapSoundOnInstance});

    Props.push_back(
        {"conservative-worklist-parity",
         "incremental worklist conservative driver matches the legacy "
         "fixpoint driver under every rule",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P =
               generateSoundnessInstance(Rand, Config.MaxSize);
           return runProblemTrial("conservative-worklist-parity", P,
                                  checkWorklistParityOnInstance, Config,
                                  Trial);
         },
         checkWorklistParityOnInstance});

    Props.push_back(
        {"format-roundtrip",
         "challenge text and binary serializations round-trip instances "
         "exactly, with content-based format detection",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P =
               generateSoundnessInstance(Rand, Config.MaxSize);
           return runProblemTrial("format-roundtrip", P,
                                  checkFormatRoundTripOnInstance, Config,
                                  Trial);
         },
         checkFormatRoundTripOnInstance});

    Props.push_back(
        {"order-invariance",
         "every strategy's outcome bytes are the same for any edge "
         "insertion order and after text and RCBF round trips",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P =
               generateSoundnessInstance(Rand, Config.MaxSize);
           return runProblemTrial("order-invariance", P,
                                  checkOrderInvarianceOnInstance, Config,
                                  Trial);
         },
         checkOrderInvarianceOnInstance});

    Props.push_back(
        {"workgraph-incremental",
         "WorkGraph merge state matches a rebuild-from-scratch quotient",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P;
           unsigned N = 2 + static_cast<unsigned>(Rand.nextBelow(
                                std::max(4u, Config.MaxSize)));
           P.G = randomGraph(N, 0.05 + 0.45 * Rand.nextDouble(), Rand);
           return runProblemTrial("workgraph-incremental", P,
                                  checkWorkGraphOnInstance, Config, Trial);
         },
         checkWorkGraphOnInstance});

    Props.push_back(
        {"sparse-tiled-parity",
         "dense and sparse briggsSafe/georgeSafe match the textbook rules "
         "on the quotient, and their watch sets agree, through merges and "
         "rollbacks",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P =
               generateSafetyParityInstance(Rand, Config.MaxSize);
           return runProblemTrial("sparse-tiled-parity", P,
                                  checkSafetyParityOnInstance, Config, Trial);
         },
         checkSafetyParityOnInstance});

    Props.push_back(
        {"workgraph-rollback",
         "checkpoint/rollback restores the partition; dense and sparse "
         "adjacency representations agree",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P;
           unsigned N = 2 + static_cast<unsigned>(Rand.nextBelow(
                                std::max(4u, Config.MaxSize)));
           P.G = randomGraph(N, 0.05 + 0.45 * Rand.nextDouble(), Rand);
           return runProblemTrial("workgraph-rollback", P,
                                  checkRollbackOnInstance, Config, Trial);
         },
         checkRollbackOnInstance});

    Props.push_back(
        {"merge-colorability-parity",
         "the local post-merge greedy-k check matches the whole-quotient "
         "peel (decision and stuck set) in dense and sparse mode",
         [](Rng &Rand, const FuzzConfig &Config, uint64_t Trial) {
           CoalescingProblem P = generateMergeParityInstance(Rand,
                                                             Config.MaxSize);
           return runProblemTrial("merge-colorability-parity", P,
                                  checkMergeParityOnInstance, Config, Trial);
         },
         checkMergeParityOnInstance});

    return Props;
  }();
  return Registry;
}

const Property *testing::findProperty(const std::string &Name) {
  for (const Property &P : allProperties())
    if (P.Name == Name)
      return &P;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Run and replay.
//===----------------------------------------------------------------------===//

FuzzReport testing::runFuzz(const FuzzConfig &Config, std::ostream &Log) {
  FuzzReport Report;

  std::vector<const Property *> Selected;
  if (Config.Properties.empty()) {
    for (const Property &P : allProperties())
      Selected.push_back(&P);
  } else {
    for (const std::string &Name : Config.Properties) {
      if (const Property *P = findProperty(Name)) {
        Selected.push_back(P);
      } else {
        Log << "error: unknown property '" << Name << "'\n";
        Report.AllKnown = false;
      }
    }
  }

  for (const Property *Prop : Selected) {
    PropertyStats Stats;
    Stats.Name = Prop->Name;
    for (uint64_t Trial = 0; Trial < Config.Trials; ++Trial) {
      Rng Rand(trialSeed(Config.Seed, Prop->Name, Trial));
      TrialResult Result = Prop->RunTrial(Rand, Config, Trial);
      ++Stats.Trials;
      if (Result.Ok)
        continue;
      ++Stats.Failures;
      if (Stats.FirstError.empty())
        Stats.FirstError = Result.Error;
      Log << "FAIL " << Prop->Name << " trial " << Trial << ": "
          << Result.Error << "\n";
      if (!Config.ReproDir.empty()) {
        std::ostringstream Name;
        Name << Config.ReproDir << "/" << Prop->Name << "-seed"
             << Config.Seed << "-trial" << Trial << ".repro";
        std::ofstream Out(Name.str());
        if (Out) {
          Out << Result.Reproducer;
          Stats.ReproFiles.push_back(Name.str());
          Log << "  reproducer: " << Name.str() << "\n";
        } else {
          Log << "  (could not write reproducer to " << Name.str() << ")\n";
        }
      }
    }
    Log << Stats.Name << ": " << Stats.Trials << " trials, "
        << Stats.Failures << " failures\n";
    Report.PerProperty.push_back(std::move(Stats));
  }
  return Report;
}

bool testing::replayReproducer(const std::string &Path, std::ostream &Log,
                               std::string *Error) {
  auto fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  std::ifstream In(Path);
  if (!In)
    return fail("cannot open " + Path);
  ReproHeader Header;
  if (!parseReproducer(In, Header, Error))
    return false;
  const Property *Prop = findProperty(Header.Property);
  if (!Prop)
    return fail("unknown property '" + Header.Property + "' in " + Path);

  uint64_t TrialSeedValue =
      trialSeed(Header.Seed, Header.Property, Header.Trial);
  if (Header.HasProblem && Prop->CheckInstance) {
    std::string Why;
    if (!Prop->CheckInstance(Header.Problem, TrialSeedValue, &Why))
      return fail(Header.Property + " still fails on " + Path + ": " + Why);
    Log << "PASS " << Path << " (" << Header.Property << ", "
        << Header.Problem.G.numVertices() << " vertices)\n";
    return true;
  }

  // Regenerate the trial from its recorded seed.
  FuzzConfig Config;
  Config.Seed = Header.Seed;
  Config.MaxSize = Header.MaxSize;
  Config.ReproDir.clear();
  Rng Rand(TrialSeedValue);
  TrialResult Result = Prop->RunTrial(Rand, Config, Header.Trial);
  if (!Result.Ok)
    return fail(Header.Property + " still fails on " + Path + ": " +
                Result.Error);
  Log << "PASS " << Path << " (" << Header.Property << ", regenerated from "
      << "seed)\n";
  return true;
}
