//===- testing/PropertyCheck.h - Property-based fuzz runner -----*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The property-based fuzzing harness: a registry of named properties (each
/// pairs an instance generator with an oracle from testing/Oracles.h), a
/// seeded trial runner with per-property counters, and reproducer
/// write/replay. On a failing trial the instance is minimized with
/// testing/Shrinker and dumped as a textual reproducer (seed, trial, and --
/// for graph instances -- an embedded DIMACS payload with affinity lines;
/// for IR instances the function text plus the regeneration seed).
///
/// Registered properties:
///   ssa-chordal                  Theorem 1 on random strict-SSA functions
///   outofssa-semantics           out-of-SSA preserves interpreter behavior
///   coalescer-sound              conservative/IRC/chordal coalescers stay
///                                sound
///   exact-differential           heuristics vs exact search on <= 12
///                                vertices
///   exact-gap-sound              exact baselines agree on the optimum,
///                                bound every strategy, and the three
///                                Theorem 5 decisions agree per affinity
///   conservative-worklist-parity worklist driver vs legacy fixpoint driver
///   format-roundtrip             text/binary serializations round-trip
///                                instances exactly (auto-detected)
///   workgraph-incremental        WorkGraph vs rebuild-from-scratch
///   sparse-tiled-parity          tiled bit-row sweeps vs merge-walks on
///                                sparse cached Briggs/George tests
///   workgraph-rollback           checkpoint/rollback restores the partition
///   merge-colorability-parity    local post-merge greedy-k check vs the
///                                whole-quotient peel
///
//===----------------------------------------------------------------------===//

#ifndef TESTING_PROPERTYCHECK_H
#define TESTING_PROPERTYCHECK_H

#include "coalescing/Problem.h"
#include "support/Random.h"
#include "testing/FuzzConfig.h"

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace rc {
namespace testing {

/// Outcome of a single property trial.
struct TrialResult {
  bool Ok = true;
  /// Oracle diagnostic of the (minimized) failure.
  std::string Error;
  /// Full reproducer text, ready to write to disk (failures only).
  std::string Reproducer;
};

/// A named, registered property.
struct Property {
  std::string Name;
  /// One-line description shown by `rc_fuzz --list`.
  std::string Summary;
  /// Runs one trial: generates an instance from \p Rand (bounded by
  /// Config.MaxSize), checks the oracle, and shrinks on failure.
  std::function<TrialResult(Rng &Rand, const FuzzConfig &Config,
                            uint64_t Trial)>
      RunTrial;
  /// Re-checks the oracle on a parsed graph instance (replay of an embedded
  /// DIMACS payload); null for IR-based properties, which replay by
  /// regeneration from the recorded seed.
  std::function<bool(const CoalescingProblem &P, uint64_t TrialSeedValue,
                     std::string *Error)>
      CheckInstance;
};

/// The property registry.
const std::vector<Property> &allProperties();

/// Looks a property up by name; nullptr when unknown.
const Property *findProperty(const std::string &Name);

/// Per-property counters of a fuzz run.
struct PropertyStats {
  std::string Name;
  unsigned Trials = 0;
  unsigned Failures = 0;
  /// Diagnostic of the first failure.
  std::string FirstError;
  /// Reproducer files written for this property.
  std::vector<std::string> ReproFiles;
};

/// Aggregated outcome of a fuzz run.
struct FuzzReport {
  std::vector<PropertyStats> PerProperty;
  bool AllKnown = true;

  bool allPassed() const {
    if (!AllKnown)
      return false;
    for (const PropertyStats &S : PerProperty)
      if (S.Failures)
        return false;
    return true;
  }
};

/// Runs the configured properties for Config.Trials seeded trials each,
/// logging progress to \p Log and writing reproducers into Config.ReproDir
/// (when non-empty). Fully deterministic in Config.Seed.
FuzzReport runFuzz(const FuzzConfig &Config, std::ostream &Log);

/// Replays one reproducer file: re-checks the embedded graph instance when
/// present, otherwise regenerates the trial from the recorded seed.
/// \returns true when the property now passes.
bool replayReproducer(const std::string &Path, std::ostream &Log,
                      std::string *Error);

} // namespace testing
} // namespace rc

#endif // TESTING_PROPERTYCHECK_H
