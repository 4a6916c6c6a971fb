//===- coalescing/Telemetry.h - Engine instrumentation ----------*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumentation for the shared coalescing engine. The WorkGraph merge
/// engine and the strategy drivers emit EngineEvents (merge attempted,
/// Briggs/George test run + outcome, colorability check, de-coalesce, ...);
/// a CoalescingTelemetry struct accumulates them as counters plus a timer
/// for colorability checks. Strategies surface their telemetry through
/// StrategyOutcome and the JSON emitter, so the Appel-George comparison can
/// report not just what each strategy coalesced but how much work it did.
///
/// Two hooks exist on the engine:
///  - attachTelemetry(CoalescingTelemetry*): inlined counter increments,
///    cheap enough for the hot path (a null check when detached);
///  - setObserver(EngineObserver*): a virtual callback per committed merge
///    naming the classes it touched (the incremental conservative driver's
///    reactivation source).
///
//===----------------------------------------------------------------------===//

#ifndef COALESCING_TELEMETRY_H
#define COALESCING_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace rc {

class JsonWriter;

/// Events emitted by the WorkGraph engine and the safety-test helpers that
/// operate on it.
enum class EngineEvent : unsigned {
  MergeAttempted,      ///< A merge probe was considered by a driver.
  MergeCommitted,      ///< WorkGraph::merge performed a merge.
  MergeRolledBack,     ///< A merge was undone by rollback.
  CheckpointTaken,     ///< WorkGraph::checkpoint.
  RollbackPerformed,   ///< WorkGraph::rollback / rollbackTo.
  InterferenceQuery,   ///< WorkGraph::interfere class-pair test.
  BriggsTestRun,       ///< briggsTest invoked.
  BriggsTestPassed,    ///< briggsTest accepted the merge.
  GeorgeTestRun,       ///< georgeTest invoked (one direction).
  GeorgeTestPassed,    ///< georgeTest accepted the merge.
  BruteForceTestRun,   ///< bruteForceTest invoked.
  BruteForceTestPassed,///< bruteForceTest accepted the merge.
  ColorabilityCheck,   ///< A greedy-k-colorability check ran.
  DeCoalesce,          ///< Optimistic de-coalescing dissolved a class.
  AffinityRestored,    ///< Optimistic restore re-coalesced an affinity.
  WorklistPush,        ///< An affinity entered the conservative worklist.
  WorklistReactivation,///< A parked affinity was dirtied by a merge.
  CachedTestSkip,      ///< A clean parked affinity was skipped untested.
};

/// Returns a short stable name for \p E (used in JSON output).
const char *engineEventName(EngineEvent E);

/// Counters + timers accumulated from EngineEvents. All counters are
/// monotone; committed merges that survive are Merges - MergesRolledBack.
struct CoalescingTelemetry {
  uint64_t MergeAttempts = 0;
  uint64_t Merges = 0;
  uint64_t MergesRolledBack = 0;
  uint64_t Checkpoints = 0;
  uint64_t Rollbacks = 0;
  uint64_t InterferenceQueries = 0;
  uint64_t BriggsTests = 0;
  uint64_t BriggsPassed = 0;
  uint64_t GeorgeTests = 0;
  uint64_t GeorgePassed = 0;
  uint64_t BruteForceTests = 0;
  uint64_t BruteForcePassed = 0;
  uint64_t ColorabilityChecks = 0;
  uint64_t DeCoalesces = 0;
  uint64_t Restores = 0;
  uint64_t WorklistPushes = 0;
  uint64_t WorklistReactivations = 0;
  uint64_t CachedTestSkips = 0;
  /// Wall time spent inside colorability checks instrumented by the engine.
  int64_t ColorabilityMicros = 0;

  /// Routes one event to its counter.
  void count(EngineEvent E);

  /// Conservative safety tests run (Briggs + George + brute force).
  uint64_t conservativeTests() const {
    return BriggsTests + GeorgeTests + BruteForceTests;
  }
  /// Conservative safety tests that rejected their merge.
  uint64_t conservativeTestFailures() const {
    return conservativeTests() -
           (BriggsPassed + GeorgePassed + BruteForcePassed);
  }

  /// Accumulates \p Other into this struct (suite-level aggregation).
  void add(const CoalescingTelemetry &Other);
};

/// Observer of the engine's committed merges.
class EngineObserver {
public:
  virtual ~EngineObserver() = default;
  /// Called once per committed merge with the classes the merge touched:
  /// the surviving representative, the absorbed class, and every class
  /// whose degree dropped (a neighbor of both endpoints). Fires on the
  /// merge only, not on its rollback.
  virtual void onMergeTouched(unsigned Root, unsigned Loser,
                              const std::vector<unsigned> &DegreeDropped) = 0;
};

/// Adds the elapsed microseconds to \p Micros on destruction; no-op when
/// \p Micros is null (telemetry detached).
class ScopedMicros {
public:
  explicit ScopedMicros(int64_t *Micros)
      : Micros(Micros),
        Start(Micros ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point()) {}
  ~ScopedMicros() {
    if (Micros)
      *Micros += std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  }
  ScopedMicros(const ScopedMicros &) = delete;
  ScopedMicros &operator=(const ScopedMicros &) = delete;

private:
  int64_t *Micros;
  std::chrono::steady_clock::time_point Start;
};

/// Writes \p T as a JSON object (no trailing newline). The writer's timing
/// mode decides whether colorability_micros is emitted or zeroed.
void writeTelemetryJson(JsonWriter &W, const CoalescingTelemetry &T);

/// Convenience wrapper writing to a bare stream with timing included.
void writeTelemetryJson(std::ostream &OS, const CoalescingTelemetry &T);

} // namespace rc

#endif // COALESCING_TELEMETRY_H
