//===- perfbench/Workloads.h - the benchmark's four workloads --*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload does a fixed amount of work per run: its inputs are a
/// list derived from the seed and the run length, never a time window, so
/// two runs of one seed do identical work. A run is
///   setup (repeated; inputs must come out byte-identical every time)
///   -> the measured pass (checked)
///   -> the reference pass the measured outputs are compared against
///   -> with tracing: a traced repeat of the pass plus layer probes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  uint64_t Seed = 1;
  /// Nominal run length; scales the size of the fixed input list.
  unsigned Seconds = 10;
  /// Directory for the run's files (corpus, socket); created and removed
  /// by the caller.
  std::string WorkDir;
};

/// Work scale for a run of \p Seconds: the input lists are sized for ten
/// seconds and scaled linearly, with \p Floor as the minimum count.
unsigned scaledCount(unsigned PerTenSeconds, unsigned Seconds,
                     unsigned Floor = 1);

/// The checked result of one pass over the fixed work.
struct PassResult {
  double WallS = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Whole-run checks (output digests) on top of the per-operation ones.
  bool RunChecksPassed = true;
  double WeightRatioSum = 0;
  uint64_t WeightRatioCount = 0;
  double MovesRemainingSum = 0;
  uint64_t MovesRemainingCount = 0;
  /// Per-operation latency in ms (requests, functions); empty on sweeps.
  std::vector<double> LatencyMs;
  /// Spilled values per allocation (ir-pipeline only).
  double SpilledSum = 0;
  uint64_t SpilledCount = 0;
  std::vector<std::string> Failures;

  /// Counts one failed operation and keeps the first few diagnostics.
  void fail(const std::string &Why);
  void addQuality(double WeightRatio, double MovesRemaining);
};

/// Per-layer numbers from the traced run: timing samples in milliseconds
/// keyed by layer name ("ir.liveness"), and plain values (counters,
/// ratios) keyed by metric name.
struct LayerReport {
  std::map<std::string, std::vector<double>> TimingsMs;
  std::map<std::string, double> Values;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed. Throws std::runtime_error when they
  /// cannot be built.
  virtual void setup() = 0;
  /// A digest of the inputs setup() built (not part of the timed setup).
  virtual std::string inputDigest() const = 0;
  /// How often a run repeats setup; setup_s is the median. Short setups
  /// repeat more, so the median rests on about the same amount of time.
  virtual unsigned setupRepetitions() const { return 5; }
  /// Runs the fixed work once and checks what can be checked on the fly.
  virtual PassResult pass() = 0;
  /// Computes the reference outputs (once) and compares \p P's outputs
  /// against them, failing operations in \p P that differ.
  virtual void check(PassResult &P) = 0;
  /// Layer measurements of the traced run: counters gathered by the last
  /// pass plus probes timed outside it.
  virtual void layers(LayerReport &R) = 0;
  /// One line describing the fixed work.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> makeSweepDense(const RunConfig &C);
std::unique_ptr<Workload> makeSweepSparse(const RunConfig &C);
std::unique_ptr<Workload> makeServiceSocket(const RunConfig &C);
std::unique_ptr<Workload> makeIrPipeline(const RunConfig &C);

/// Seconds since \p Start on the steady clock.
double secondsSince(int64_t StartNs);
int64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
