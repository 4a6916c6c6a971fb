//===- perfbench/Stats.h - sample summaries for the benchmark --*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics the benchmark reports. A percentile is only reported
/// when at least ten samples lie beyond it, so a "p99" over 30 samples
/// (which is just the maximum) can never be printed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Sorted (ascending,
/// non-empty).
double percentileOfSorted(const std::vector<double> &Sorted, double P);

/// True when at least ten of \p N samples lie above the nearest-rank
/// percentile \p P.
bool percentileReportable(size_t N, double P);

/// Nearest-rank percentile \p P of \p Samples, or 0 unless at least ten
/// samples lie beyond it.
double reportablePercentile(std::vector<double> Samples, double P);

/// Median, sample count and the highest reportable tail percentile of one
/// timing.
struct SampleSummary {
  size_t N = 0;
  double Median = 0;
  /// Highest of 99.9/99/90/75 with ten samples beyond it; 0 when none.
  double TailPct = 0;
  double Tail = 0;
};

SampleSummary summarize(std::vector<double> Samples);

/// "p99", "p99.9", ... for a percentile level.
std::string percentileName(double P);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_STATS_H
