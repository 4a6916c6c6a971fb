//===- perfbench/Stats.cpp - sample summaries for the benchmark ----------===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace perfbench;

static size_t nearestRank(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
  return std::clamp<size_t>(Rank, 1, N);
}

double perfbench::percentileOfSorted(const std::vector<double> &Sorted,
                                     double P) {
  return Sorted[nearestRank(Sorted.size(), P) - 1];
}

bool perfbench::percentileReportable(size_t N, double P) {
  return N > 0 && N - nearestRank(N, P) >= 10;
}

double perfbench::reportablePercentile(std::vector<double> Samples,
                                       double P) {
  if (!percentileReportable(Samples.size(), P))
    return 0;
  std::sort(Samples.begin(), Samples.end());
  return percentileOfSorted(Samples, P);
}

SampleSummary perfbench::summarize(std::vector<double> Samples) {
  SampleSummary S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Median = percentileOfSorted(Samples, 50);
  for (double P : {99.9, 99.0, 90.0, 75.0}) {
    if (percentileReportable(S.N, P)) {
      S.TailPct = P;
      S.Tail = percentileOfSorted(Samples, P);
      break;
    }
  }
  return S;
}

std::string perfbench::percentileName(double P) {
  std::ostringstream OS;
  OS << "p" << P;
  return OS.str();
}

double perfbench::peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream Fields(Line.substr(6));
      double Kb = 0;
      Fields >> Kb;
      return Kb / 1024.0;
    }
  }
  return 0;
}
