//===- perfbench/Workloads.cpp - helpers shared by the workloads ----------===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace perfbench;

unsigned perfbench::scaledCount(unsigned PerTenSeconds, unsigned Seconds,
                                unsigned Floor) {
  unsigned Scaled = static_cast<unsigned>(
      std::lround(static_cast<double>(PerTenSeconds) * Seconds / 10.0));
  return std::max(Scaled, Floor);
}

void PassResult::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void PassResult::addQuality(double WeightRatio, double MovesRemaining) {
  WeightRatioSum += WeightRatio;
  ++WeightRatioCount;
  MovesRemainingSum += MovesRemaining;
  ++MovesRemainingCount;
}

int64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::secondsSince(int64_t StartNs) {
  return (nowNs() - StartNs) / 1e9;
}
