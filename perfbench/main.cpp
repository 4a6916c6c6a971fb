//===- perfbench/main.cpp - the repository's end-to-end benchmark ---------===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rc_perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload's fixed work, checks every output, and prints every
/// value it computed as the last line of standard output, one JSON object:
///   {"correct":..., "attempted":..., "failed":..., "values":{name: number}}
/// With --trace 0 the values are the end-to-end ones, measured with tracing
/// off. With --trace 1 the run repeats the pass with spans on and reports
/// the per-layer values instead, plus the tracing overhead. run.py picks
/// the metrics and their units from BENCHMARK.json. Lines before the result
/// start with '#' and are for people.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "support/ArgParser.h"

#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Every per-layer value the traced run computed: each timing X as X_ms
/// (median), X.n (sample count) and X.p90_ms (0 unless ten samples lie
/// beyond it), then the plain values, which win on a name clash.
std::map<std::string, double> layerValues(const LayerReport &R) {
  std::map<std::string, double> Out;
  for (const auto &[Stem, Samples] : R.TimingsMs) {
    Out[Stem + "_ms"] = summarize(Samples).Median;
    Out[Stem + ".n"] = static_cast<double>(Samples.size());
    Out[Stem + ".p90_ms"] = reportablePercentile(Samples, 90);
  }
  for (const auto &[Name, Value] : R.Values)
    Out[Name] = Value;
  return Out;
}

std::string jsonNumber(double V) {
  std::ostringstream OS;
  OS << std::setprecision(17) << V;
  return OS.str();
}

/// Debug and sanitizer builds measure the wrong code; refuse them.
bool releaseBuild(std::string &Why) {
  std::string Type = RC_PERFBENCH_BUILD_TYPE;
  if (Type != "Release" && Type != "RelWithDebInfo") {
    Why = "build type " + Type + " is not Release or RelWithDebInfo";
    return false;
  }
#if !defined(__OPTIMIZE__)
  Why = "built without optimization";
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Why = "built with a sanitizer";
  return false;
#else
  return true;
#endif
}

void printLayerTable(const LayerReport &R,
                     const std::map<std::string, double> &SelfMs) {
  std::cout << "# layer timings (ms): name n median tail self_total\n";
  for (const auto &[Name, Samples] : R.TimingsMs) {
    SampleSummary S = summarize(Samples);
    std::cout << "#   " << std::left << std::setw(38) << Name << std::right
              << std::setw(7) << S.N << std::setw(12) << std::setprecision(4)
              << S.Median;
    if (S.TailPct > 0)
      std::cout << "  " << percentileName(S.TailPct) << "=" << S.Tail;
    else
      std::cout << "  (too few samples for a percentile)";
    if (auto It = SelfMs.find(Name); It != SelfMs.end())
      std::cout << "  self=" << It->second;
    std::cout << "\n";
  }
}

void printPass(const char *Label, const PassResult &P) {
  std::cout << "# " << Label << ": wall " << std::setprecision(6) << P.WallS
            << " s, " << P.Attempted << " operations, " << P.Failed
            << " failed" << (P.RunChecksPassed ? "" : ", run checks FAILED")
            << "\n";
  for (const std::string &F : P.Failures)
    std::cout << "#   failure: " << F << "\n";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName;
  std::string WorkDir = ".bench_build/perfbench-work";
  long long Seed = 1, Seconds = 10, Trace = 0;
  rc::ArgParser Parser("rc_perfbench",
                       "--workload NAME --seed N --seconds S --trace 0|1");
  Parser.value("--workload", "NAME",
               "sweep-dense | sweep-sparse | service-socket | ir-pipeline",
               &WorkloadName);
  Parser.intValue("--seed", "N", "input seed (default 1)", &Seed, 0,
                  "a non-negative integer");
  Parser.intValue("--seconds", "S",
                  "nominal run length; scales the fixed input list "
                  "(default 10)",
                  &Seconds, 1, "a positive integer");
  Parser.intValue("--trace", "0|1", "1: traced run, per-layer metrics",
                  &Trace, 0, "0 or 1");
  Parser.value("--work-dir", "DIR",
               "directory for corpus files, the socket and the trace",
               &WorkDir);
  switch (Parser.parse(Argc, Argv, std::cout, std::cerr)) {
  case rc::ArgParser::Result::Ok:
    break;
  case rc::ArgParser::Result::Help:
    return 0;
  case rc::ArgParser::Result::Error:
    return 2;
  }
  if (Trace > 1) {
    std::cerr << "error: --trace expects 0 or 1\n";
    return 2;
  }

  std::string Why;
  if (!releaseBuild(Why)) {
    std::cerr << "error: refusing to benchmark: " << Why << "\n";
    return 1;
  }

  bool Traced = Trace == 1;
  RunConfig Config;
  Config.Seed = static_cast<uint64_t>(Seed);
  Config.Seconds = static_cast<unsigned>(Seconds);
  Config.WorkDir = WorkDir + "/" + WorkloadName + "-" +
                   std::to_string(::getpid());

  std::unique_ptr<Workload> W;
  if (WorkloadName == "sweep-dense")
    W = makeSweepDense(Config);
  else if (WorkloadName == "sweep-sparse")
    W = makeSweepSparse(Config);
  else if (WorkloadName == "service-socket")
    W = makeServiceSocket(Config);
  else if (WorkloadName == "ir-pipeline")
    W = makeIrPipeline(Config);
  else {
    std::cerr << "error: unknown workload '" << WorkloadName << "'\n";
    Parser.usage(std::cerr);
    return 2;
  }

  std::filesystem::remove_all(Config.WorkDir);
  std::filesystem::create_directories(Config.WorkDir);
  std::cout << "# context: build_type=" << RC_PERFBENCH_BUILD_TYPE
            << " compiler=\"" << RC_PERFBENCH_COMPILER << "\" flags=\""
            << RC_PERFBENCH_FLAGS << "\" hardware_threads="
            << std::thread::hardware_concurrency() << "\n";
  std::cout << "# workload " << WorkloadName << " seed=" << Seed
            << " seconds=" << Seconds << " trace=" << Trace << ": "
            << W->describe() << "\n";

  Tracer &T = Tracer::instance();
  try {
    // Setup, several times: setup_s is the median, and every repetition
    // must build byte-identical inputs.
    std::vector<double> SetupS;
    std::string Digest;
    bool InputsStable = true;
    unsigned Repetitions = W->setupRepetitions();
    for (unsigned I = 0; I < Repetitions; ++I) {
      T.setEnabled(Traced && I + 1 == Repetitions);
      int64_t Start = nowNs();
      W->setup();
      SetupS.push_back(secondsSince(Start));
      T.setEnabled(false);
      std::string D = W->inputDigest();
      if (I > 0 && D != Digest)
        InputsStable = false;
      Digest = D;
    }
    std::cout << "# setup seconds:";
    for (double S : SetupS)
      std::cout << " " << S;
    std::cout << "\n# inputs digest " << Digest
              << (InputsStable ? "" : " (NOT stable across setups)") << "\n";

    PassResult P = W->pass();
    double PeakRss = peakRssMiB();
    W->check(P);
    P.RunChecksPassed = P.RunChecksPassed && InputsStable;
    printPass("pass", P);

    bool Correct = P.Failed == 0 && P.RunChecksPassed;
    uint64_t Attempted = P.Attempted, Failed = P.Failed;
    std::map<std::string, double> Values;

    if (!Traced) {
      double OkShare =
          P.Attempted ? double(P.Attempted - P.Failed) / P.Attempted : 0;
      Values["wall_s"] = P.WallS;
      Values["setup_s"] = summarize(SetupS).Median;
      Values["throughput_rps"] = P.WallS > 0 ? P.Attempted / P.WallS : 0;
      Values["peak_rss_mb"] = PeakRss;
      Values["ok_share"] = OkShare;
      Values["coalesced_weight_ratio"] =
          P.WeightRatioCount ? P.WeightRatioSum / P.WeightRatioCount : 0;
      Values["moves_remaining"] =
          P.MovesRemainingCount ? P.MovesRemainingSum / P.MovesRemainingCount
                                : 0;
    } else {
      LayerReport R;
      if (!P.LatencyMs.empty()) {
        R.Values["latency_ms_p50"] = summarize(P.LatencyMs).Median;
        R.Values["latency_ms_p99"] = reportablePercentile(P.LatencyMs, 99);
        R.Values["latency.n"] = static_cast<double>(P.LatencyMs.size());
      }
      if (P.SpilledCount)
        R.Values["regalloc.spilled_values"] = P.SpilledSum / P.SpilledCount;

      T.setEnabled(true);
      PassResult TracedPass = W->pass();
      T.setEnabled(false);
      W->check(TracedPass);
      printPass("traced pass", TracedPass);
      Correct = Correct && TracedPass.Failed == 0 &&
                TracedPass.RunChecksPassed;
      Attempted += TracedPass.Attempted;
      Failed += TracedPass.Failed;
      R.Values["trace_overhead_share"] = TracedPass.WallS / P.WallS - 1.0;

      T.setEnabled(true);
      W->layers(R);
      T.setEnabled(false);
      for (auto &[Name, Samples] : T.durationsMs())
        if (!R.TimingsMs.count(Name))
          R.TimingsMs[Name] = std::move(Samples);
      printLayerTable(R, T.selfTimeMs());
      std::string TracePath = WorkDir + "/trace-" + WorkloadName + "-seed" +
                              std::to_string(Seed) + ".jsonl";
      if (T.writeJsonl(TracePath))
        std::cout << "# " << T.size() << " spans written to " << TracePath
                  << "\n";
      Values = layerValues(R);
    }
    std::filesystem::remove_all(Config.WorkDir);

    std::ostringstream Out;
    Out << "{\"correct\": " << (Correct ? "true" : "false")
        << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
        << ", \"values\": {";
    const char *Sep = "";
    for (const auto &[Name, Value] : Values) {
      Out << Sep << "\"" << Name << "\": " << jsonNumber(Value);
      Sep = ", ";
    }
    Out << "}}";
    std::cout << Out.str() << std::endl;
  } catch (const std::exception &E) {
    std::filesystem::remove_all(Config.WorkDir);
    std::cerr << "error: " << E.what() << "\n";
    return 1;
  }
  return 0;
}
