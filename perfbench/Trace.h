//===- perfbench/Trace.h - in-memory spans for the traced run --*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Spans are opened in the benchmark's own
/// code around each call into a library layer: name, start, end, the span
/// that caused it (the innermost span open on the same thread) and a
/// request id shared by the spans of one request. Spans stay in memory and
/// are written out when the run ends. With tracing disabled a ScopedSpan
/// costs one relaxed atomic load, so the untraced pass runs the same code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  /// Layer-qualified name, e.g. "ir.liveness". Always a string literal.
  const char *Name = nullptr;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span on the same thread, -1 for a root.
  int64_t Parent = -1;
  uint64_t Request = 0;
};

class Tracer {
public:
  static Tracer &instance();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span and returns its index.
  size_t begin(const char *Name, int64_t Parent, uint64_t Request);
  void end(size_t Index);

  /// Per span name: every duration, in milliseconds.
  std::map<std::string, std::vector<double>> durationsMs() const;
  /// Per span name: summed self time (duration minus the time covered by
  /// child spans), in milliseconds.
  std::map<std::string, double> selfTimeMs() const;

  size_t size() const;

  /// Writes one JSON object per span. \returns false if the file cannot be
  /// written.
  bool writeJsonl(const std::string &Path) const;

private:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}
  int64_t nowNs() const;

  std::atomic<bool> Enabled{false};
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mutex; ///< Guards Spans.
  std::vector<SpanRecord> Spans;
};

/// Records one span for its scope when tracing is enabled.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint64_t Request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  bool Active = false;
  size_t Index = 0;
  int64_t SavedParent = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
