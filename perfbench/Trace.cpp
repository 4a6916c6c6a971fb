//===- perfbench/Trace.cpp - in-memory spans for the traced run ----------===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <fstream>

using namespace perfbench;

namespace {
/// Innermost open span on this thread; the parent of the next one.
thread_local int64_t CurrentSpan = -1;
} // namespace

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

size_t Tracer::begin(const char *Name, int64_t Parent, uint64_t Request) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = Parent;
  R.Request = Request;
  std::lock_guard<std::mutex> Lock(Mutex);
  R.StartNs = nowNs();
  Spans.push_back(R);
  return Spans.size() - 1;
}

void Tracer::end(size_t Index) {
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Index].EndNs = Now;
}

std::map<std::string, std::vector<double>> Tracer::durationsMs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, std::vector<double>> Out;
  for (const SpanRecord &S : Spans)
    Out[S.Name].push_back((S.EndNs - S.StartNs) / 1e6);
  return Out;
}

std::map<std::string, double> Tracer::selfTimeMs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] +=
        (Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) / 1e6;
  return Out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"parent\":" << S.Parent << ",\"request\":" << S.Request
        << ",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << "}\n";
  }
  return static_cast<bool>(Out.flush());
}

ScopedSpan::ScopedSpan(const char *Name, uint64_t Request) {
  Tracer &T = Tracer::instance();
  if (!T.enabled())
    return;
  Active = true;
  SavedParent = CurrentSpan;
  Index = T.begin(Name, SavedParent, Request);
  CurrentSpan = static_cast<int64_t>(Index);
}

ScopedSpan::~ScopedSpan() {
  if (!Active)
    return;
  Tracer::instance().end(Index);
  CurrentSpan = SavedParent;
}
