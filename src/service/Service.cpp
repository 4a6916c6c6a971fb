//===- service/Service.cpp - Persistent coalescing service ----------------===//

#include "service/Service.h"

#include "support/JsonWriter.h"

#include <cassert>
#include <chrono>
#include <sstream>
#include <utility>

using namespace rc;

namespace {

int64_t microsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

/// One admitted request: owns the parsed request (the instance in
/// particular), its deadline token, and the promise the transport loop
/// waits on. Held by shared_ptr so the pool task keeps it alive after
/// submit() returns.
struct CoalescingService::Job {
  WireRequest Request;
  std::string Key;
  CancelToken Deadline;
  std::chrono::steady_clock::time_point Start;
  std::promise<ServiceReply> Promise;
};

CoalescingService::CoalescingService(ServiceConfig Config)
    : Config(std::move(Config)), Cache(this->Config.CacheCapacity),
      Pool(this->Config.Workers < 1 ? 1 : this->Config.Workers) {}

CoalescingService::~CoalescingService() { shutdown(false); }

std::future<ServiceReply> CoalescingService::ready(ServiceReply Reply) {
  std::promise<ServiceReply> P;
  P.set_value(std::move(Reply));
  return P.get_future();
}

std::future<ServiceReply> CoalescingService::submit(WireRequest Request,
                                                    const CancelToken *Session) {
  auto Start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Requests;
    if (Stopping) {
      ++Counters.Rejected;
      ServiceReply Reply;
      Reply.Status = ReplyStatus::ShuttingDown;
      WireResponse R;
      R.Status = ReplyStatus::ShuttingDown;
      R.Message = "service is shutting down";
      Reply.Payload = buildResponsePayload(R, Config.IncludeTiming);
      Reply.LatencyMicros = microsSince(Start);
      return ready(std::move(Reply));
    }
  }

  // Validation first: a bad spec never occupies a worker, and the error
  // names the offending option.
  SpecError Error;
  RunStatus SpecStatus = checkStrategySpec(Request.Spec, Error);
  if (SpecStatus != RunStatus::Ok) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.Errors;
    }
    WireResponse R;
    R.Status = replyStatusFromRun(SpecStatus);
    R.Message = Error.Message;
    R.BadKey = Error.Key;
    R.BadValue = Error.Value;
    ServiceReply Reply;
    Reply.Status = R.Status;
    Reply.Payload = buildResponsePayload(R, Config.IncludeTiming);
    Reply.LatencyMicros = microsSince(Start);
    return ready(std::move(Reply));
  }

  // Cache before admission: hot duplicates bypass the queue entirely and
  // replay the cold response's bytes.
  std::string Key = canonicalRequestKey(Request.Problem, Request.Spec);
  if (Config.CacheCapacity > 0) {
    std::string Cached;
    if (Cache.lookup(Key, Cached)) {
      ServiceReply Reply;
      Reply.Status = ReplyStatus::Ok;
      Reply.CacheHit = true;
      Reply.Payload = std::move(Cached);
      Reply.LatencyMicros = microsSince(Start);
      return ready(std::move(Reply));
    }
  }

  // Bounded admission.
  auto J = std::make_shared<Job>();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping || InFlight >= Config.QueueLimit) {
      ++Counters.Rejected;
      WireResponse R;
      R.Status = Stopping ? ReplyStatus::ShuttingDown : ReplyStatus::Busy;
      R.Message = Stopping ? "service is shutting down"
                           : "queue limit of " +
                                 std::to_string(Config.QueueLimit) +
                                 " requests reached; retry later";
      ServiceReply Reply;
      Reply.Status = R.Status;
      Reply.Payload = buildResponsePayload(R, Config.IncludeTiming);
      Reply.LatencyMicros = microsSince(Start);
      return ready(std::move(Reply));
    }
    ++InFlight;
  }

  J->Request = std::move(Request);
  J->Key = std::move(Key);
  J->Start = Start;
  // The deadline is armed at admission, not at pickup: time spent queued
  // counts, so a deadline bounds the client's wait, not the worker's CPU.
  assert(J->Request.DeadlineMillis <= kMaxDeadlineMillis &&
         "deadline past the wire-format cap");
  if (J->Request.DeadlineMillis > 0)
    J->Deadline.setDeadline(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(
                                J->Request.DeadlineMillis));
  J->Deadline.setParent(Session ? Session : &ShutdownToken);

  std::future<ServiceReply> Future = J->Promise.get_future();
  Pool.submit([this, J]() {
    // Second-chance lookup: an identical request may have completed while
    // this one sat in the queue (pipelined duplicates miss at admission
    // because the first copy is still solving). The admission-time miss is
    // already counted, so this probe never double-counts.
    if (Config.CacheCapacity > 0) {
      std::string Cached;
      if (Cache.lookup(J->Key, Cached, /*CountMiss=*/false)) {
        ServiceReply Reply;
        Reply.Status = ReplyStatus::Ok;
        Reply.CacheHit = true;
        Reply.Payload = std::move(Cached);
        Reply.LatencyMicros = microsSince(J->Start);
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          assert(InFlight > 0 && "cache replay without admission");
          --InFlight;
        }
        J->Promise.set_value(std::move(Reply));
        return;
      }
    }
    RunRequest RR;
    RR.Problem = &J->Request.Problem;
    RR.Spec = J->Request.Spec;
    RR.Cancel = &J->Deadline;
    RunResult Result =
        Config.Runner ? Config.Runner(RR) : runStrategy(RR);
    J->Promise.set_value(finishJob(*J, std::move(Result)));
  });
  return Future;
}

ServiceReply CoalescingService::finishJob(Job &J, RunResult Result) {
  WireResponse R;
  R.Status = replyStatusFromRun(Result.Status);
  R.Message = Result.Message;
  if (Result.hasOutcome())
    R.Outcome = &Result.Outcome;

  ServiceReply Reply;
  Reply.Status = R.Status;
  Reply.Payload = buildResponsePayload(R, Config.IncludeTiming);
  Reply.LatencyMicros = microsSince(J.Start);

  // Only complete runs are cached: partials depend on the deadline that
  // cut them short, and errors are cheap to recompute.
  if (R.Status == ReplyStatus::Ok && Config.CacheCapacity > 0)
    Cache.insert(J.Key, Reply.Payload);

  std::lock_guard<std::mutex> Lock(Mutex);
  switch (R.Status) {
  case ReplyStatus::Ok:
    ++Counters.Completed;
    break;
  case ReplyStatus::TimedOut:
    ++Counters.TimedOut;
    break;
  default:
    ++Counters.Errors;
    break;
  }
  assert(InFlight > 0 && "finishJob without admission");
  --InFlight;
  return Reply;
}

void CoalescingService::noteBadRequest() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Counters.BadRequests;
}

void CoalescingService::shutdown(bool CancelInFlight) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Stopping) {
      Stopping = true;
      Counters.DrainedInFlight = InFlight;
    }
  }
  if (CancelInFlight)
    ShutdownToken.cancel();
  Pool.drain();
  std::lock_guard<std::mutex> Lock(Mutex);
  Drained = true;
}

ServiceStats CoalescingService::stats() const {
  ServiceStats S;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S = Counters;
  }
  ResultCache::Stats C = Cache.stats();
  S.CacheHits = C.Hits;
  S.CacheMisses = C.Misses;
  S.CacheEvictions = C.Evictions;
  S.CacheEntries = C.Entries;
  return S;
}

std::string rc::buildShutdownAckPayload(const ServiceStats &Stats) {
  std::ostringstream OS;
  JsonWriter W(OS);
  W.beginObject();
  W.key("rcs").value(kJsonSchemaVersion);
  W.key("status").value(replyStatusName(ReplyStatus::ShuttingDown));
  W.key("stats");
  W.beginObject();
  W.key("requests").value(Stats.Requests);
  W.key("completed").value(Stats.Completed);
  W.key("timed_out").value(Stats.TimedOut);
  W.key("errors").value(Stats.Errors);
  W.key("rejected").value(Stats.Rejected);
  W.key("bad_requests").value(Stats.BadRequests);
  W.key("cache_hits").value(Stats.CacheHits);
  W.key("cache_misses").value(Stats.CacheMisses);
  W.key("cache_evictions").value(Stats.CacheEvictions);
  W.key("cache_entries").value(Stats.CacheEntries);
  W.key("drained_in_flight").value(Stats.DrainedInFlight);
  W.endObject();
  W.endObject();
  return OS.str();
}
