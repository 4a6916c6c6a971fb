//===- service/ResultCache.cpp - Canonical-instance result cache ----------===//

#include "service/ResultCache.h"

#include "support/Digest.h"

#include <algorithm>
#include <cstring>

using namespace rc;

std::string rc::canonicalRequestKey(const CoalescingProblem &P,
                                    const std::string &Spec) {
  // Absorb a canonical rendering of the instance: sorted (u < v) edges so
  // two graphs with the same edge set hash identically whatever order they
  // were built in, affinities in list order (list order is part of the
  // instance), then the spec. Graph rows are ascending, so walking them
  // with v > u yields the sorted edge list. The leading tag versions the
  // key schema; bump it if the absorbed fields ever change.
  Digest128 D;
  D.updateString("rckey1");
  D.updateU32(P.K);
  D.updateU32(P.G.numVertices());
  D.updateU64(P.G.numEdges());
  for (unsigned U = 0; U < P.G.numVertices(); ++U) {
    VertexSpan Row = P.G.neighbors(U);
    for (const unsigned *V = std::upper_bound(Row.begin(), Row.end(), U);
         V != Row.end(); ++V) {
      D.updateU32(U);
      D.updateU32(*V);
    }
  }
  D.updateU64(P.Affinities.size());
  for (const Affinity &A : P.Affinities) {
    D.updateU32(A.U);
    D.updateU32(A.V);
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(A.Weight));
    std::memcpy(&Bits, &A.Weight, sizeof(Bits));
    D.updateU64(Bits);
  }
  D.updateString(Spec);
  return D.hex();
}

bool ResultCache::lookup(const std::string &Key, std::string &Payload,
                         bool CountMiss) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    if (CountMiss)
      ++Misses;
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second);
  Payload = It->second->second;
  ++Hits;
  return true;
}

void ResultCache::insert(const std::string &Key, std::string Payload) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // Concurrent identical misses race to insert; keep the first payload
    // (byte-equal by construction) and just refresh recency.
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(Key, std::move(Payload));
  Index.emplace(Key, Lru.begin());
  if (Lru.size() > Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Evictions;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Lru.size();
  S.Capacity = Capacity;
  return S;
}
