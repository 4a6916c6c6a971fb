//===- challenge/ChallengeBinary.cpp - Binary instance format -------------===//

#include "challenge/ChallengeBinary.h"

#include "challenge/ChallengeFormat.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>

using namespace rc;

namespace {

/// Little-endian byte packing, host-endianness-independent.
void putU32(std::ostream &OS, uint32_t X) {
  char B[4] = {static_cast<char>(X), static_cast<char>(X >> 8),
               static_cast<char>(X >> 16), static_cast<char>(X >> 24)};
  OS.write(B, 4);
}

void putU64(std::ostream &OS, uint64_t X) {
  putU32(OS, static_cast<uint32_t>(X));
  putU32(OS, static_cast<uint32_t>(X >> 32));
}

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

inline uint32_t loadU32LE(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

inline uint64_t loadU64LE(const unsigned char *P) {
  return static_cast<uint64_t>(loadU32LE(P)) |
         (static_cast<uint64_t>(loadU32LE(P + 4)) << 32);
}

/// Header count validation. The overflow checks run before any size
/// arithmetic or allocation: a corrupt
/// count must fail loudly here, not wrap 32 + 8*E + 16*A around uint64_t /
/// size_t and pass a downstream bounds check.
bool checkHeaderCounts(uint32_t N, uint64_t EdgeCount, uint64_t AffinityCount,
                       std::string *Error) {
  constexpr uint64_t Max = std::numeric_limits<uint64_t>::max();
  if (EdgeCount > (Max - 32) / 8)
    return fail(Error, "edge count overflows the file size arithmetic");
  if (AffinityCount > (Max - 32 - 8 * EdgeCount) / 16)
    return fail(Error, "affinity count overflows the file size arithmetic");
  // An edge list longer than n*(n-1)/2 cannot be valid; rejecting here also
  // stops a corrupt count from driving a giant allocation loop.
  if (N > 0 && EdgeCount > static_cast<uint64_t>(N) * (N - 1) / 2)
    return fail(Error, "edge count exceeds n*(n-1)/2");
  if (N == 0 && (EdgeCount || AffinityCount))
    return fail(Error, "edges or affinities with n = 0");
  return true;
}

} // namespace

void rc::writeChallengeBinary(std::ostream &OS, const CoalescingProblem &P) {
  OS.write(ChallengeBinaryMagic, 4);
  putU32(OS, ChallengeBinaryVersion);
  putU32(OS, P.K);
  putU32(OS, P.G.numVertices());
  putU64(OS, P.G.numEdges());
  putU64(OS, P.Affinities.size());
  // Canonical edge order, (u, v) with u < v sorted: Graph rows are
  // ascending, so streaming each row's tail past u writes it directly.
  for (unsigned U = 0; U < P.G.numVertices(); ++U) {
    VertexSpan Row = P.G.neighbors(U);
    for (const unsigned *V = std::upper_bound(Row.begin(), Row.end(), U);
         V != Row.end(); ++V) {
      putU32(OS, U);
      putU32(OS, *V);
    }
  }
  for (const Affinity &A : P.Affinities) {
    putU32(OS, A.U);
    putU32(OS, A.V);
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(A.Weight));
    std::memcpy(&Bits, &A.Weight, sizeof(Bits));
    putU64(OS, Bits);
  }
}

bool rc::readChallengeBinary(std::istream &IS, CoalescingProblem &P,
                             std::string *Error) {
  // One parser: buffer the stream and validate it like a mapped file.
  std::string Bytes{std::istreambuf_iterator<char>(IS),
                    std::istreambuf_iterator<char>()};
  return readChallengeBinaryBuffer(
      reinterpret_cast<const unsigned char *>(Bytes.data()), Bytes.size(), P,
      Error);
}

bool rc::readChallengeBinaryBuffer(const unsigned char *Data, size_t Size,
                                   CoalescingProblem &P, std::string *Error) {
  P = CoalescingProblem();
  if (Size < 32)
    return fail(Error, Size < 4 ? "truncated header (missing magic)"
                                : "truncated header");
  if (std::memcmp(Data, ChallengeBinaryMagic, 4) != 0)
    return fail(Error, "bad magic (not a binary challenge file)");
  uint32_t Version = loadU32LE(Data + 4);
  uint32_t K = loadU32LE(Data + 8);
  uint32_t N = loadU32LE(Data + 12);
  uint64_t EdgeCount = loadU64LE(Data + 16);
  uint64_t AffinityCount = loadU64LE(Data + 24);
  if (Version != ChallengeBinaryVersion)
    return fail(Error, "unsupported format version " + std::to_string(Version));
  if (K == 0)
    return fail(Error, "register count k must be positive");
  if (K > MaxChallengeRegisters)
    return fail(Error, "register count k = " + std::to_string(K) +
                           " exceeds the limit " +
                           std::to_string(MaxChallengeRegisters));
  if (N > MaxChallengeVertices)
    return fail(Error, "vertex count n = " + std::to_string(N) +
                           " exceeds the limit " +
                           std::to_string(MaxChallengeVertices));
  if (!checkHeaderCounts(N, EdgeCount, AffinityCount, Error))
    return false;
  // The overflow checks above make this size arithmetic exact; the whole
  // file is in hand, so truncation and trailing garbage are one compare
  // instead of per-record stream probes.
  uint64_t Need = 32 + 8 * EdgeCount + 16 * AffinityCount;
  if (static_cast<uint64_t>(Size) < Need)
    return fail(Error,
                static_cast<uint64_t>(Size) < 32 + 8 * EdgeCount
                    ? "truncated edge list"
                    : "truncated affinity list");
  if (static_cast<uint64_t>(Size) > Need)
    return fail(Error, "trailing bytes after affinity list");

  // Validation sweep over the edge array in place: ranges plus canonical
  // strict lexicographic order. No decoded copy is materialized — the
  // graph builder below adopts the same bytes.
  const unsigned char *EdgeData = Data + 32;
  uint32_t PrevU = 0, PrevV = 0;
  for (uint64_t I = 0; I < EdgeCount; ++I) {
    uint32_t U = loadU32LE(EdgeData + 8 * I);
    uint32_t V = loadU32LE(EdgeData + 8 * I + 4);
    if (U >= N || V >= N)
      return fail(Error,
                  "edge endpoint out of range at edge " + std::to_string(I));
    if (U >= V)
      return fail(Error, "edge not in canonical u < v form at edge " +
                             std::to_string(I));
    if (I > 0 && (U < PrevU || (U == PrevU && V <= PrevV)))
      return fail(Error, "edges not sorted (or duplicated) at edge " +
                             std::to_string(I));
    PrevU = U;
    PrevV = V;
  }

  P.K = K;
  P.G = Graph::fromSortedEdges(N, EdgeData, EdgeCount);

  const unsigned char *AffData = EdgeData + 8 * EdgeCount;
  P.Affinities.resize(AffinityCount);
  for (uint64_t I = 0; I < AffinityCount; ++I) {
    const unsigned char *Rec = AffData + 16 * I;
    uint32_t U = loadU32LE(Rec);
    uint32_t V = loadU32LE(Rec + 4);
    if (U >= N || V >= N || U == V) {
      P = CoalescingProblem();
      return fail(Error, "malformed affinity endpoints at affinity " +
                             std::to_string(I));
    }
    uint64_t Bits = loadU64LE(Rec + 8);
    Affinity &A = P.Affinities[I];
    A.U = U;
    A.V = V;
    std::memcpy(&A.Weight, &Bits, sizeof(A.Weight));
  }
  return true;
}

bool rc::readChallengeMapped(const MappedFile &File, CoalescingProblem &P,
                             std::string *Error) {
  if (File.size() >= 4 &&
      std::memcmp(File.data(), ChallengeBinaryMagic, 4) == 0)
    return readChallengeBinaryBuffer(File.data(), File.size(), P, Error);
  return readChallengeText(reinterpret_cast<const char *>(File.data()),
                           File.size(), P, Error);
}

bool rc::readChallengeFile(const std::string &Path, CoalescingProblem &P,
                           std::string *Error, MappedFile::Mode M) {
  MappedFile File;
  if (!File.open(Path, Error, M))
    return false;
  return readChallengeMapped(File, P, Error);
}

bool rc::readChallengeAuto(std::istream &IS, CoalescingProblem &P,
                           std::string *Error) {
  char Magic[4];
  IS.read(Magic, 4);
  std::streamsize Got = IS.gcount();
  bool Binary =
      Got == 4 && std::memcmp(Magic, ChallengeBinaryMagic, 4) == 0;
  // Rewind: clear a short-read EOF first so seekg works on tiny files.
  IS.clear();
  IS.seekg(0);
  return Binary ? readChallengeBinary(IS, P, Error)
                : readChallenge(IS, P, Error);
}
