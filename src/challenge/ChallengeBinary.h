//===- challenge/ChallengeBinary.h - Binary instance format -----*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact versioned binary serialization of coalescing instances, the
/// mmap-friendly twin of the challenge text format (ChallengeFormat.h).
/// Large sweeps read and write this at a fraction of the text parse cost
/// and a fraction of the size; rc_convert translates between the two.
///
/// Layout (all integers little-endian, no padding):
///
///   offset  size  field
///        0     4  magic "RCBF"
///        4     4  format version (currently 1)
///        8     4  k (register count, 1..MaxChallengeRegisters)
///       12     4  n (vertex count, at most MaxChallengeVertices)
///       16     8  edge count E
///       24     8  affinity count A
///       32   8*E  edges: (u32 u, u32 v) with u < v, sorted
///                 lexicographically ascending (canonical, so equal edge
///                 sets serialize byte-identically)
///   32+8*E  16*A  affinities: (u32 u, u32 v, u64 IEEE-754 double bits of
///                 the weight), in list order
///
/// A reader written for version 1 rejects any other version rather than
/// guessing; writers always emit the current version. The format is
/// little-endian on disk regardless of host byte order (serialization goes
/// through explicit byte packing, not struct dumps). Readers validate
/// endpoints, edge ordering, self-loops, truncation, and trailing bytes,
/// so a corrupt or foreign file fails loudly instead of producing a
/// plausible-looking instance.
///
/// Vertex names are a diagnostic nicety of the text pipeline and are not
/// carried by the binary format.
///
//===----------------------------------------------------------------------===//

#ifndef CHALLENGE_CHALLENGEBINARY_H
#define CHALLENGE_CHALLENGEBINARY_H

#include "coalescing/Problem.h"
#include "support/MappedFile.h"

#include <istream>
#include <ostream>
#include <string>

namespace rc {

/// The 4-byte magic that opens every binary challenge file.
inline constexpr char ChallengeBinaryMagic[4] = {'R', 'C', 'B', 'F'};

/// The format version this build reads and writes.
inline constexpr uint32_t ChallengeBinaryVersion = 1;

/// Writes \p P in the binary format. Edges are emitted in canonical
/// (sorted, u < v) order whatever the graph's internal adjacency order.
void writeChallengeBinary(std::ostream &OS, const CoalescingProblem &P);

/// Parses a binary instance from \p IS (opened in binary mode): reads the
/// rest of the stream into memory and parses it with
/// readChallengeBinaryBuffer, so both entry points accept and reject the
/// same bytes.
///
/// \param [out] Error diagnostic on failure.
/// \returns true on success, storing the instance into \p P.
bool readChallengeBinary(std::istream &IS, CoalescingProblem &P,
                         std::string *Error = nullptr);

/// Reads either format from \p IS by peeking at the magic: a stream that
/// starts with "RCBF" parses as binary, anything else as challenge text.
/// Callers opening files should use binary mode so text detection is not
/// distorted by newline translation.
bool readChallengeAuto(std::istream &IS, CoalescingProblem &P,
                       std::string *Error = nullptr);

/// Zero-copy binary parse straight out of an in-memory byte range (no
/// istream, no per-record read calls, no intermediate vectors): the header
/// is validated with overflow-checked size arithmetic, the sorted edge
/// array is adopted in place as the graph's CSR rows (the canonical sort
/// order means both adjacency directions come out pre-sorted), and the
/// affinity records are validated and copied once into the final vector.
/// Identical accept/reject behavior to readChallengeBinary.
bool readChallengeBinaryBuffer(const unsigned char *Data, size_t Size,
                               CoalescingProblem &P,
                               std::string *Error = nullptr);

/// Reads either format from an open MappedFile view: "RCBF" bytes parse
/// via the zero-copy readChallengeBinaryBuffer, anything else as challenge
/// text. The parse only borrows the view; \p P owns all of its storage, so
/// the MappedFile may be released immediately after this returns.
bool readChallengeMapped(const MappedFile &File, CoalescingProblem &P,
                         std::string *Error = nullptr);

/// Opens \p Path as a read-only MappedFile (mmap with buffered fallback,
/// see support/MappedFile.h) and reads either format. This is the
/// path-level counterpart of readChallengeAuto and the preferred loader
/// everywhere a file path (rather than a stream) is in hand: rc_sweep
/// --stream manifests, rc_request --instance, rc_convert.
bool readChallengeFile(const std::string &Path, CoalescingProblem &P,
                       std::string *Error = nullptr,
                       MappedFile::Mode M = MappedFile::Mode::Auto);

} // namespace rc

#endif // CHALLENGE_CHALLENGEBINARY_H
