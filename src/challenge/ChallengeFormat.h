//===- challenge/ChallengeFormat.h - Instance (de)serialization -*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small text format for coalescing problem instances, in the spirit of
/// the Appel–George challenge files:
///
///   # comment
///   k <registers>
///   n <num-vertices>
///   e <u> <v>          interference edge
///   a <u> <v> <weight> affinity
///
//===----------------------------------------------------------------------===//

#ifndef CHALLENGE_CHALLENGEFORMAT_H
#define CHALLENGE_CHALLENGEFORMAT_H

#include "coalescing/Problem.h"

#include <istream>
#include <ostream>
#include <string>

namespace rc {

/// Writes \p P in the text format.
void writeChallenge(std::ostream &OS, const CoalescingProblem &P);

/// Parses an instance from \p IS. Both a 'k' line with a positive
/// register count and an 'n' line are required.
///
/// \param [out] Error diagnostic on failure.
/// \returns true on success, storing the instance into \p P.
bool readChallenge(std::istream &IS, CoalescingProblem &P,
                   std::string *Error = nullptr);

} // namespace rc

#endif // CHALLENGE_CHALLENGEFORMAT_H
