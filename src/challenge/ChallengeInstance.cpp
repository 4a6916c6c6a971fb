//===- challenge/ChallengeInstance.cpp - Synthetic benchmarks -------------===//

#include "challenge/ChallengeInstance.h"

#include "graph/Chordal.h"
#include "graph/Generators.h"
#include "ir/InterferenceBuilder.h"
#include "ir/ProgramGenerator.h"

#include <algorithm>
#include <unordered_set>

using namespace rc;

CoalescingProblem
rc::generateChallengeInstance(const ChallengeOptions &Options, Rng &Rand) {
  CoalescingProblem P;
  std::vector<std::vector<unsigned>> Subtrees;
  P.G = randomChordalGraph(Options.NumValues, Options.TreeSize,
                           Options.MeanSubtreeSize, Rand, &Subtrees);
  P.K = chordalCliqueNumber(P.G) + Options.PressureSlack;

  // Bucket vertices by tree node so affinity sampling can prefer pairs
  // whose live ranges are close (one ends where the other starts).
  unsigned TreeSize = Options.TreeSize;
  std::vector<std::vector<unsigned>> AtNode(TreeSize);
  for (unsigned V = 0; V < Options.NumValues; ++V)
    for (unsigned Node : Subtrees[V])
      AtNode[Node].push_back(V);

  unsigned Wanted = static_cast<unsigned>(
      static_cast<double>(Options.NumValues) * Options.AffinityFraction);
  std::vector<Affinity> Affinities;
  // Endpoint pairs already used, keyed (min,max) packed into one word so the
  // dedup probe is O(1) instead of a scan over the affinity list (which made
  // dense affinity sampling quadratic at large n).
  std::unordered_set<uint64_t> UsedPairs;
  auto alreadyHave = [&UsedPairs](unsigned U, unsigned V) {
    uint64_t Lo = std::min(U, V), Hi = std::max(U, V);
    return UsedPairs.count((Lo << 32) | Hi) != 0;
  };

  unsigned Attempts = 0, MaxAttempts = Wanted * 50;
  while (Affinities.size() < Wanted && Attempts++ < MaxAttempts) {
    // Pick a tree node and a vertex at it, then a partner at a node within
    // distance 0..2 whose subtree does not intersect the first.
    unsigned Node = static_cast<unsigned>(Rand.nextBelow(TreeSize));
    if (AtNode[Node].empty())
      continue;
    unsigned U = AtNode[Node][Rand.nextBelow(AtNode[Node].size())];
    unsigned OtherNode = static_cast<unsigned>(Rand.nextBelow(TreeSize));
    if (AtNode[OtherNode].empty())
      continue;
    unsigned V = AtNode[OtherNode][Rand.nextBelow(AtNode[OtherNode].size())];
    if (U == V || P.G.hasEdge(U, V) || alreadyHave(U, V))
      continue;
    double W = 1.0 + static_cast<double>(Rand.nextBelow(Options.MaxWeight));
    uint64_t Lo = std::min(U, V), Hi = std::max(U, V);
    UsedPairs.insert((Lo << 32) | Hi);
    Affinities.push_back({U, V, W});
  }
  P.Affinities = std::move(Affinities);
  return P;
}

CoalescingProblem rc::generateProgramChallengeInstance(
    const ProgramChallengeOptions &Options, Rng &Rand) {
  ir::GeneratorOptions GenOptions;
  GenOptions.NumBlocks = Options.NumBlocks;
  GenOptions.MaxInstructionsPerBlock = Options.MaxInstructionsPerBlock;
  GenOptions.MaxPhisPerJoin = Options.MaxPhisPerJoin;
  GenOptions.CopyProbability = Options.CopyProbability;

  ir::Function F = ir::generateRandomSsaFunction(GenOptions, Rand);
  ir::Liveness L = ir::Liveness::compute(F);
  ir::InterferenceGraph IG = ir::buildInterferenceGraph(F, L);

  CoalescingProblem P;
  P.G = std::move(IG.G);
  P.Affinities = std::move(IG.Affinities);
  P.K = ir::computeMaxlive(F, L) + Options.PressureSlack;
  P.Names.reserve(F.numValues());
  for (ir::ValueId V = 0; V < F.numValues(); ++V)
    P.Names.push_back(F.valueName(V));
  return P;
}
