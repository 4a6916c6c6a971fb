//===- support/BitMatrix.cpp - Symmetric boolean matrix -------------------===//

#include "support/BitMatrix.h"

#include <bit>
#include <cstddef>

using namespace rc;

void BitMatrix::reset(unsigned NewN) {
  N = NewN;
  uint64_t Bits = uint64_t(N) * (N ? N - 1 : 0) / 2;
  Words.assign(static_cast<size_t>((Bits + 63) / 64), 0);
}

void BitMatrix::grow(unsigned NewN) {
  assert(NewN >= N && "grow cannot shrink the matrix");
  N = NewN;
  uint64_t Bits = uint64_t(N) * (N ? N - 1 : 0) / 2;
  Words.resize(static_cast<size_t>((Bits + 63) / 64), 0);
}

unsigned BitMatrix::count() const {
  unsigned Total = 0;
  for (uint64_t W : Words)
    Total += static_cast<unsigned>(std::popcount(W));
  return Total;
}
