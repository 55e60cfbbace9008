//===- util/SimdDotAvx2.cpp - AVX2 blocked hash intersection -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The AVX2 kernels behind util/SimdDot.h — the only translation unit
// compiled with -mavx2 (CMake adds it to kast_util, and defines
// KAST_SIMD_AVX2 for the dispatcher, only when the compiler takes the
// flag). Callers reach these through simd::dotExact and
// simd::ExactScan, which have already verified AVX2 support via
// cpuid, so no runtime check is repeated here.
//
// Algorithm: 4x4 all-pairs block intersection. Load four u64 hashes
// from each side, compare the A block against the B block and its
// three lane rotations (one cmpeq + movemask per rotation), then walk
// the A lanes in ascending order resolving at most one match each —
// hashes within a profile are strictly increasing, so a lane cannot
// match two rotations. Advance whichever block's maximum is smaller
// (both on a tie): any pair involving a retired element has already
// been compared, so no match is missed. Tails shorter than a block
// fall back to the scalar two-pointer merge.
//
// Exactness: lanes are resolved in ascending A order and blocks retire
// in ascending hash order, so products are accumulated one f64 add at
// a time in exactly the scalar merge join's order — the results are
// bit-identical, which tests/SimdDotTest.cpp pins differentially.
//
//===----------------------------------------------------------------------===//

#include "util/SimdDot.h"

#include <immintrin.h>

namespace kast {
namespace simd {
namespace detail {

namespace {

/// Scalar two-pointer merge for the sub-block tails. Continues the
/// block phase's running \p Sum — a separate accumulator folded in at
/// the end would change the addition order (f64 addition is not
/// associative) and break bit-identity with simd::dotScalar.
double mergeTail(double Sum, const uint64_t *AHashes, const double *AValues,
                 size_t ASize, const uint64_t *BHashes, const double *BValues,
                 size_t BSize) {
  size_t I = 0, J = 0;
  while (I < ASize && J < BSize) {
    const uint64_t HA = AHashes[I], HB = BHashes[J];
    if (HA < HB)
      ++I;
    else if (HB < HA)
      ++J;
    else {
      Sum += AValues[I] * BValues[J];
      ++I;
      ++J;
    }
  }
  return Sum;
}

/// Rotation immediates: RotK places B lane (l + K) & 3 into lane l, so
/// mask bit l of compare-against-RotK means A[I+l] == B[J+((l+K)&3)].
constexpr int Rot1 = 0x39; // lanes {1,2,3,0}
constexpr int Rot2 = 0x4E; // lanes {2,3,0,1}
constexpr int Rot3 = 0x93; // lanes {3,0,1,2}

inline int eqMask(__m256i A, __m256i B) {
  return _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(A, B)));
}

/// Compares the two loaded blocks and packs the four rotations' masks
/// into one 16-bit word: bit (4*K + L) set means A lane L matches
/// B lane (L + K) & 3. Nibble-slicing the word recovers, per A lane,
/// which rotation fired without a search loop.
inline unsigned compareBlocks(__m256i VA, __m256i VB) {
  const unsigned M0 = static_cast<unsigned>(eqMask(VA, VB));
  const unsigned M1 =
      static_cast<unsigned>(eqMask(VA, _mm256_permute4x64_epi64(VB, Rot1)));
  const unsigned M2 =
      static_cast<unsigned>(eqMask(VA, _mm256_permute4x64_epi64(VB, Rot2)));
  const unsigned M3 =
      static_cast<unsigned>(eqMask(VA, _mm256_permute4x64_epi64(VB, Rot3)));
  return M0 | (M1 << 4) | (M2 << 8) | (M3 << 12);
}

} // namespace

double dotExactAvx2(const uint64_t *AHashes, const double *AValues,
                    size_t ASize, const uint64_t *BHashes,
                    const double *BValues, size_t BSize) {
  double Sum = 0.0;
  size_t I = 0, J = 0;
  while (I + 4 <= ASize && J + 4 <= BSize) {
    const __m256i VA =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(AHashes + I));
    const __m256i VB =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(BHashes + J));
    const unsigned Eq = compareBlocks(VA, VB);
    // Hashes within a block are strictly increasing, so each A lane
    // matches at most one rotation: OR-folding the nibbles gives the
    // set of matching lanes, and ctz walks them in ascending lane —
    // hence ascending hash — order, keeping the accumulation sequence
    // identical to the scalar merge.
    unsigned Lanes = (Eq | (Eq >> 4) | (Eq >> 8) | (Eq >> 12)) & 0xF;
    while (Lanes) {
      const unsigned L = static_cast<unsigned>(__builtin_ctz(Lanes));
      Lanes &= Lanes - 1;
      const unsigned K =
          static_cast<unsigned>(__builtin_ctz((Eq >> L) & 0x1111u)) >> 2;
      Sum += AValues[I + L] * BValues[J + ((L + K) & 3)];
    }
    const uint64_t AMax = AHashes[I + 3], BMax = BHashes[J + 3];
    // Branchless advance: mispredicting which side retires costs more
    // than both comparisons.
    I += static_cast<size_t>(AMax <= BMax) * 4;
    J += static_cast<size_t>(BMax <= AMax) * 4;
  }
  return mergeTail(Sum, AHashes + I, AValues + I, ASize - I, BHashes + J,
                   BValues + J, BSize - J);
}

double dotScanAvx2(const uint64_t *BucketHashes, const double *BucketValues,
                   int Shift, double *Matches, const uint64_t *SHashes,
                   const double *SValues, size_t SSize) {
  size_t N = 0;
  for (size_t J = 0; J < SSize; ++J) {
    const uint64_t H = SHashes[J];
    const size_t B = static_cast<size_t>(H >> Shift);
    const __m256i VH = _mm256_set1_epi64x(static_cast<long long>(H));
    const __m256i VB = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(BucketHashes + B * 4));
    const unsigned M = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(VH, VB))));
    // On a miss M == 0: Lane folds to 0 and the product lands in the
    // one-slot overhang of the match buffer, overwritten by the next
    // probe — a speculative write instead of a branch.
    const unsigned Lane = static_cast<unsigned>(__builtin_ctz(M | 0x10u)) & 3u;
    Matches[N] = BucketValues[B * 4 + Lane] * SValues[J];
    N += (M != 0);
  }
  // Stored hashes are strictly increasing, so Matches holds the
  // products in the merge join's discovery order; this serial sum is
  // its exact f64 addition sequence.
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I)
    Sum += Matches[I];
  return Sum;
}

} // namespace detail
} // namespace simd
} // namespace kast
