//===- util/SimdDot.cpp - Kernel dispatch, scalar + gallop paths ---------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Hosts everything that does not need special compile flags: kernel
// selection (compile-time availability x runtime CPU support x
// KAST_FORCE_SCALAR), the reference scalar merge join, the galloping
// intersection for skewed operand sizes, and the NEON block kernel
// (NEON is baseline on aarch64, so it needs no separate translation
// unit). The AVX2 block kernels live in SimdDotAvx2.cpp, compiled
// with -mavx2 only when the toolchain supports it; this file calls
// them through the detail:: declarations below.
//
//===----------------------------------------------------------------------===//

#include "util/SimdDot.h"

#include <cstdlib>

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace kast {
namespace simd {

#if defined(KAST_SIMD_AVX2)
namespace detail {
// Defined in SimdDotAvx2.cpp (the only TU built with -mavx2).
double dotExactAvx2(const uint64_t *AHashes, const double *AValues,
                    size_t ASize, const uint64_t *BHashes,
                    const double *BValues, size_t BSize);
double dotScanAvx2(const uint64_t *BucketHashes, const double *BucketValues,
                   int Shift, double *Matches, const uint64_t *SHashes,
                   const double *SValues, size_t SSize);
} // namespace detail
#endif

namespace {

/// Two-pointer merge intersection: finds every (I, J) with
/// AHashes[I] == BHashes[J] in ascending hash order and accumulates
/// AValues[I] * BValues[J], one f64 addition per pair. Every other
/// strategy in this file must produce this exact addition sequence.
/// \p Sum is the accumulator's starting value: the SIMD block kernels
/// pass their running sum so the scalar tail continues it (folding a
/// separately-accumulated tail in afterwards would change the addition
/// order and break bit-identity).
double mergeIntersect(const uint64_t *AHashes, const double *AValues,
                      size_t ASize, const uint64_t *BHashes,
                      const double *BValues, size_t BSize, double Sum = 0.0) {
  size_t I = 0, J = 0;
  while (I < ASize && J < BSize) {
    const uint64_t HA = AHashes[I], HB = BHashes[J];
    if (HA < HB) {
      ++I;
    } else if (HB < HA) {
      ++J;
    } else {
      Sum += AValues[I] * BValues[J];
      ++I;
      ++J;
    }
  }
  return Sum;
}

/// Exponential probe + binary search: the position in
/// [Hashes + Lo, Hashes + Size) of the first hash >= Key. The probe
/// doubles from the current cursor, so a full intersection pass costs
/// O(small * log(gap)) instead of O(large).
size_t gallopLowerBound(const uint64_t *Hashes, size_t Lo, size_t Size,
                        uint64_t Key) {
  size_t Step = 1;
  size_t Hi = Lo;
  while (Hi < Size && Hashes[Hi] < Key) {
    Lo = Hi + 1;
    Hi += Step;
    Step <<= 1;
  }
  if (Hi > Size)
    Hi = Size;
  // Invariant: Hashes[Lo - 1] < Key (or Lo is the original start) and
  // Hashes[Hi] >= Key (or Hi == Size).
  while (Lo < Hi) {
    const size_t Mid = Lo + (Hi - Lo) / 2;
    if (Hashes[Mid] < Key)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

/// Skewed intersection: walk the small side in order, gallop the large
/// side forward to each key. Matches are discovered in ascending hash
/// order of the small side — which is ascending hash order outright —
/// so the accumulation sequence equals mergeIntersect's (f64
/// multiplication commutes bit-for-bit, so which side is "small" does
/// not matter either).
double gallopIntersect(const uint64_t *SmallHashes, const double *SmallValues,
                       size_t SmallSize, const uint64_t *LargeHashes,
                       const double *LargeValues, size_t LargeSize) {
  double Sum = 0.0;
  size_t J = 0;
  for (size_t I = 0; I < SmallSize; ++I) {
    const uint64_t Key = SmallHashes[I];
    J = gallopLowerBound(LargeHashes, J, LargeSize, Key);
    if (J == LargeSize)
      break;
    if (LargeHashes[J] == Key) {
      Sum += SmallValues[I] * LargeValues[J];
      ++J;
    }
  }
  return Sum;
}

/// Gallop pays off when one side is much shorter than the other and
/// the long side is long enough for the probe's log factor to beat a
/// linear sweep. Ratio 16 with a floor of 128 measured best on the
/// BM_DotThroughput skew sweep (query-vs-centroid and
/// query-vs-posting-segment shapes).
constexpr size_t GallopRatio = 16;
constexpr size_t GallopMinLarge = 128;

bool shouldGallop(size_t ASize, size_t BSize) {
  const size_t Small = ASize < BSize ? ASize : BSize;
  const size_t Large = ASize < BSize ? BSize : ASize;
  return Large >= GallopMinLarge && Small * GallopRatio <= Large;
}

#if defined(__aarch64__)

/// 2x2 block intersection at NEON width: compare the A pair against
/// the B pair and its swap, resolve matches lane-by-lane in ascending
/// hash order, advance whichever block's maximum is smaller. The
/// scalar merge finishes the tails.
double dotExactNeon(const uint64_t *AHashes, const double *AValues,
                    size_t ASize, const uint64_t *BHashes,
                    const double *BValues, size_t BSize) {
  double Sum = 0.0;
  size_t I = 0, J = 0;
  while (I + 2 <= ASize && J + 2 <= BSize) {
    const uint64x2_t VA = vld1q_u64(AHashes + I);
    const uint64x2_t VB = vld1q_u64(BHashes + J);
    const uint64x2_t VBSwap = vextq_u64(VB, VB, 1);
    const uint64x2_t Eq0 = vceqq_u64(VA, VB);
    const uint64x2_t Eq1 = vceqq_u64(VA, VBSwap);
    // Lane L of Eq0 means A[I+L] == B[J+L]; lane L of Eq1 means
    // A[I+L] == B[J+((L+1)&1)]. Hashes inside a block are distinct, so
    // at most one of the two fires per lane; lanes in ascending order
    // keep the match sequence ascending.
    for (int L = 0; L < 2; ++L) {
      const uint64_t M0 = L == 0 ? vgetq_lane_u64(Eq0, 0) : vgetq_lane_u64(Eq0, 1);
      const uint64_t M1 = L == 0 ? vgetq_lane_u64(Eq1, 0) : vgetq_lane_u64(Eq1, 1);
      if (M0)
        Sum += AValues[I + L] * BValues[J + L];
      else if (M1)
        Sum += AValues[I + L] * BValues[J + ((L + 1) & 1)];
    }
    const uint64_t AMax = AHashes[I + 1], BMax = BHashes[J + 1];
    if (AMax <= BMax)
      I += 2;
    if (BMax <= AMax)
      J += 2;
  }
  return mergeIntersect(AHashes + I, AValues + I, ASize - I, BHashes + J,
                        BValues + J, BSize - J, Sum);
}

#endif // __aarch64__

/// Portable probe loop of ExactScan::dot — branchless four-slot bucket
/// compare without vector intrinsics (the fallback when no SIMD kernel
/// is compiled in or selected). Same discovery order, same speculative
/// match-buffer write as the AVX2 version.
double dotScanGeneric(const uint64_t *BucketHashes, const double *BucketValues,
                      int Shift, double *Matches, const uint64_t *SHashes,
                      const double *SValues, size_t SSize) {
  size_t N = 0;
  for (size_t J = 0; J < SSize; ++J) {
    const uint64_t H = SHashes[J];
    const uint64_t *Slot = BucketHashes + (H >> Shift) * 4;
    const unsigned M =
        static_cast<unsigned>(Slot[0] == H) |
        (static_cast<unsigned>(Slot[1] == H) << 1) |
        (static_cast<unsigned>(Slot[2] == H) << 2) |
        (static_cast<unsigned>(Slot[3] == H) << 3);
    const unsigned Lane =
        static_cast<unsigned>(__builtin_ctz(M | 0x10u)) & 3u;
    Matches[N] = BucketValues[(H >> Shift) * 4 + Lane] * SValues[J];
    N += (M != 0);
  }
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I)
    Sum += Matches[I];
  return Sum;
}

bool envForcesScalar() {
  const char *Env = std::getenv("KAST_FORCE_SCALAR");
  // Unset, empty, and "0" all mean "not forced"; anything else forces.
  return Env && Env[0] != '\0' && !(Env[0] == '0' && Env[1] == '\0');
}

} // namespace

const char *kernelName(DotKernel K) {
  switch (K) {
  case DotKernel::Avx2:
    return "avx2";
  case DotKernel::Neon:
    return "neon";
  case DotKernel::Scalar:
    return "scalar";
  }
  return "scalar";
}

DotKernel detectKernel() {
  if (envForcesScalar())
    return DotKernel::Scalar;
#if defined(KAST_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2"))
    return DotKernel::Avx2;
#endif
#if defined(__aarch64__)
  return DotKernel::Neon;
#endif
  return DotKernel::Scalar;
}

DotKernel activeKernel() {
  static const DotKernel K = detectKernel();
  return K;
}

bool scalarForced() {
  static const bool Forced = envForcesScalar();
  return Forced;
}

double dotScalar(const uint64_t *AHashes, const double *AValues, size_t ASize,
                 const uint64_t *BHashes, const double *BValues, size_t BSize) {
  return mergeIntersect(AHashes, AValues, ASize, BHashes, BValues, BSize);
}

double dotExact(const uint64_t *AHashes, const double *AValues, size_t ASize,
                const uint64_t *BHashes, const double *BValues, size_t BSize) {
  if (scalarForced())
    return dotScalar(AHashes, AValues, ASize, BHashes, BValues, BSize);
  if (shouldGallop(ASize, BSize)) {
    if (ASize <= BSize)
      return gallopIntersect(AHashes, AValues, ASize, BHashes, BValues, BSize);
    return gallopIntersect(BHashes, BValues, BSize, AHashes, AValues, ASize);
  }
  switch (activeKernel()) {
#if defined(KAST_SIMD_AVX2)
  case DotKernel::Avx2:
    return detail::dotExactAvx2(AHashes, AValues, ASize, BHashes, BValues,
                                BSize);
#endif
#if defined(__aarch64__)
  case DotKernel::Neon:
    return dotExactNeon(AHashes, AValues, ASize, BHashes, BValues, BSize);
#endif
  default:
    return dotScalar(AHashes, AValues, ASize, BHashes, BValues, BSize);
  }
}

void ExactScan::assign(const uint64_t *Hashes, const double *Values,
                       size_t Size) {
  QHashes = Hashes;
  QValues = Values;
  QSize = Size;
  TableOk = false;
  // Tiny queries: the merge join is already cheap and the build cost
  // would never amortize. Forced-scalar mode keeps the exact pre-SIMD
  // code shape, so the table stays off there too.
  if (scalarForced() || Size < 16)
    return;
  // Power-of-two bucket count at load factor <= 1/2. Feature hashes
  // are uniformly distributed, so four slots per bucket almost always
  // suffice; a doubling retry absorbs unlucky clustering, and a query
  // that still overflows (adversarial top bits) just keeps the
  // merge-join fallback.
  size_t Buckets = 2;
  while (Buckets < Size)
    Buckets <<= 1;
  Buckets <<= 1;
  for (int Attempt = 0; Attempt < 3; ++Attempt, Buckets <<= 1) {
    int ShiftTry = 64;
    for (size_t B = Buckets; B > 1; B >>= 1)
      --ShiftTry;
    BucketHashes.assign(Buckets * 4, 0);
    BucketValues.assign(Buckets * 4, 0.0);
    // Every slot starts as a pad hash addressed to the *neighboring*
    // bucket: a probe of bucket B compares only hashes whose top bits
    // equal B, so a pad (top bits B ^ 1) can never produce a false
    // match — and no query hash equals its own bucket's pad for the
    // same reason, which is what makes pad slots recognizably free
    // during insertion.
    for (size_t B = 0; B < Buckets; ++B) {
      const uint64_t Pad = static_cast<uint64_t>(B ^ 1) << ShiftTry;
      for (size_t L = 0; L < 4; ++L)
        BucketHashes[B * 4 + L] = Pad;
    }
    bool Overflow = false;
    for (size_t I = 0; I < Size; ++I) {
      const size_t B = static_cast<size_t>(Hashes[I] >> ShiftTry);
      const uint64_t Pad = static_cast<uint64_t>(B ^ 1) << ShiftTry;
      size_t L = 0;
      while (L < 4 && BucketHashes[B * 4 + L] != Pad)
        ++L;
      if (L == 4) {
        Overflow = true;
        break;
      }
      BucketHashes[B * 4 + L] = Hashes[I];
      BucketValues[B * 4 + L] = Values[I];
    }
    if (!Overflow) {
      Shift = ShiftTry;
      Matches.resize(Size + 1);
      TableOk = true;
      return;
    }
  }
}

double ExactScan::dot(const uint64_t *SHashes, const double *SValues,
                      size_t SSize) {
  // No table, or a stored side so much larger than the query that
  // galloping over the query beats SSize probes: delegate to the
  // shape-dispatched exact kernel.
  if (!TableOk || (SSize >= GallopMinLarge && QSize * GallopRatio <= SSize))
    return dotExact(QHashes, QValues, QSize, SHashes, SValues, SSize);
  switch (activeKernel()) {
#if defined(KAST_SIMD_AVX2)
  case DotKernel::Avx2:
    return detail::dotScanAvx2(BucketHashes.data(), BucketValues.data(), Shift,
                               Matches.data(), SHashes, SValues, SSize);
#endif
  default:
    return dotScanGeneric(BucketHashes.data(), BucketValues.data(), Shift,
                          Matches.data(), SHashes, SValues, SSize);
  }
}

} // namespace simd
} // namespace kast
