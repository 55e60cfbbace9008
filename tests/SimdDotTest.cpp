//===- tests/SimdDotTest.cpp - vectorized dot-product kernels --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// THE EXACTNESS CONTRACT, pinned differentially: every strategy behind
// simd::dotExact (blocked SIMD, galloping, the probe-table scan) must
// return the same *bits* as the reference scalar merge join for every
// input — size edges around the vector width, duplicates shared across
// sides, disjoint sets, skew ratios that cross the gallop threshold.
// Plus end-to-end: exhaustive routing on a clustered corpus returns
// the exact scan's top-k bit-for-bit, and the retired shortlist
// options change nothing.
//
//===----------------------------------------------------------------------===//

#include "core/ProfileStore.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "util/SimdDot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <vector>

using namespace kast;

namespace {

struct Operand {
  std::vector<uint64_t> Hashes;
  std::vector<double> Values;

  size_t size() const { return Hashes.size(); }
};

/// A hash-sorted operand drawn from a shared universe so two operands
/// drawn from the same universe overlap. Universe slots are spread
/// across the full u64 range (like real feature hashes) by a
/// splitmix-style scramble, keeping the sorted order nontrivial.
Operand makeOperand(Rng &R, size_t Size, uint64_t UniverseSize,
                    uint64_t UniverseSalt = 0) {
  assert(Size <= UniverseSize && "can't draw more distinct slots than exist");
  Operand Op;
  if (Size == 0)
    return Op;
  // Sample distinct slots via a shuffle of [0, UniverseSize).
  std::vector<uint64_t> Slots(UniverseSize);
  for (uint64_t I = 0; I < UniverseSize; ++I)
    Slots[I] = I;
  R.shuffle(Slots);
  Slots.resize(Size);
  for (uint64_t &S : Slots) {
    // The salt occupies bits the slot never reaches, so operands drawn
    // with different salts are disjoint (the scramble is a bijection).
    uint64_t Z = S + (UniverseSalt << 32) + 0x9E3779B97F4A7C15ULL;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    S = Z ^ (Z >> 31);
  }
  std::sort(Slots.begin(), Slots.end());
  Op.Hashes = std::move(Slots);
  Op.Values.reserve(Size);
  for (size_t I = 0; I < Size; ++I)
    Op.Values.push_back(R.uniformReal() * 2.0 - 1.0);
  return Op;
}

uint64_t bits(double V) { return std::bit_cast<uint64_t>(V); }

/// EXPECT bit-equality of the dispatched kernel against the scalar
/// reference in both argument orders.
void expectExactMatchesScalar(const Operand &A, const Operand &B) {
  const double Ref = simd::dotScalar(A.Hashes.data(), A.Values.data(),
                                     A.size(), B.Hashes.data(),
                                     B.Values.data(), B.size());
  const double Got = simd::dotExact(A.Hashes.data(), A.Values.data(), A.size(),
                                    B.Hashes.data(), B.Values.data(), B.size());
  EXPECT_EQ(bits(Ref), bits(Got))
      << "dotExact diverges from dotScalar at sizes " << A.size() << "x"
      << B.size() << " on kernel " << simd::kernelName(simd::activeKernel());
  const double RefRev = simd::dotScalar(B.Hashes.data(), B.Values.data(),
                                        B.size(), A.Hashes.data(),
                                        A.Values.data(), A.size());
  const double GotRev = simd::dotExact(B.Hashes.data(), B.Values.data(),
                                       B.size(), A.Hashes.data(),
                                       A.Values.data(), A.size());
  EXPECT_EQ(bits(RefRev), bits(GotRev));
}

/// Sizes that straddle every block/lane boundary of the implemented
/// kernels (AVX2 blocks of 4, NEON blocks of 2) plus bulk sizes.
const size_t EdgeSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 256};

} // namespace

//===----------------------------------------------------------------------===//
// dotExact vs dotScalar
//===----------------------------------------------------------------------===//

TEST(SimdDotTest, ExactMatchesScalarAcrossSizeEdges) {
  Rng R(7);
  for (size_t ASize : EdgeSizes)
    for (size_t BSize : EdgeSizes) {
      const uint64_t Universe = std::max<uint64_t>(ASize + BSize, 2);
      Operand A = makeOperand(R, ASize, Universe);
      Operand B = makeOperand(R, BSize, Universe);
      expectExactMatchesScalar(A, B);
    }
}

TEST(SimdDotTest, ExactMatchesScalarOnIdenticalOperands) {
  Rng R(11);
  for (size_t Size : {1u, 4u, 5u, 9u, 128u}) {
    Operand A = makeOperand(R, Size, Size * 2);
    expectExactMatchesScalar(A, A); // every position matches
  }
}

TEST(SimdDotTest, ExactMatchesScalarOnDisjointAndAlienHashes) {
  Rng R(13);
  // Disjoint: same universe size, different salts — no slot collides
  // after scrambling (scramble is a bijection, salts differ).
  Operand A = makeOperand(R, 100, 200, /*UniverseSalt=*/1);
  Operand B = makeOperand(R, 100, 200, /*UniverseSalt=*/2);
  expectExactMatchesScalar(A, B);
  EXPECT_EQ(bits(simd::dotExact(A.Hashes.data(), A.Values.data(), A.size(),
                                B.Hashes.data(), B.Values.data(), B.size())),
            bits(+0.0));
  // Alien: one side's hashes from a tiny dense range the other side's
  // scrambled hashes never hit.
  Operand Alien;
  for (uint64_t H = 0; H < 50; ++H) {
    Alien.Hashes.push_back(H);
    Alien.Values.push_back(1.0);
  }
  expectExactMatchesScalar(A, Alien);
}

TEST(SimdDotTest, ExactMatchesScalarAcrossGallopThreshold) {
  Rng R(17);
  // Small-vs-large shapes on both sides of the gallop trigger
  // (ratio 16, floor 128), including exactly at it.
  const std::pair<size_t, size_t> Shapes[] = {
      {8, 100},  {8, 128},  {8, 129},  {8, 4096},
      {16, 255}, {16, 256}, {16, 257}, {1, 5000},
  };
  for (auto [Small, Large] : Shapes) {
    Operand A = makeOperand(R, Small, Small + Large);
    Operand B = makeOperand(R, Large, Small + Large);
    expectExactMatchesScalar(A, B);
  }
}

//===----------------------------------------------------------------------===//
// ExactScan (probe-table one-vs-many)
//===----------------------------------------------------------------------===//

TEST(SimdDotTest, ExactScanMatchesScalarAcrossShapes) {
  Rng R(19);
  simd::ExactScan Scan;
  for (size_t QSize : {0u, 1u, 15u, 16u, 17u, 64u, 300u}) {
    // Big enough for the largest stored side too — drawing more slots
    // than the universe holds would forge duplicate hashes, which the
    // strictly-increasing contract forbids.
    const uint64_t Universe = std::max<uint64_t>(QSize * 2, 512);
    Operand Q = makeOperand(R, QSize, Universe);
    Scan.assign(Q.Hashes.data(), Q.Values.data(), Q.size());
    for (size_t SSize : EdgeSizes) {
      Operand S = makeOperand(R, SSize, Universe);
      const double Ref =
          simd::dotScalar(Q.Hashes.data(), Q.Values.data(), Q.size(),
                          S.Hashes.data(), S.Values.data(), S.size());
      EXPECT_EQ(bits(Ref),
                bits(Scan.dot(S.Hashes.data(), S.Values.data(), S.size())))
          << "ExactScan diverges at " << QSize << "x" << SSize
          << " (table=" << Scan.usingTable() << ")";
    }
  }
}

TEST(SimdDotTest, ExactScanHandlesGallopDelegationShapes) {
  Rng R(23);
  // Stored side large enough to push the scan onto its gallop
  // delegation path; still bit-identical.
  Operand Q = makeOperand(R, 20, 8000);
  simd::ExactScan Scan;
  Scan.assign(Q.Hashes.data(), Q.Values.data(), Q.size());
  Operand S = makeOperand(R, 6000, 8000);
  const double Ref = simd::dotScalar(Q.Hashes.data(), Q.Values.data(),
                                     Q.size(), S.Hashes.data(),
                                     S.Values.data(), S.size());
  EXPECT_EQ(bits(Ref),
            bits(Scan.dot(S.Hashes.data(), S.Values.data(), S.size())));
}

TEST(SimdDotTest, ExactScanReassignReusesCapacity) {
  Rng R(29);
  simd::ExactScan Scan;
  for (int Round = 0; Round < 5; ++Round) {
    Operand Q = makeOperand(R, 50 + Round * 40, 1000);
    Scan.assign(Q.Hashes.data(), Q.Values.data(), Q.size());
    Operand S = makeOperand(R, 120, 1000);
    const double Ref = simd::dotScalar(Q.Hashes.data(), Q.Values.data(),
                                       Q.size(), S.Hashes.data(),
                                       S.Values.data(), S.size());
    EXPECT_EQ(bits(Ref),
              bits(Scan.dot(S.Hashes.data(), S.Values.data(), S.size())));
  }
}

//===----------------------------------------------------------------------===//
// Dispatch and the KAST_FORCE_SCALAR knob
//===----------------------------------------------------------------------===//

TEST(SimdDotTest, ForceScalarEnvPinsDetection) {
  const char *Old = std::getenv("KAST_FORCE_SCALAR");
  const std::string Saved = Old ? Old : "";
  // Any non-empty value other than "0" forces the scalar kernel.
  setenv("KAST_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(simd::detectKernel(), simd::DotKernel::Scalar);
  setenv("KAST_FORCE_SCALAR", "yes", 1);
  EXPECT_EQ(simd::detectKernel(), simd::DotKernel::Scalar);
  // Unset, empty, and "0" leave hardware detection in charge.
  setenv("KAST_FORCE_SCALAR", "0", 1);
  const simd::DotKernel Zero = simd::detectKernel();
  setenv("KAST_FORCE_SCALAR", "", 1);
  EXPECT_EQ(simd::detectKernel(), Zero);
  unsetenv("KAST_FORCE_SCALAR");
  EXPECT_EQ(simd::detectKernel(), Zero);
  if (Old)
    setenv("KAST_FORCE_SCALAR", Saved.c_str(), 1);
  EXPECT_STREQ(simd::kernelName(simd::DotKernel::Scalar), "scalar");
  EXPECT_STREQ(simd::kernelName(simd::DotKernel::Avx2), "avx2");
  EXPECT_STREQ(simd::kernelName(simd::DotKernel::Neon), "neon");
}

//===----------------------------------------------------------------------===//
// End-to-end: exhaustive routing against the exact scan
//===----------------------------------------------------------------------===//

namespace {

/// Clustered corpus: BaseCount base strings, each entry a point
/// mutation of its base, so cosine neighborhoods are the sibling
/// groups, with wide margins between in-group and out-group
/// similarities.
std::vector<WeightedString>
clusteredCorpus(const std::shared_ptr<TokenTable> &Table, size_t N,
                size_t BaseCount, Rng &R) {
  const size_t Length = 48;
  const uint32_t Alphabet = 10;
  std::vector<std::vector<std::pair<std::string, uint32_t>>> Bases(BaseCount);
  for (auto &Base : Bases)
    for (size_t I = 0; I < Length; ++I)
      Base.push_back({"t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
                      static_cast<uint32_t>(R.uniformInt(1, 16))});
  std::vector<WeightedString> Out;
  for (size_t I = 0; I < N; ++I) {
    auto Entry = Bases[I % BaseCount];
    for (auto &Tok : Entry)
      if (R.flip(0.25))
        Tok.first = "t" + std::to_string(R.uniformInt(0, Alphabet - 1));
    WeightedString S(Table, "e" + std::to_string(I));
    for (const auto &[Text, Weight] : Entry)
      S.append(Text, Weight);
    Out.push_back(std::move(S));
  }
  return Out;
}

/// Asserts \p Approx equals \p Exact entry by entry, similarity bits
/// included.
void expectSameHits(const std::vector<ServiceHit> &Exact,
                    const std::vector<ServiceHit> &Approx) {
  ASSERT_EQ(Exact.size(), Approx.size());
  for (size_t I = 0; I < Exact.size(); ++I) {
    EXPECT_EQ(Exact[I].Name, Approx[I].Name) << "rank " << I;
    EXPECT_EQ(bits(Exact[I].Similarity), bits(Approx[I].Similarity))
        << "rank " << I;
  }
}

} // namespace

TEST(SimdDotTest, QuantizedShortlistTopKMatchesExactScan) {
  Rng R(43);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3);
  const size_t N = 300;
  std::vector<WeightedString> Corpus = clusteredCorpus(Table, N + 10, 8, R);

  IndexService Service = IndexService::build(
      Kernel, {Corpus.begin(), Corpus.begin() + N}, {}, {.Shards = 1});
  // The retired int8 shortlist fields, set the way that tier used
  // them: a budget far below the candidate count (nearly every profile
  // shares a 3-gram with the query) and the shortlist on. Both are now
  // ignored, so with every centroid probed and no df-pruning the
  // routed answer is the exact scan's, bit for bit.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 8;
  Opts.RerankBudget = 64;
  Opts.QuantizedShortlist = true;
  Service.rebuildRouting(Opts);

  for (size_t QI = 0; QI < 10; ++QI) {
    const KernelProfile Query = Kernel.profile(Corpus[N + QI]);
    expectSameHits(Service.query(Query, 5),
                   Service.queryApprox(Query, 5, /*Normalize=*/true,
                                       /*NProbe=*/0));
  }
}

TEST(SimdDotTest, ExhaustiveRoutingStaysBitIdentical) {
  Rng R(47);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3);
  std::vector<WeightedString> Corpus = clusteredCorpus(Table, 120, 6, R);
  IndexService Service = IndexService::build(
      Kernel, {Corpus.begin(), Corpus.begin() + 100}, {}, {.Shards = 1});
  // Pure-defaults routing: every centroid, no df-pruning — the
  // documented bit-identity mode.
  Service.rebuildRouting({});
  for (size_t QI = 100; QI < 110; ++QI) {
    const KernelProfile Query = Kernel.profile(Corpus[QI]);
    expectSameHits(Service.query(Query, 7), Service.queryApprox(Query, 7));
  }
}
