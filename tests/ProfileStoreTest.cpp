//===- tests/ProfileStoreTest.cpp - arena storage --------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The structure-of-arrays storage contract: profiles copied into a
// ProfileStore come back bit-exactly (views, materialized staging
// copies, and every pairwise dot), the Gram fast path over store views
// matches the per-pair baseline across tile boundaries.
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "core/ProfileStore.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table,
                            Rng &R, size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

std::vector<WeightedString>
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, size_t N) {
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I) {
    WeightedString S = randomString(Table, R, R.uniformInt(1, 32), 6);
    S.setName("s" + std::to_string(I));
    Corpus.push_back(std::move(S));
  }
  return Corpus;
}

void expectBitExact(const KernelProfile &A, const KernelProfile &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A.entries()[I].Hash, B.entries()[I].Hash);
    EXPECT_EQ(std::bit_cast<uint64_t>(A.entries()[I].Value),
              std::bit_cast<uint64_t>(B.entries()[I].Value))
        << "entry " << I;
  }
}

//===----------------------------------------------------------------------===//
// Arena append, views, dots
//===----------------------------------------------------------------------===//

TEST(ProfileStoreTest, ViewsAndDotsMatchStagingProfilesBitExactly) {
  Rng R(10110);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 24);
  BlendedSpectrumKernel Kernel(3, 0.9, /*Weighted=*/true, /*CutWeight=*/2);

  std::vector<KernelProfile> Staged;
  ProfileStore Store;
  for (const WeightedString &S : Corpus) {
    Staged.push_back(Kernel.profile(S));
    EXPECT_EQ(Store.append(Staged.back()), Staged.size() - 1);
  }
  ASSERT_EQ(Store.size(), Corpus.size());
  EXPECT_TRUE(Store.isFinalized());

  size_t TotalEntries = 0;
  for (size_t I = 0; I < Staged.size(); ++I) {
    const ProfileView V = Store.view(I);
    ASSERT_EQ(V.Size, Staged[I].size());
    for (size_t E = 0; E < V.Size; ++E) {
      EXPECT_EQ(V.Hashes[E], Staged[I].entries()[E].Hash);
      EXPECT_EQ(std::bit_cast<uint64_t>(V.Values[E]),
                std::bit_cast<uint64_t>(Staged[I].entries()[E].Value));
    }
    // Cached self-dot and norm agree with the merge-join ground truth.
    EXPECT_EQ(std::bit_cast<uint64_t>(V.SelfDot),
              std::bit_cast<uint64_t>(Staged[I].dot(Staged[I])));
    EXPECT_DOUBLE_EQ(V.Norm, std::sqrt(V.SelfDot));
    EXPECT_EQ(Store.selfDot(I), V.SelfDot);
    EXPECT_EQ(Store.norm(I), V.Norm);
    // Materialized staging copies are bit-exact.
    expectBitExact(Store.materialize(I), Staged[I]);
    TotalEntries += V.Size;
  }
  EXPECT_EQ(Store.entryCount(), TotalEntries);

  // Every pairwise dot — view×view and view×staging — is bit-identical
  // to the staging-type merge join.
  for (size_t I = 0; I < Staged.size(); ++I)
    for (size_t J = 0; J < Staged.size(); ++J) {
      double Truth = Staged[I].dot(Staged[J]);
      EXPECT_EQ(std::bit_cast<uint64_t>(dot(Store.view(I), Store.view(J))),
                std::bit_cast<uint64_t>(Truth))
          << I << "," << J;
      EXPECT_EQ(std::bit_cast<uint64_t>(dot(Store.view(I), Staged[J])),
                std::bit_cast<uint64_t>(Truth))
          << I << "," << J;
    }
}

TEST(ProfileStoreTest, AppendFromCopiesArenaToArenaBitExactly) {
  Rng R(20220);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12);
  BlendedSpectrumKernel Kernel(3, 0.9, /*Weighted=*/true, /*CutWeight=*/2);

  ProfileStore Source;
  for (const WeightedString &S : Corpus)
    Source.append(Kernel.profile(S));

  // Copy every other profile, out of order, into a fresh arena — the
  // shape of a tombstone-dropping compaction — and check bit patterns
  // plus the carried-over self-dot/norm caches.
  ProfileStore Rebuilt;
  std::vector<size_t> Picks = {9, 1, 5, 3, 7};
  for (size_t P = 0; P < Picks.size(); ++P)
    EXPECT_EQ(Rebuilt.appendFrom(Source, Picks[P]), P);
  ASSERT_EQ(Rebuilt.size(), Picks.size());
  EXPECT_TRUE(Rebuilt.isFinalized());
  for (size_t P = 0; P < Picks.size(); ++P) {
    const ProfileView From = Source.view(Picks[P]);
    const ProfileView To = Rebuilt.view(P);
    ASSERT_EQ(To.Size, From.Size);
    for (size_t E = 0; E < To.Size; ++E) {
      EXPECT_EQ(To.Hashes[E], From.Hashes[E]);
      EXPECT_EQ(std::bit_cast<uint64_t>(To.Values[E]),
                std::bit_cast<uint64_t>(From.Values[E]));
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(To.SelfDot),
              std::bit_cast<uint64_t>(From.SelfDot));
    EXPECT_EQ(std::bit_cast<uint64_t>(To.Norm),
              std::bit_cast<uint64_t>(From.Norm));
  }
}

TEST(ProfileStoreTest, EmptyProfilesTakeZeroArenaSpace) {
  ProfileStore Store;
  KernelProfile NonEmpty;
  NonEmpty.add(7, 2.0);
  NonEmpty.finalize();

  Store.append(KernelProfile());
  Store.append(NonEmpty);
  Store.append(KernelProfile());

  ASSERT_EQ(Store.size(), 3u);
  EXPECT_EQ(Store.entryCount(), 1u);
  EXPECT_TRUE(Store.view(0).empty());
  EXPECT_TRUE(Store.view(2).empty());
  EXPECT_EQ(Store.view(0).Norm, 0.0);
  EXPECT_EQ(Store.view(1).Size, 1u);
  EXPECT_DOUBLE_EQ(Store.view(1).SelfDot, 4.0);
  EXPECT_EQ(dot(Store.view(0), Store.view(1)), 0.0);
  EXPECT_TRUE(Store.materialize(0).empty());
}

//===----------------------------------------------------------------------===//
// Tiled Gram fill over the store (KernelMatrix fast path)
//===----------------------------------------------------------------------===//

TEST(ProfileStoreTest, TiledGramMatchesPerPairBaselineAcrossTileEdges) {
  Rng R(646465);
  auto Table = TokenTable::create();
  // 70 + 70 rows: the initial build and the appended block both
  // straddle the 64-row tile edge, so partial edge tiles, full tiles,
  // and the rectangle/triangle split all get exercised.
  std::vector<WeightedString> Base = randomCorpus(Table, R, 70);
  std::vector<WeightedString> Extra = randomCorpus(Table, R, 70);
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);

  KernelMatrixOptions Options;
  Options.Threads = 0; // Exercise the parallel tile fill.
  KernelMatrix Gram(Kernel, Options);
  Gram.appendRows(Base);
  ASSERT_NE(Gram.profileStore(), nullptr);
  EXPECT_EQ(Gram.profileStore()->size(), Base.size());
  Gram.appendRows(Extra);
  EXPECT_EQ(Gram.profileStore()->size(), Base.size() + Extra.size());

  std::vector<WeightedString> All = Base;
  All.insert(All.end(), Extra.begin(), Extra.end());
  KernelMatrixOptions Baseline = Options;
  Baseline.UsePrecompute = false; // Per-pair evaluate(), no store.
  Matrix Truth = computeKernelMatrix(Kernel, All, Baseline);

  Matrix Tiled = Gram.materialize();
  ASSERT_EQ(Tiled.rows(), Truth.rows());
  for (size_t I = 0; I < Truth.rows(); ++I)
    for (size_t J = 0; J < Truth.cols(); ++J)
      EXPECT_NEAR(Tiled.at(I, J), Truth.at(I, J),
                  1e-12 * std::max(1.0, std::fabs(Truth.at(I, J))))
          << "(" << I << ", " << J << ")";
}

TEST(ProfileStoreTest, NonProfiledKernelsKeepTheHandlePath) {
  auto Table = TokenTable::create();
  Rng R(11);
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 4);
  BlendedSpectrumKernel Profiled(2);
  KernelMatrixOptions NoPrecompute;
  NoPrecompute.UsePrecompute = false;
  // UsePrecompute off: even a profiled kernel takes the handle path.
  KernelMatrix Off(Profiled, NoPrecompute);
  Off.appendRows(Corpus);
  EXPECT_EQ(Off.profileStore(), nullptr);
  // On: the arena backs the fast path.
  KernelMatrix On(Profiled, {});
  On.appendRows(Corpus);
  EXPECT_NE(On.profileStore(), nullptr);
}

} // namespace
