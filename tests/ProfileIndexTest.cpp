//===- tests/ProfileIndexTest.cpp - profile index and retrieval ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The retrieval contract of ProfileIndex: queries agree with the
// Gram-matrix ground truth produced by computeKernelMatrix over the
// same kernel, batches agree with single queries at any thread count,
// and an index saved as a flat image reloads bit-exactly (names,
// labels, norms, and therefore every answer).
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "index/ProfileIndex.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <fstream>

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
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, size_t N,
             const std::string &Prefix) {
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I) {
    WeightedString S = randomString(Table, R, R.uniformInt(1, 32), 6);
    S.setName(Prefix + std::to_string(I));
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
// ProfileIndex: queries, determinism, Gram ground truth
//===----------------------------------------------------------------------===//

TEST(ProfileIndexTest, TopKOrderingAndTieBreaks) {
  ProfileIndex Index("test");
  auto MakeProfile = [](std::vector<ProfileEntry> Entries) {
    KernelProfile P;
    for (const ProfileEntry &E : Entries)
      P.add(E.Hash, E.Value);
    P.finalize();
    return P;
  };
  // Entries 0 and 2 are identical (tie); entry 1 is orthogonal.
  Index.add("e0", "x", MakeProfile({{1, 1.0}}));
  Index.add("e1", "y", MakeProfile({{2, 1.0}}));
  Index.add("e2", "x", MakeProfile({{1, 1.0}}));

  KernelProfile Query = MakeProfile({{1, 2.0}});
  std::vector<Neighbor> Hits = Index.query(Query, 2);
  ASSERT_EQ(Hits.size(), 2u);
  EXPECT_EQ(Hits[0].Index, 0u); // Tie with 2 breaks toward smaller index.
  EXPECT_EQ(Hits[1].Index, 2u);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 1.0); // Cosine.
  EXPECT_EQ(Index.majorityLabel(Hits), "x");

  // K beyond size clamps; orthogonal entry scores zero.
  Hits = Index.query(Query, 10);
  ASSERT_EQ(Hits.size(), 3u);
  EXPECT_EQ(Hits[2].Index, 1u);
  EXPECT_DOUBLE_EQ(Hits[2].Similarity, 0.0);

  // Raw (unnormalized) dot keeps magnitudes.
  Hits = Index.query(Query, 1, /*Normalize=*/false);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 2.0);

  // An empty query has vanishing norm: all cosine scores are zero.
  Hits = Index.query(KernelProfile(), 1);
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 0.0);
}

TEST(ProfileIndexTest, MajorityLabelCountsAndTieBreaks) {
  // Regression for the O(k²) rescan-per-neighbor counting: the single
  // pass must keep both halves of the documented contract — highest
  // total count wins, and a count *tie* goes to the label whose first
  // occurrence is nearest.
  ProfileIndex Index("test");
  KernelProfile P;
  P.add(1, 1.0);
  P.finalize();
  // Entry i gets label Labels[i]; similarities are irrelevant to the
  // vote, so synthetic Neighbor lists stand in for query results.
  for (const char *Label : {"y", "x", "x", "y", "z"})
    Index.add("e", Label, P);

  // Adversarial tie: y and x both total 2, y's first occurrence is
  // the nearest neighbor → y wins even though x reaches count 2 first
  // during an incremental scan.
  EXPECT_EQ(Index.majorityLabel({{0, 0.9}, {1, 0.8}, {2, 0.7}, {3, 0.6}}),
            "y");
  // Strict majority displaces a nearer singleton: x twice beats y once.
  EXPECT_EQ(Index.majorityLabel({{3, 0.9}, {1, 0.8}, {2, 0.7}}), "x");
  // Duplicate labels scattered among others still aggregate.
  EXPECT_EQ(Index.majorityLabel({{4, 0.9}, {0, 0.8}, {1, 0.7}, {3, 0.6}}),
            "y");
  // Single neighbor and empty list edge cases.
  EXPECT_EQ(Index.majorityLabel({{2, 0.5}}), "x");
  EXPECT_EQ(Index.majorityLabel({}), "");
}

TEST(ProfileIndexTest, EdgeCasesReturnCleanly) {
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  // Querying an empty index: no hits, no crash, for both entry points.
  ProfileIndex Empty("k");
  EXPECT_TRUE(Empty.query(P, 3).empty());
  EXPECT_TRUE(Empty.query(P, 0).empty());
  std::vector<std::vector<Neighbor>> Batch =
      Empty.queryBatch({P, KernelProfile()}, 3, true, 1);
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_TRUE(Batch[0].empty());
  EXPECT_TRUE(Batch[1].empty());
  EXPECT_EQ(Empty.majorityLabel({}), "");

  ProfileIndex Index("k");
  Index.add("a", "x", P);
  Index.add("b", "y", P);

  // k == 0 is an explicit no-op, not a caller-discipline assumption.
  EXPECT_TRUE(Index.query(P, 0).empty());
  for (const std::vector<Neighbor> &Hits :
       Index.queryBatch({P, P}, 0, true, 1))
    EXPECT_TRUE(Hits.empty());

  // k beyond size() clamps to size().
  EXPECT_EQ(Index.query(P, 100).size(), 2u);
  EXPECT_EQ(Index.queryBatch({P}, 100, true, 1)[0].size(), 2u);
}

TEST(ProfileIndexTest, SaveWritesV3UnroutedAndV4Routed) {
  Rng R(515151);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 10, "c");
  BlendedSpectrumKernel Kernel(3);
  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, 1);
  auto header = [](const std::string &Path) {
    std::ifstream In(Path, std::ios::binary);
    char Bytes[12] = {};
    EXPECT_TRUE(In.read(Bytes, sizeof(Bytes)).good()) << Path;
    return std::make_pair(std::string(Bytes, 8),
                          static_cast<unsigned char>(Bytes[8]));
  };

  // save() writes a flat image: version 3 while unrouted...
  std::string Path = testing::TempDir() + "/kast_index_version.kfi";
  ASSERT_TRUE(Index.save(Path).ok());
  EXPECT_EQ(header(Path).first, "KASTFLAT");
  EXPECT_EQ(header(Path).second, FlatImageVersion);
  Expected<ProfileIndex> Unrouted = ProfileIndex::load(Path);
  ASSERT_TRUE(Unrouted.hasValue()) << Unrouted.message();
  EXPECT_FALSE(Unrouted->routed());

  // ...and version 4, with the routing arenas, once routed.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 3;
  Index.buildRouting(Opts, 1);
  ASSERT_TRUE(Index.save(Path).ok());
  EXPECT_EQ(header(Path).second, FlatImageVersionRouted);
  Expected<ProfileIndex> Routed = ProfileIndex::load(Path);
  ASSERT_TRUE(Routed.hasValue()) << Routed.message();
  EXPECT_TRUE(Routed->routed());
  KernelProfile Query = Kernel.profile(randomString(Table, R, 20, 6));
  EXPECT_EQ(Unrouted->query(Query, 4), Index.query(Query, 4));
  EXPECT_EQ(Routed->queryApprox(Query, 4), Index.queryApprox(Query, 4));
}

TEST(ProfileIndexTest, AgreesWithGramMatrixGroundTruth) {
  Rng R(60601);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 20, "c");
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);

  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, /*Threads=*/1);
  ASSERT_EQ(Index.size(), Corpus.size());
  EXPECT_EQ(Index.kernelName(), Kernel.name());

  KernelMatrixOptions Options;
  Options.Threads = 1;
  Matrix K = computeKernelMatrix(Kernel, Corpus, Options);

  for (size_t I = 0; I < Corpus.size(); ++I) {
    std::vector<Neighbor> Hits = Index.query(Index.profile(I), 2);
    ASSERT_EQ(Hits.size(), 2u);
    // Top hit is the string itself at cosine 1.
    EXPECT_EQ(Hits[0].Index, I);
    EXPECT_NEAR(Hits[0].Similarity, 1.0, 1e-12);
    // Runner-up matches the normalized Gram row's best off-diagonal.
    size_t Best = I == 0 ? 1 : 0;
    for (size_t J = 0; J < Corpus.size(); ++J)
      if (J != I && K.at(I, J) > K.at(I, Best))
        Best = J;
    EXPECT_NEAR(Hits[1].Similarity, K.at(I, Best), 1e-9)
        << "query " << I << ": index found " << Hits[1].Index
        << ", Gram argmax " << Best;
  }
}

TEST(ProfileIndexTest, BatchedQueriesMatchSingleQueries) {
  Rng R(424243);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 16, "c");
  std::vector<WeightedString> Queries = randomCorpus(Table, R, 8, "q");
  KSpectrumKernel Kernel(2, /*Weighted=*/true, /*CutWeight=*/2);

  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, 1);
  std::vector<KernelProfile> QueryProfiles;
  for (const WeightedString &Q : Queries)
    QueryProfiles.push_back(Kernel.profile(Q));

  std::vector<std::vector<Neighbor>> Batched =
      Index.queryBatch(QueryProfiles, 3, /*Normalize=*/true, /*Threads=*/0);
  ASSERT_EQ(Batched.size(), Queries.size());
  for (size_t I = 0; I < QueryProfiles.size(); ++I)
    EXPECT_EQ(Batched[I], Index.query(QueryProfiles[I], 3));
}

TEST(ProfileIndexTest, QueryBatchIsThreadCountInvariant) {
  // Regression guard for the scratch-reuse scheme: queryBatch hands
  // each worker chunk one reusable scratch buffer, and a query's
  // result must never depend on what the previous query on the same
  // chunk left behind, nor on how queries map to chunks. Identical
  // batches across thread counts (and therefore chunk counts and
  // reuse patterns) must come back bit-identical.
  Rng R(987654);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 24, "c");
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, 1);

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 13, "q"))
    Queries.push_back(Kernel.profile(Q));
  Queries.push_back(KernelProfile());     // Degenerate query mid-batch.
  Queries.push_back(Queries[0]);          // Duplicate: same chunk or not.

  const auto ExpectBitIdentical =
      [](const std::vector<std::vector<Neighbor>> &A,
         const std::vector<std::vector<Neighbor>> &B, const char *What) {
        ASSERT_EQ(A.size(), B.size()) << What;
        for (size_t Q = 0; Q < A.size(); ++Q) {
          ASSERT_EQ(A[Q].size(), B[Q].size()) << What << " query " << Q;
          for (size_t I = 0; I < A[Q].size(); ++I) {
            EXPECT_EQ(A[Q][I].Index, B[Q][I].Index)
                << What << " query " << Q << " rank " << I;
            EXPECT_EQ(std::bit_cast<uint64_t>(A[Q][I].Similarity),
                      std::bit_cast<uint64_t>(B[Q][I].Similarity))
                << What << " query " << Q << " rank " << I;
          }
        }
      };

  std::vector<std::vector<Neighbor>> Reference =
      Index.queryBatch(Queries, 4, true, /*Threads=*/1);
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    ExpectBitIdentical(Index.queryBatch(Queries, 4, true, Threads), Reference,
                       "exact");
  // Per-query results agree with the batch, so scratch reuse is
  // invisible entirely.
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(Index.query(Queries[Q], 4), Reference[Q]) << "query " << Q;

  // The approximate tier reuses an epoch-versioned candidate scratch
  // across each chunk's queries — same invariant, same sweep.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 4;
  Opts.MaxDocFrequency = 0.5;
  Opts.DefaultNProbe = 2;
  Index.buildRouting(Opts, 1);
  std::vector<std::vector<Neighbor>> ApproxRef =
      Index.queryBatchApprox(Queries, 4, true, /*NProbe=*/0, /*Threads=*/1);
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    ExpectBitIdentical(Index.queryBatchApprox(Queries, 4, true, 0, Threads),
                       ApproxRef, "approx");
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(Index.queryApprox(Queries[Q], 4), ApproxRef[Q])
        << "approx query " << Q;
}

TEST(ProfileIndexTest, SaveLoadPreservesQueries) {
  Rng R(777);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12, "c");
  std::vector<std::string> Labels;
  for (size_t I = 0; I < Corpus.size(); ++I)
    Labels.push_back(I % 2 == 0 ? "even" : "odd");
  BlendedSpectrumKernel Kernel(3);

  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, Labels, 1);
  std::string Path = testing::TempDir() + "/kast_index_rt.kfi";
  Status S = Index.save(Path);
  ASSERT_TRUE(S.ok()) << S.message();

  Expected<ProfileIndex> Loaded = ProfileIndex::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  // The loaded arena views the image until the first add().
  EXPECT_TRUE(Loaded->store().isMapped());
  ASSERT_EQ(Loaded->size(), Index.size());
  EXPECT_EQ(Loaded->kernelName(), Index.kernelName());
  for (size_t I = 0; I < Index.size(); ++I) {
    EXPECT_EQ(Loaded->name(I), Index.name(I));
    EXPECT_EQ(Loaded->label(I), Index.label(I));
    EXPECT_EQ(std::bit_cast<uint64_t>(Loaded->norm(I)),
              std::bit_cast<uint64_t>(Index.norm(I)));
    expectBitExact(Loaded->profile(I), Index.profile(I));
  }
  KernelProfile Query = Kernel.profile(randomString(Table, R, 20, 6));
  EXPECT_EQ(Loaded->query(Query, 5), Index.query(Query, 5));

  // Growing the loaded index promotes its store, and saving it back
  // over the image it still maps round-trips the grown contents.
  ProfileIndex Grown = Loaded.take();
  Grown.add("extra", "even", Query);
  EXPECT_FALSE(Grown.store().isMapped());
  ASSERT_TRUE(Grown.save(Path).ok());
  Expected<ProfileIndex> Again = ProfileIndex::load(Path);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  ASSERT_EQ(Again->size(), Index.size() + 1);
  EXPECT_EQ(Again->name(Index.size()), "extra");
  EXPECT_EQ(Again->query(Query, 5), Grown.query(Query, 5));
}

} // namespace
