//===- tests/IndexServiceTest.cpp - concurrent serving layer ---------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The retrieval and serving contract of index/IndexService, the one
// top-k API: queries agree with a brute-force scalar reference and
// with the Gram-matrix ground truth produced by computeKernelMatrix
// over the same kernel, batches agree with single queries at any
// thread count, adds and removes publish atomically, snapshots are
// immutable (they answer identically forever, through concurrent
// writes and compactions), sharded flat images restart a service
// bit-exactly, and the whole thing holds up under ASan/UBSan with
// writers and readers interleaving freely.
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "util/SimdDot.h"
#include "workloads/CorpusIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <thread>

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

/// N random strings named "<prefix><i>".
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

/// N profiles with unique names "<prefix><i>" and labels cycling
/// through "a"/"b"/"c".
struct NamedProfiles {
  std::vector<std::string> Names;
  std::vector<std::string> Labels;
  std::vector<KernelProfile> Profiles;
};

NamedProfiles makeProfiles(const ProfiledStringKernel &Kernel, size_t N,
                           const std::string &Prefix, uint64_t Seed) {
  Rng R(Seed);
  auto Table = TokenTable::create();
  NamedProfiles Out;
  const char *Cycle[] = {"a", "b", "c"};
  for (size_t I = 0; I < N; ++I) {
    Out.Names.push_back(Prefix + std::to_string(I));
    Out.Labels.push_back(Cycle[I % 3]);
    Out.Profiles.push_back(
        Kernel.profile(randomString(Table, R, R.uniformInt(4, 24), 6)));
  }
  return Out;
}

BlendedSpectrumKernel &kernel() {
  static BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  return K;
}

/// \p Corpus profiled by \p Kernel, under the strings' own names and
/// \p Labels (empty: every label is "").
NamedProfiles profilesOf(const ProfiledStringKernel &Kernel,
                         const std::vector<WeightedString> &Corpus,
                         const std::vector<std::string> &Labels = {}) {
  NamedProfiles Out;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    Out.Names.push_back(Corpus[I].name());
    Out.Labels.push_back(Labels.empty() ? "" : Labels[I]);
    Out.Profiles.push_back(Kernel.profile(Corpus[I]));
  }
  return Out;
}

/// (name, similarity) pairs of service hits, for ground-truth compares.
std::vector<std::pair<std::string, double>>
flatten(const std::vector<ServiceHit> &Hits) {
  std::vector<std::pair<std::string, double>> Out;
  for (const ServiceHit &H : Hits)
    Out.push_back({H.Name, H.Similarity});
  return Out;
}

/// The top-K recomputed from its definition: every entry of \p P
/// scores the reference scalar merge join against \p Query (divided
/// by both norms under \p Normalize, 0 when either vanishes), ranked
/// by similarity desc, then insertion order.
std::vector<std::pair<std::string, double>>
bruteForceTopK(const NamedProfiles &P, const KernelProfile &Query, size_t K,
               bool Normalize = true) {
  const FlatProfile Q(Query);
  std::vector<std::pair<std::string, double>> Ranked;
  for (size_t I = 0; I < P.Profiles.size(); ++I) {
    const FlatProfile E(P.Profiles[I]);
    double Sim = simd::dotScalar(Q.Hashes.data(), Q.Values.data(), Q.size(),
                                 E.Hashes.data(), E.Values.data(), E.size());
    if (Normalize) {
      const double Denominator = Q.Norm * E.Norm;
      Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
    }
    Ranked.push_back({P.Names[I], Sim});
  }
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const auto &L, const auto &R) {
                     return L.second > R.second;
                   });
  Ranked.resize(std::min(K, Ranked.size()));
  return Ranked;
}

/// Bit-identical, not just ==: similarity must carry the same bit
/// pattern (a double == would let -0.0 pass for +0.0).
void expectBitIdentical(const std::vector<std::vector<ServiceHit>> &A,
                        const std::vector<std::vector<ServiceHit>> &B,
                        const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t Q = 0; Q < A.size(); ++Q) {
    ASSERT_EQ(A[Q].size(), B[Q].size()) << What << " query " << Q;
    for (size_t I = 0; I < A[Q].size(); ++I) {
      EXPECT_EQ(A[Q][I].Name, B[Q][I].Name)
          << What << " query " << Q << " rank " << I;
      EXPECT_EQ(std::bit_cast<uint64_t>(A[Q][I].Similarity),
                std::bit_cast<uint64_t>(B[Q][I].Similarity))
          << What << " query " << Q << " rank " << I;
    }
  }
}

/// Version byte of the flat image at \p Path (after the 8-byte magic).
unsigned imageVersion(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  char Header[12] = {};
  EXPECT_TRUE(In.read(Header, sizeof(Header)).good()) << Path;
  EXPECT_EQ(std::string(Header, 8), "KASTFLAT") << Path;
  return static_cast<unsigned char>(Header[8]);
}

/// Loads the shard images in \p Dir and restores a service from them.
Expected<IndexService> restore(const std::string &Dir,
                               const FlatImageReadOptions &Options = {}) {
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, "", Options);
  if (!Caches)
    return Expected<IndexService>::error(Caches.message());
  return IndexService::fromShardCaches(Caches.take());
}

//===----------------------------------------------------------------------===//
// Single-threaded correctness against brute-force and Gram ground truth
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, AddsPublishImmediatelyAndMatchBruteForce) {
  // Small shards and a tiny seal threshold so the test crosses every
  // structural boundary: staging tails, sealed segments, multi-shard
  // merges.
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);

  NamedProfiles P = makeProfiles(kernel(), 30, "s", 11);
  for (size_t I = 0; I < P.Profiles.size(); ++I) {
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
    EXPECT_EQ(Service.size(), I + 1); // Visible as soon as add returns.
  }
  EXPECT_EQ(Service.kernelName(), kernel().name());
  EXPECT_EQ(Service.shardCount(), 3u);

  // The scorer's dot is bit-identical to the scalar merge join, so
  // service hits must match the reference hit-for-hit (random
  // profiles make cross-shard ties vanishingly unlikely).
  NamedProfiles Q = makeProfiles(kernel(), 8, "q", 12);
  for (bool Normalize : {true, false})
    for (const KernelProfile &Query : Q.Profiles)
      EXPECT_EQ(flatten(Service.query(Query, 5, Normalize, 1)),
                bruteForceTopK(P, Query, 5, Normalize));

  // Batched equals single, through one snapshot.
  std::vector<std::vector<ServiceHit>> Batch =
      Service.queryBatch(Q.Profiles, 4, true, 2);
  IndexSnapshot Snap = Service.snapshot();
  ASSERT_EQ(Batch.size(), Q.Profiles.size());
  for (size_t I = 0; I < Q.Profiles.size(); ++I)
    EXPECT_EQ(Batch[I], Snap.query(Q.Profiles[I], 4, true, 1));
}

TEST(IndexServiceTest, TopKOrderingAndTieBreaks) {
  IndexService Service("test", {.Shards = 1});
  auto MakeProfile = [](std::vector<ProfileEntry> Entries) {
    KernelProfile P;
    for (const ProfileEntry &E : Entries)
      P.add(E.Hash, E.Value);
    P.finalize();
    return P;
  };
  // Entries 0 and 2 are identical (tie); entry 1 is orthogonal.
  Service.add("e0", "x", MakeProfile({{1, 1.0}}));
  Service.add("e1", "y", MakeProfile({{2, 1.0}}));
  Service.add("e2", "x", MakeProfile({{1, 1.0}}));

  KernelProfile Query = MakeProfile({{1, 2.0}});
  std::vector<ServiceHit> Hits = Service.query(Query, 2);
  ASSERT_EQ(Hits.size(), 2u);
  EXPECT_EQ(Hits[0].Name, "e0"); // Tie with e2 breaks toward the earlier.
  EXPECT_EQ(Hits[1].Name, "e2");
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 1.0); // Cosine.
  EXPECT_EQ(IndexSnapshot::majorityLabel(Hits), "x");

  // K beyond size clamps; orthogonal entry scores zero.
  Hits = Service.query(Query, 10);
  ASSERT_EQ(Hits.size(), 3u);
  EXPECT_EQ(Hits[2].Name, "e1");
  EXPECT_DOUBLE_EQ(Hits[2].Similarity, 0.0);

  // Raw (unnormalized) dot keeps magnitudes.
  Hits = Service.query(Query, 1, /*Normalize=*/false);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 2.0);

  // An empty query has vanishing norm: all cosine scores are zero.
  Hits = Service.query(KernelProfile(), 1);
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 0.0);
}

TEST(IndexServiceTest, AgreesWithGramMatrixGroundTruth) {
  Rng R(60601);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 20, "c");
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);

  IndexService Service =
      IndexService::build(Kernel, Corpus, {}, {.Shards = 3}, /*Threads=*/1);
  ASSERT_EQ(Service.size(), Corpus.size());
  EXPECT_EQ(Service.kernelName(), Kernel.name());

  KernelMatrixOptions Options;
  Options.Threads = 1;
  Matrix K = computeKernelMatrix(Kernel, Corpus, Options);

  for (size_t I = 0; I < Corpus.size(); ++I) {
    std::vector<ServiceHit> Hits =
        Service.query(Kernel.profile(Corpus[I]), 2, true, 1);
    ASSERT_EQ(Hits.size(), 2u);
    // Top hit is the string itself at cosine 1.
    EXPECT_EQ(Hits[0].Name, Corpus[I].name());
    EXPECT_NEAR(Hits[0].Similarity, 1.0, 1e-12);
    // Runner-up matches the normalized Gram row's best off-diagonal.
    size_t Best = I == 0 ? 1 : 0;
    for (size_t J = 0; J < Corpus.size(); ++J)
      if (J != I && K.at(I, J) > K.at(I, Best))
        Best = J;
    EXPECT_NEAR(Hits[1].Similarity, K.at(I, Best), 1e-9)
        << "query " << I << ": service found " << Hits[1].Name
        << ", Gram argmax " << Corpus[Best].name();
  }
}

TEST(IndexServiceTest, BatchedQueriesMatchSingleQueries) {
  Rng R(424243);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 16, "c");
  std::vector<WeightedString> Queries = randomCorpus(Table, R, 8, "q");
  KSpectrumKernel Kernel(2, /*Weighted=*/true, /*CutWeight=*/2);

  IndexService Service = IndexService::build(Kernel, Corpus, {}, {}, 1);
  const NamedProfiles Truth = profilesOf(Kernel, Corpus);
  std::vector<KernelProfile> QueryProfiles;
  for (const WeightedString &Q : Queries)
    QueryProfiles.push_back(Kernel.profile(Q));

  std::vector<std::vector<ServiceHit>> Batched =
      Service.queryBatch(QueryProfiles, 3, /*Normalize=*/true, /*Threads=*/0);
  ASSERT_EQ(Batched.size(), Queries.size());
  for (size_t I = 0; I < QueryProfiles.size(); ++I) {
    EXPECT_EQ(Batched[I], Service.query(QueryProfiles[I], 3));
    EXPECT_EQ(flatten(Batched[I]), bruteForceTopK(Truth, QueryProfiles[I], 3));
  }
}

TEST(IndexServiceTest, QueryBatchIsThreadCountInvariant) {
  // Regression guard for the scratch-reuse scheme: queryBatch hands
  // each worker chunk one reusable scratch per shard, and a query's
  // result must never depend on what the previous query on the same
  // chunk left behind, nor on how queries map to chunks. Identical
  // batches across thread counts (and therefore chunk counts and
  // reuse patterns) must come back bit-identical.
  Rng R(987654);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 24, "c");
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  IndexService Service =
      IndexService::build(Kernel, Corpus, {}, {.Shards = 3}, 1);

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 13, "q"))
    Queries.push_back(Kernel.profile(Q));
  Queries.push_back(KernelProfile()); // Degenerate query mid-batch.
  Queries.push_back(Queries[0]);      // Duplicate: same chunk or not.

  std::vector<std::vector<ServiceHit>> Reference =
      Service.queryBatch(Queries, 4, true, /*Threads=*/1);
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    expectBitIdentical(Service.queryBatch(Queries, 4, true, Threads),
                       Reference, "exact");
  // Per-query results agree with the batch, so scratch reuse is
  // invisible entirely.
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(Service.query(Queries[Q], 4, true, 1), Reference[Q])
        << "query " << Q;

  // The routed tier reuses an epoch-versioned candidate scratch across
  // each chunk's queries — same invariant, same sweep.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 3;
  Opts.MaxDocFrequency = 0.5;
  Opts.DefaultNProbe = 2;
  Service.rebuildRouting(Opts, 1);
  ASSERT_EQ(Service.snapshot().routedShardCount(), 3u);
  std::vector<std::vector<ServiceHit>> ApproxRef =
      Service.queryBatchApprox(Queries, 4, true, /*NProbe=*/0, /*Threads=*/1);
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    expectBitIdentical(Service.queryBatchApprox(Queries, 4, true, 0, Threads),
                       ApproxRef, "approx");
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(Service.queryApprox(Queries[Q], 4, true, 0, 1), ApproxRef[Q])
        << "approx query " << Q;
}

TEST(IndexServiceTest, EdgeCasesReturnCleanly) {
  IndexService Service("k", {.Shards = 2, .SealThreshold = 2});
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  // Querying an empty service: no hits, no crash, for every entry
  // point.
  EXPECT_TRUE(Service.empty());
  EXPECT_TRUE(Service.query(P, 5).empty());
  EXPECT_TRUE(Service.query(P, 0).empty());
  std::vector<std::vector<ServiceHit>> EmptyBatch =
      Service.queryBatch({P, KernelProfile()}, 3, true, 1);
  ASSERT_EQ(EmptyBatch.size(), 2u);
  EXPECT_TRUE(EmptyBatch[0].empty());
  EXPECT_TRUE(EmptyBatch[1].empty());
  EXPECT_EQ(Service.remove("missing"), 0u);
  Service.compact(1); // Compacting empty shards is a no-op, not a crash.
  EXPECT_TRUE(Service.snapshot().empty());

  Service.add("only", "l", P);
  Service.add("other", "m", P);
  // K == 0 is an explicit no-op, not a caller-discipline assumption.
  EXPECT_TRUE(Service.query(P, 0).empty());
  for (const std::vector<ServiceHit> &Hits :
       Service.queryBatch({P, P}, 0, true, 1))
    EXPECT_TRUE(Hits.empty());
  // K beyond size() clamps to the live count.
  EXPECT_EQ(Service.query(P, 100).size(), 2u);
  std::vector<std::vector<ServiceHit>> Batch =
      Service.queryBatch({P, KernelProfile()}, 3, true, 1);
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_EQ(Batch[0].size(), 2u);
  // An empty query has vanishing norm; cosine scores zero but the
  // entries are still returned.
  ASSERT_EQ(Batch[1].size(), 2u);
  EXPECT_EQ(Batch[1][0].Similarity, 0.0);

  EXPECT_EQ(IndexSnapshot::majorityLabel({}), "");
}

TEST(IndexServiceTest, MajorityLabelMatchesIndexContract) {
  // The single-pass vote must keep both halves of the documented
  // contract: the highest total count wins, and a count *tie* goes to
  // the label whose first occurrence is the nearer hit. Similarities
  // are irrelevant to the vote.
  const auto Vote = [](std::vector<std::string> Labels) {
    std::vector<ServiceHit> Hits;
    for (const std::string &Label : Labels)
      Hits.push_back({"n" + std::to_string(Hits.size()), Label, 0.5});
    return IndexSnapshot::majorityLabel(Hits);
  };
  // Adversarial tie: y and x both total 2, y's first occurrence is
  // the nearest hit → y wins even though x reaches count 2 first
  // during an incremental scan.
  EXPECT_EQ(Vote({"y", "x", "x", "y"}), "y");
  // A strict majority displaces a nearer singleton.
  EXPECT_EQ(Vote({"y", "x", "x"}), "x");
  EXPECT_EQ(Vote({"y", "x", "x", "y", "x"}), "x");
  // Duplicate labels scattered among others still aggregate.
  EXPECT_EQ(Vote({"z", "y", "x", "y"}), "y");
  // Single hit and empty list edge cases.
  EXPECT_EQ(Vote({"x"}), "x");
  EXPECT_EQ(Vote({}), "");
}

//===----------------------------------------------------------------------===//
// The single-index contract: a one-shard service is the whole index
//===----------------------------------------------------------------------===//

TEST(ProfileIndexTest, MajorityLabelCountsAndTieBreaks) {
  // The vote over hits a one-shard index really returns, labels read
  // back from the stored entries: highest total count wins, and a
  // count tie goes to the label whose first occurrence is nearest.
  IndexService Index("test", {.Shards = 1});
  KernelProfile P;
  P.add(1, 1.0);
  P.finalize();
  for (const char *Label : {"y", "x", "x", "y", "z"})
    Index.add("e" + std::to_string(Index.size()), Label, P);
  // Every entry scores the same, so the hits come back in insertion
  // order and Stored[I] is entry I.
  const std::vector<ServiceHit> Stored = Index.query(P, 5);
  ASSERT_EQ(Stored.size(), 5u);
  for (size_t I = 0; I < Stored.size(); ++I)
    ASSERT_EQ(Stored[I].Name, "e" + std::to_string(I));
  const auto Vote = [&](std::vector<size_t> Entries) {
    std::vector<ServiceHit> Hits;
    for (size_t I : Entries)
      Hits.push_back(Stored[I]);
    return IndexSnapshot::majorityLabel(Hits);
  };

  // Adversarial tie: y and x both total 2, y's first occurrence is
  // the nearest neighbor → y wins even though x reaches count 2 first
  // during an incremental scan.
  EXPECT_EQ(Vote({0, 1, 2, 3}), "y");
  // Strict majority displaces a nearer singleton: x twice beats y once.
  EXPECT_EQ(Vote({3, 1, 2}), "x");
  // Duplicate labels scattered among others still aggregate.
  EXPECT_EQ(Vote({4, 0, 1, 3}), "y");
  // Single neighbor and empty list edge cases.
  EXPECT_EQ(Vote({2}), "x");
  EXPECT_EQ(Vote({}), "");
}

TEST(ProfileIndexTest, EdgeCasesReturnCleanly) {
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  // Querying an empty index: no hits, no crash, for both entry points.
  IndexService Empty("k", {.Shards = 1});
  EXPECT_TRUE(Empty.query(P, 3).empty());
  EXPECT_TRUE(Empty.query(P, 0).empty());
  std::vector<std::vector<ServiceHit>> Batch =
      Empty.queryBatch({P, KernelProfile()}, 3, true, 1);
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_TRUE(Batch[0].empty());
  EXPECT_TRUE(Batch[1].empty());

  IndexService Index("k", {.Shards = 1});
  Index.add("a", "x", P);
  Index.add("b", "y", P);

  // K == 0 is an explicit no-op, not a caller-discipline assumption.
  EXPECT_TRUE(Index.query(P, 0).empty());
  for (const std::vector<ServiceHit> &Hits :
       Index.queryBatch({P, P}, 0, true, 1))
    EXPECT_TRUE(Hits.empty());

  // K beyond size() clamps to size().
  EXPECT_EQ(Index.query(P, 100).size(), 2u);
  EXPECT_EQ(Index.queryBatch({P}, 100, true, 1)[0].size(), 2u);
}

//===----------------------------------------------------------------------===//
// Removal, compaction, snapshot isolation
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, RemoveTombstonesAndSnapshotsStayIsolated) {
  IndexServiceOptions Options;
  Options.Shards = 2;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 16, "s", 21);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);

  const KernelProfile &Query = P.Profiles[5];
  IndexSnapshot Before = Service.snapshot();
  std::vector<ServiceHit> BeforeHits = Before.query(Query, 16, true, 1);
  ASSERT_EQ(BeforeHits.size(), 16u);
  // The query profile's own entry is the (cosine 1) top hit.
  EXPECT_EQ(BeforeHits[0].Name, "s5");

  EXPECT_EQ(Service.remove("s5"), 1u);
  EXPECT_EQ(Service.remove("s5"), 0u); // Already tombstoned.
  EXPECT_EQ(Service.size(), 15u);

  // Live queries no longer see the entry, at any K.
  for (const ServiceHit &H : Service.query(Query, 16, true, 1))
    EXPECT_NE(H.Name, "s5");
  // The pre-removal snapshot still answers exactly as before.
  EXPECT_EQ(Before.query(Query, 16, true, 1), BeforeHits);
  EXPECT_EQ(Before.size(), 16u);

  // Compaction drops tombstones without changing any answer...
  std::vector<ServiceHit> PreCompact = Service.query(Query, 15, true, 1);
  Service.compact(1);
  EXPECT_EQ(Service.size(), 15u);
  EXPECT_EQ(Service.query(Query, 15, true, 1), PreCompact);
  // ...and pre-compaction snapshots keep the old segments alive.
  EXPECT_EQ(Before.query(Query, 16, true, 1), BeforeHits);

  // Re-adding a removed name serves it again (a fresh entry, not a
  // resurrection of the tombstoned one).
  Service.add("s5", P.Labels[5], P.Profiles[5]);
  EXPECT_EQ(Service.size(), 16u);
  EXPECT_EQ(Service.query(Query, 1, true, 1)[0].Name, "s5");
}

//===----------------------------------------------------------------------===//
// Bulk import/export and the sharded-cache restart path
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, BuildServesTheWholeCorpus) {
  Rng R(31);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 20, "s");
  std::vector<std::string> Labels;
  for (size_t I = 0; I < Corpus.size(); ++I)
    Labels.push_back(I % 2 == 0 ? "even" : "odd");

  IndexService Service = IndexService::build(
      kernel(), Corpus, Labels, {.Shards = 4, .SealThreshold = 8}, 2);
  EXPECT_EQ(Service.size(), Corpus.size());
  EXPECT_EQ(Service.shardCount(), 4u);
  EXPECT_EQ(Service.kernelName(), kernel().name());
  const NamedProfiles Truth = profilesOf(kernel(), Corpus, Labels);
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 32);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(flatten(Service.query(Query, 5, true, 1)),
              bruteForceTopK(Truth, Query, 5));
  // Entries keep their strings' names and their labels.
  for (size_t I = 0; I < Corpus.size(); ++I) {
    std::vector<ServiceHit> Self =
        Service.query(Truth.Profiles[I], 1, true, 1);
    ASSERT_EQ(Self.size(), 1u);
    EXPECT_EQ(Self[0].Name, Corpus[I].name());
    EXPECT_EQ(Self[0].Label, Labels[I]);
  }
  // An unlabeled build labels every entry "".
  IndexService Unlabeled = IndexService::build(kernel(), Corpus, {}, {}, 1);
  for (const ServiceHit &H : Unlabeled.query(Truth.Profiles[0], 20, true, 1))
    EXPECT_EQ(H.Label, "");
}

TEST(IndexServiceTest, ShardCachesRestartTheServiceBitExactly) {
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 18, "s", 41);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  // Mix a removal in so the export path must drop tombstones.
  ASSERT_EQ(Service.remove("s7"), 1u);

  std::string Dir = testing::TempDir() + "/kast_service_restart";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(
      writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  ASSERT_EQ(Caches->size(), Options.Shards);
  // The restored stores view the images instead of copying them.
  for (const ProfileStoreCache &Shard : *Caches)
    EXPECT_TRUE(Shard.Store.isMapped());
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();

  EXPECT_EQ(Restored->size(), Service.size());
  EXPECT_EQ(Restored->shardCount(), Service.shardCount());
  EXPECT_EQ(Restored->kernelName(), Service.kernelName());
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 42);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(Restored->query(Query, 6, true, 1),
              Service.query(Query, 6, true, 1));
  // Name-hash routing survived the round trip: remove still lands.
  EXPECT_EQ(Restored->remove("s3"), 1u);
  EXPECT_EQ(Restored->size(), Service.size() - 1);

  // Kernel-name mismatches fail at restore, not as wrong similarity.
  std::vector<ProfileStoreCache> Bad(2);
  Bad[0].KernelName = "one";
  Bad[1].KernelName = "two";
  EXPECT_FALSE(IndexService::fromShardCaches(std::move(Bad)).hasValue());
  EXPECT_FALSE(IndexService::fromShardCaches({}).hasValue());
}

TEST(IndexServiceTest, ForeignCacheLayoutsSweepAllShardsOnRemove) {
  // A hand-assembled layout can hold the same name in several shards,
  // off its hash route. Restore must detect that and remove() must
  // sweep every shard instead of trusting the home-shard invariant.
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();
  std::vector<ProfileStoreCache> Caches(2);
  for (size_t S = 0; S < 2; ++S) {
    Caches[S].KernelName = "k";
    Caches[S].Store.append(P);
    Caches[S].Names.push_back("dup"); // In both shards: one is off-route.
    Caches[S].Labels.push_back("l");
  }
  Expected<IndexService> Service =
      IndexService::fromShardCaches(std::move(Caches));
  ASSERT_TRUE(Service.hasValue()) << Service.message();
  EXPECT_EQ(Service->size(), 2u);
  EXPECT_EQ(Service->remove("dup"), 2u); // Both copies, both shards.
  EXPECT_EQ(Service->size(), 0u);
  // entryCount keeps counting the tombstoned entries until compact.
  EXPECT_EQ(Service->entryCount(), 2u);
  Service->compact(1);
  EXPECT_EQ(Service->entryCount(), 0u);
}

TEST(IndexServiceTest, ResavingFewerShardsSweepsStaleCacheFiles) {
  // Saving a 2-shard service into a directory that previously held 3
  // shards must not leave the old shard-002 behind, or the next
  // restart would serve the stale corpus alongside the new one.
  KernelProfile P;
  P.add(5, 2.0);
  P.finalize();
  auto MakeService = [&](size_t Shards, size_t Entries) {
    IndexService Service("k", {.Shards = Shards});
    for (size_t I = 0; I < Entries; ++I)
      Service.add("n" + std::to_string(I), "l", P);
    return Service;
  };
  std::string Dir = testing::TempDir() + "/kast_shard_resave";
  std::filesystem::remove_all(Dir);
  IndexService Wide = MakeService(3, 6);
  ASSERT_TRUE(writeShardedProfileImages(Wide.toShardCaches(), Dir).ok());
  IndexService Narrow = MakeService(2, 4);
  ASSERT_TRUE(writeShardedProfileImages(Narrow.toShardCaches(), Dir).ok());

  EXPECT_FALSE(std::filesystem::exists(Dir + "/shard-002.kfi"));
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, "k");
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  ASSERT_EQ(Caches->size(), 2u);
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->size(), 4u);
}

//===----------------------------------------------------------------------===//
// Flat-image restart
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, V3ImagesRestartTheServiceBitExactly) {
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 18, "s", 61);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  ASSERT_EQ(Service.remove("s5"), 1u);

  // An unrouted service persists as version-3 images...
  std::string Dir = testing::TempDir() + "/kast_restart_v3";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());
  {
    std::ifstream In(Dir + "/shard-000.kfi", std::ios::binary);
    char Header[12] = {};
    ASSERT_TRUE(In.read(Header, sizeof(Header)).good());
    EXPECT_EQ(static_cast<unsigned char>(Header[8]), FlatImageVersion);
  }

  // ...which restore through the mapped open and through the
  // buffered, deep-validated fallback to the same answers.
  Expected<std::vector<ProfileStoreCache>> Mapped =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Mapped.hasValue()) << Mapped.message();
  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  Buffered.DeepValidate = true;
  Expected<std::vector<ProfileStoreCache>> Heap =
      loadShardedProfileImages(Dir, kernel().name(), Buffered);
  ASSERT_TRUE(Heap.hasValue()) << Heap.message();

  Expected<IndexService> FromMapped =
      IndexService::fromShardCaches(Mapped.take());
  ASSERT_TRUE(FromMapped.hasValue()) << FromMapped.message();
  Expected<IndexService> FromHeap = IndexService::fromShardCaches(Heap.take());
  ASSERT_TRUE(FromHeap.hasValue()) << FromHeap.message();
  EXPECT_EQ(FromMapped->snapshot().routedShardCount(), 0u);

  EXPECT_EQ(FromMapped->size(), Service.size());
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 62);
  for (const KernelProfile &Query : Q.Profiles) {
    std::vector<ServiceHit> Truth = Service.query(Query, 6, true, 1);
    EXPECT_EQ(FromMapped->query(Query, 6, true, 1), Truth);
    EXPECT_EQ(FromHeap->query(Query, 6, true, 1), Truth);
  }
}

TEST(IndexServiceTest, V3ImagesCarryRoutingAndSurviveWriters) {
  IndexServiceOptions Options;
  Options.Shards = 2;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 40, "s", 71);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 4;
  Route.MaxDocFrequency = 0.6;
  Route.DefaultNProbe = 2;
  Service.rebuildRouting(Route, 1);
  ASSERT_EQ(Service.snapshot().routedShardCount(), Options.Shards);

  // The export carries the routing tier as flat arena views, so each
  // shard persists as one image.
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  for (const ProfileStoreCache &Cache : Exported) {
    ASSERT_NE(Cache.Routing, nullptr);
    EXPECT_EQ(Cache.Routing->Covered, Cache.Store.size());
  }
  std::string Dir = testing::TempDir() + "/kast_restart_routed_v3";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Exported, Dir).ok());

  Expected<std::vector<ProfileStoreCache>> Images =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Images.hasValue()) << Images.message();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Images.take(), Options);
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->snapshot().routedShardCount(), Options.Shards);

  // Routed (pruned) answers match the original service bit for bit —
  // router and postings both came through the image.
  NamedProfiles Q = makeProfiles(kernel(), 5, "q", 72);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(Restored->queryApprox(Query, 5, true, 0, 1),
              Service.queryApprox(Query, 5, true, 0, 1));

  // Writers on the restored service must not disturb the mapped
  // segments: adds stage beside them, removes tombstone them, and a
  // pre-mutation snapshot keeps answering identically.
  IndexSnapshot Before = Restored->snapshot();
  std::vector<ServiceHit> Pinned = Before.query(Q.Profiles[0], 5, true, 1);
  NamedProfiles Extra = makeProfiles(kernel(), 8, "x", 73);
  for (size_t I = 0; I < Extra.Profiles.size(); ++I)
    Restored->add(Extra.Names[I], Extra.Labels[I], Extra.Profiles[I]);
  ASSERT_EQ(Restored->remove(P.Names[2]), 1u);
  EXPECT_EQ(Before.query(Q.Profiles[0], 5, true, 1), Pinned);
  EXPECT_EQ(Restored->size(), P.Profiles.size() + Extra.Profiles.size() - 1);

  // Compaction rebuilds owned arenas (promoting away from the mapped
  // image entirely) and the service still answers exactly.
  Restored->compact(1);
  for (const KernelProfile &Query : Q.Profiles) {
    std::vector<ServiceHit> Exact = Restored->query(Query, 5, true, 1);
    EXPECT_EQ(Restored->queryApprox(Query, 5, true, 0, 1), Exact);
  }
}

TEST(IndexServiceTest, EmbeddedRoutingMismatchFailsRestore) {
  // Routing arenas paired with contents they were not fitted on
  // (here: a truncated copy of the shard) must fail loudly at restore.
  IndexService Service("k", {.Shards = 1});
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();
  for (size_t I = 0; I < 6; ++I)
    Service.add("n" + std::to_string(I), "l", P);
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 2;
  Service.rebuildRouting(Route, 1);
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  ASSERT_EQ(Exported.size(), 1u);
  ASSERT_NE(Exported[0].Routing, nullptr);

  // Drop one profile but keep the arenas.
  ProfileStoreCache Stale;
  Stale.KernelName = Exported[0].KernelName;
  Stale.Routing = Exported[0].Routing;
  for (size_t I = 0; I + 1 < Exported[0].Store.size(); ++I) {
    Stale.Store.appendFrom(Exported[0].Store, I);
    Stale.Names.push_back(Exported[0].Names[I]);
    Stale.Labels.push_back(Exported[0].Labels[I]);
  }
  Expected<IndexService> Bad = IndexService::fromShardCaches({Stale});
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.message().find("does not match"), std::string::npos)
      << Bad.message();
}

TEST(IndexServiceTest, SaveWritesV3UnroutedAndV4Routed) {
  Rng R(515151);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 10, "c");
  BlendedSpectrumKernel Kernel(3);
  IndexService Service =
      IndexService::build(Kernel, Corpus, {}, {.Shards = 1}, 1);
  const std::string Dir = testing::TempDir() + "/kast_service_version";
  std::filesystem::remove_all(Dir);

  // Images are version 3 while unrouted...
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());
  EXPECT_EQ(imageVersion(Dir + "/shard-000.kfi"), FlatImageVersion);
  Expected<IndexService> Unrouted = restore(Dir);
  ASSERT_TRUE(Unrouted.hasValue()) << Unrouted.message();
  EXPECT_FALSE(Unrouted->routed());

  // ...and version 4, with the routing arenas, once routed.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 3;
  Service.rebuildRouting(Opts, 1);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());
  EXPECT_EQ(imageVersion(Dir + "/shard-000.kfi"), FlatImageVersionRouted);
  Expected<IndexService> Routed = restore(Dir);
  ASSERT_TRUE(Routed.hasValue()) << Routed.message();
  EXPECT_TRUE(Routed->routed());
  KernelProfile Query = Kernel.profile(randomString(Table, R, 20, 6));
  EXPECT_EQ(Unrouted->query(Query, 4), Service.query(Query, 4));
  EXPECT_EQ(Routed->queryApprox(Query, 4), Service.queryApprox(Query, 4));
}

TEST(IndexServiceTest, SaveLoadPreservesQueries) {
  Rng R(777);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12, "c");
  std::vector<std::string> Labels;
  for (size_t I = 0; I < Corpus.size(); ++I)
    Labels.push_back(I % 2 == 0 ? "even" : "odd");
  BlendedSpectrumKernel Kernel(3);

  IndexService Service =
      IndexService::build(Kernel, Corpus, Labels, {.Shards = 2}, 1);
  const std::string Dir = testing::TempDir() + "/kast_service_rt";
  std::filesystem::remove_all(Dir);
  const std::vector<ProfileStoreCache> Saved = Service.toShardCaches();
  ASSERT_TRUE(writeShardedProfileImages(Saved, Dir).ok());

  // Every entry comes back bit-exactly: names, labels, norms and
  // profiles, each shard's store viewing its image.
  Expected<std::vector<ProfileStoreCache>> Loaded =
      loadShardedProfileImages(Dir, Kernel.name());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), Saved.size());
  for (size_t S = 0; S < Saved.size(); ++S) {
    const ProfileStoreCache &A = (*Loaded)[S];
    const ProfileStoreCache &B = Saved[S];
    EXPECT_TRUE(A.Store.isMapped());
    EXPECT_EQ(A.KernelName, Kernel.name());
    ASSERT_EQ(A.Store.size(), B.Store.size());
    for (size_t I = 0; I < B.Store.size(); ++I) {
      EXPECT_EQ(A.Names[I], B.Names[I]);
      EXPECT_EQ(A.Labels[I], B.Labels[I]);
      EXPECT_EQ(std::bit_cast<uint64_t>(A.Store.norm(I)),
                std::bit_cast<uint64_t>(B.Store.norm(I)));
      const KernelProfile PA = A.Store.materialize(I);
      const KernelProfile PB = B.Store.materialize(I);
      ASSERT_EQ(PA.size(), PB.size());
      for (size_t E = 0; E < PA.size(); ++E) {
        EXPECT_EQ(PA.entries()[E].Hash, PB.entries()[E].Hash);
        EXPECT_EQ(std::bit_cast<uint64_t>(PA.entries()[E].Value),
                  std::bit_cast<uint64_t>(PB.entries()[E].Value));
      }
    }
  }
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Loaded.take());
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->size(), Service.size());
  KernelProfile Query = Kernel.profile(randomString(Table, R, 20, 6));
  EXPECT_EQ(Restored->query(Query, 5), Service.query(Query, 5));

  // Growing the restored service and saving it back over the images
  // it still maps round-trips the grown contents.
  Restored->add("extra", "even", Query);
  ASSERT_TRUE(
      writeShardedProfileImages(Restored->toShardCaches(), Dir).ok());
  Expected<IndexService> Again = restore(Dir);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  ASSERT_EQ(Again->size(), Service.size() + 1);
  EXPECT_EQ(Again->query(Query, 1)[0].Name, "extra");
  EXPECT_EQ(Again->query(Query, 5), Restored->query(Query, 5));
}

//===----------------------------------------------------------------------===//
// Concurrency stress: snapshot consistency under add/remove/query
//===----------------------------------------------------------------------===//

TEST(IndexServiceStressTest, SnapshotsStayConsistentUnderConcurrentWrites) {
  // Writers interleave adds and removes while readers continuously
  // snapshot and query. The contract under test: a snapshot answers
  // identically no matter when it is re-queried — mid-churn, from
  // another thread, or after the system quiesces. Runs under the
  // KAST_SANITIZE ASan/UBSan CI job like every other test, which is
  // where a torn publish or use-after-invalidate would surface.
  constexpr size_t Writers = 2;
  constexpr size_t Readers = 2;
  constexpr size_t PerWriter = 60;

  IndexServiceOptions Options;
  Options.Shards = 4;
  Options.SealThreshold = 8;
  IndexService Service(kernel().name(), Options);

  std::vector<NamedProfiles> WriterWork;
  for (size_t W = 0; W < Writers; ++W)
    WriterWork.push_back(
        makeProfiles(kernel(), PerWriter, "w" + std::to_string(W) + "-",
                     100 + W));
  NamedProfiles Q = makeProfiles(kernel(), 4, "q", 200);

  std::atomic<size_t> WritersDone{0};
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Writers; ++W) {
    Threads.emplace_back([&, W] {
      const NamedProfiles &Work = WriterWork[W];
      for (size_t I = 0; I < Work.Profiles.size(); ++I) {
        Service.add(Work.Names[I], Work.Labels[I], Work.Profiles[I]);
        // Every 7th entry is removed again a few adds later; every
        // 25th add triggers a compaction, so the readers race against
        // tombstoning and arena rebuilds too, not just appends.
        if (I % 7 == 6) {
          EXPECT_EQ(Service.remove(Work.Names[I - 3]), 1u);
        }
        if (I % 25 == 24)
          Service.compact(1);
      }
      WritersDone.fetch_add(1);
    });
  }

  struct Observation {
    IndexSnapshot Snap;
    size_t Size = 0;
    std::vector<std::vector<ServiceHit>> Results;
  };
  std::vector<std::vector<Observation>> Retained(Readers);
  for (size_t R = 0; R < Readers; ++R) {
    Threads.emplace_back([&, R] {
      size_t Iteration = 0;
      // At least one iteration even if the writers win the race to
      // finish, so every reader retains at least one observation.
      do {
        IndexSnapshot Snap = Service.snapshot();
        const size_t Size = Snap.size();
        std::vector<std::vector<ServiceHit>> First =
            Snap.queryBatch(Q.Profiles, 5, true, 1);
        // Immediate re-query of the same snapshot: identical top-k,
        // identical size, whatever the writers are doing meanwhile.
        EXPECT_EQ(Snap.queryBatch(Q.Profiles, 5, true, 1), First);
        EXPECT_EQ(Snap.size(), Size);
        for (const std::vector<ServiceHit> &Hits : First) {
          EXPECT_LE(Hits.size(), std::min<size_t>(5, Size));
          for (size_t H = 1; H < Hits.size(); ++H)
            EXPECT_GE(Hits[H - 1].Similarity, Hits[H].Similarity);
        }
        if (Iteration++ % 8 == 0)
          Retained[R].push_back({std::move(Snap), Size, std::move(First)});
      } while (WritersDone.load() < Writers);
    });
  }
  for (std::thread &T : Threads)
    T.join();

  // Quiesced re-query of every retained snapshot: the acceptance
  // criterion — what a reader observed mid-churn is exactly what the
  // snapshot still answers now that all writers are gone.
  size_t Checked = 0;
  for (const std::vector<Observation> &PerReader : Retained)
    for (const Observation &O : PerReader) {
      EXPECT_EQ(O.Snap.size(), O.Size);
      EXPECT_EQ(O.Snap.queryBatch(Q.Profiles, 5, true, 1), O.Results);
      ++Checked;
    }
  EXPECT_GT(Checked, 0u);

  // Final ground truth: after the dust settles the service serves
  // exactly the survivors, bit-identically to the brute-force scan.
  NamedProfiles Truth;
  for (size_t W = 0; W < Writers; ++W) {
    const NamedProfiles &Work = WriterWork[W];
    for (size_t I = 0; I < Work.Profiles.size(); ++I) {
      const bool Removed = I % 7 == 3 && I + 3 < Work.Profiles.size() &&
                           (I + 3) % 7 == 6;
      if (!Removed) {
        Truth.Names.push_back(Work.Names[I]);
        Truth.Labels.push_back(Work.Labels[I]);
        Truth.Profiles.push_back(Work.Profiles[I]);
      }
    }
  }
  EXPECT_EQ(Service.size(), Truth.Profiles.size());
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(flatten(Service.query(Query, 5, true, 1)),
              bruteForceTopK(Truth, Query, 5));
}

} // namespace
