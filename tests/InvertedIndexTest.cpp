//===- tests/InvertedIndexTest.cpp - differential recall harness -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The correctness harness of the two-tier (cluster router + inverted
// posting lists) retrieval path, pinned against the exact O(N) scan as
// ground truth. The central contract: run *exhaustively* — every
// centroid probed, no df-pruning (the RoutingOptions defaults) — the
// approximate path must be bit-identical to the exact scan: same ids,
// same similarity bit patterns, same tie-break order. Under aggressive
// pruning the results may differ, but only within a measured recall
// envelope; they always equal a from-scratch oracle (exact scores for
// the collected candidates and the unrouted tail, +0.0 for every other
// routed position); and structural invariants (unrouted tail always
// found, tombstoned entries never resurface, snapshots immune to later
// routing rebuilds) must hold unconditionally.
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "index/SegmentScorer.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "util/SimdDot.h"
#include "workloads/CorpusIO.h"
#include "workloads/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <set>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table, Rng &R,
                            size_t Length, uint32_t Alphabet) {
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
    WeightedString S = randomString(Table, R, R.uniformInt(4, 32), 6);
    S.setName(Prefix + std::to_string(I));
    Corpus.push_back(std::move(S));
  }
  return Corpus;
}

BlendedSpectrumKernel testKernel() {
  return BlendedSpectrumKernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
}

/// Bit-identical, not just ==: similarity must carry the exact scan's
/// bit pattern (a double == would let -0.0 pass for +0.0).
void expectHitsBitIdentical(const std::vector<ServiceHit> &Approx,
                            const std::vector<ServiceHit> &Exact,
                            const std::string &What) {
  ASSERT_EQ(Approx.size(), Exact.size()) << What;
  for (size_t I = 0; I < Exact.size(); ++I) {
    EXPECT_EQ(Approx[I].Name, Exact[I].Name) << What << " rank " << I;
    EXPECT_EQ(Approx[I].Label, Exact[I].Label) << What << " rank " << I;
    EXPECT_EQ(std::bit_cast<uint64_t>(Approx[I].Similarity),
              std::bit_cast<uint64_t>(Exact[I].Similarity))
        << What << " rank " << I;
  }
}

double recallAgainst(const std::vector<ServiceHit> &Exact,
                     const std::vector<ServiceHit> &Approx) {
  if (Exact.empty())
    return 1.0;
  std::set<std::string> Truth;
  for (const ServiceHit &H : Exact)
    Truth.insert(H.Name);
  size_t Found = 0;
  for (const ServiceHit &H : Approx)
    Found += Truth.count(H.Name);
  return static_cast<double>(Found) / static_cast<double>(Truth.size());
}

/// \p Corpus's profiles, in corpus order.
std::vector<KernelProfile>
profilesOf(const std::vector<WeightedString> &Corpus) {
  BlendedSpectrumKernel Kernel = testKernel();
  std::vector<KernelProfile> Out;
  for (const WeightedString &S : Corpus)
    Out.push_back(Kernel.profile(S));
  return Out;
}

/// A one-shard service over \p Corpus: one arena, routed as one unit.
IndexService oneShard(const std::vector<WeightedString> &Corpus,
                      size_t SealThreshold = 64) {
  return IndexService::build(testKernel(), Corpus, {},
                             {.Shards = 1, .SealThreshold = SealThreshold},
                             1);
}

/// The routing arenas a one-shard service exports (null when its shard
/// is unrouted or has grown past its routed segment).
std::shared_ptr<const RoutingArenas> exportedRouting(const IndexService &S) {
  return S.toShardCaches()[0].Routing;
}

/// Loads the shard images in \p Dir and restores a service from them.
Expected<IndexService> restore(const std::string &Dir) {
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir);
  if (!Caches)
    return Expected<IndexService>::error(Caches.message());
  return IndexService::fromShardCaches(Caches.take());
}

/// Random queries plus a few self queries (exact ties with stored
/// entries).
std::vector<KernelProfile>
oracleQueries(const std::shared_ptr<TokenTable> &T, Rng &R,
              const std::vector<WeightedString> &Corpus) {
  BlendedSpectrumKernel Kernel = testKernel();
  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(T, R, 24, "q"))
    Queries.push_back(Kernel.profile(Q));
  for (size_t I = 0; I < Corpus.size(); I += 37)
    Queries.push_back(Kernel.profile(Corpus[I]));
  return Queries;
}

//===----------------------------------------------------------------------===//
// Differential: exhaustive mode is the exact scan, bit for bit
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, ExhaustiveModeIsBitIdenticalToExactScan) {
  Rng R(1107);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 48, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexService Service = oneShard(Corpus);
  std::vector<KernelProfile> Stored = profilesOf(Corpus);
  // Duplicate a third of the corpus under fresh names: exact ties are
  // now abundant and the (sim desc, position asc) order must survive
  // the candidate-generation detour.
  for (size_t I = 0; I < Corpus.size(); I += 3) {
    Service.add("dup" + std::to_string(I), "", Stored[I]);
    Stored.push_back(Stored[I]);
  }

  // RoutingOptions defaults *are* exhaustive mode: every centroid
  // probed, no df-pruning. The rebuild folds every entry into the
  // routed segment.
  RoutingOptions Exhaustive;
  Exhaustive.Cluster.NumCentroids = 7;
  Service.rebuildRouting(Exhaustive, /*Threads=*/1);
  ASSERT_TRUE(Service.routed());
  ASSERT_EQ(exportedRouting(Service)->Covered, Service.size());

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 12, "q"))
    Queries.push_back(Kernel.profile(Q));
  for (size_t I = 0; I < Stored.size(); I += 7) // Self queries: exact ties.
    Queries.push_back(Stored[I]);
  Queries.push_back(KernelProfile()); // Empty query: everything scores 0.
  {
    // A query over a disjoint alphabet shares no feature with anyone:
    // every similarity is +0.0 and the result must be the pure
    // zero-fill order (positions ascending).
    WeightedString Alien(Table);
    for (size_t I = 0; I < 8; ++I)
      Alien.append("z" + std::to_string(I), 3);
    Queries.push_back(Kernel.profile(Alien));
  }

  const IndexSnapshot Snap = Service.snapshot();
  for (size_t Q = 0; Q < Queries.size(); ++Q) {
    for (size_t K : {size_t(1), size_t(5), Snap.size(), Snap.size() + 10}) {
      for (bool Normalize : {true, false}) {
        const std::string What = "query " + std::to_string(Q) + " k " +
                                 std::to_string(K) +
                                 (Normalize ? " cos" : " raw");
        expectHitsBitIdentical(
            Snap.queryApprox(Queries[Q], K, Normalize, 0, 1),
            Snap.query(Queries[Q], K, Normalize, 1), What);
      }
    }
  }
}

TEST(InvertedIndexTest, SingleCentroidExhaustiveStillBitIdentical) {
  Rng R(2214);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 30, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexService Service = oneShard(Corpus);
  const std::vector<KernelProfile> Stored = profilesOf(Corpus);

  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 1;
  Service.rebuildRouting(Opts, 1);
  ASSERT_EQ(exportedRouting(Service)->Centroids.size(), 1u);

  for (size_t I = 0; I < Stored.size(); I += 5)
    expectHitsBitIdentical(Service.queryApprox(Stored[I], 6, true, 0, 1),
                           Service.query(Stored[I], 6, true, 1),
                           "self " + std::to_string(I));
  KernelProfile Held = Kernel.profile(randomCorpus(Table, R, 1, "h")[0]);
  expectHitsBitIdentical(Service.queryApprox(Held, 9, true, 0, 1),
                         Service.query(Held, 9, true, 1), "held-out");
}

TEST(InvertedIndexTest, EdgeCasesReturnCleanly) {
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  // Routing an empty service fits nothing: queries fall through.
  IndexService Empty("k", {.Shards = 1});
  Empty.rebuildRouting({}, 1);
  EXPECT_FALSE(Empty.routed());
  EXPECT_TRUE(Empty.queryApprox(P, 3).empty());
  EXPECT_TRUE(Empty.queryApprox(P, 0).empty());
  EXPECT_TRUE(Empty.queryApprox(KernelProfile(), 4).empty());

  // An unrouted service answers queryApprox through the exact scan.
  IndexService Unrouted("k", {.Shards = 1});
  Unrouted.add("a", "", P);
  EXPECT_FALSE(Unrouted.routed());
  expectHitsBitIdentical(Unrouted.queryApprox(P, 2), Unrouted.query(P, 2),
                         "unrouted fallback");

  // k == 0 and k > N on a routed service.
  Rng R(5150);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 9, "c");
  IndexService Service = oneShard(Corpus);
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 3;
  Service.rebuildRouting(Opts, 1);
  ASSERT_TRUE(Service.routed());
  KernelProfile Q = testKernel().profile(Corpus[4]);
  EXPECT_TRUE(Service.queryApprox(Q, 0).empty());
  expectHitsBitIdentical(Service.queryApprox(Q, 100), Service.query(Q, 100),
                         "k beyond size");
  EXPECT_EQ(Service.queryApprox(Q, 100).size(), Service.size());

  // Compaction really drops the routing.
  Service.compact(1);
  EXPECT_FALSE(Service.routed());
  EXPECT_EQ(exportedRouting(Service), nullptr);
}

TEST(InvertedIndexTest, UnroutedTailIsAlwaysScannedExactly) {
  Rng R(3321);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 40, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  // A seal threshold of 4 turns the 10-entry tail below into two
  // sealed segments plus a 2-entry staging segment behind the routed
  // segment 0.
  IndexService Service = oneShard(Corpus, /*SealThreshold=*/4);
  std::vector<KernelProfile> Stored = profilesOf(Corpus);
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 5;
  Service.rebuildRouting(Opts, 1);
  ASSERT_EQ(exportedRouting(Service)->Covered, Corpus.size());

  std::vector<WeightedString> Tail = randomCorpus(Table, R, 10, "tail");
  for (const WeightedString &S : Tail) {
    Stored.push_back(Kernel.profile(S));
    Service.add(S.name(), "", Stored.back());
  }
  // Still routed, but the shard no longer exports its routing: the
  // fit covers segment 0 only, not the segments behind it.
  ASSERT_EQ(Service.snapshot().routedShardCount(), 1u);
  ASSERT_EQ(exportedRouting(Service), nullptr);
  ASSERT_GT(Service.size(), Corpus.size());

  // Exhaustive: still bit-identical with a tail present.
  for (size_t I = 0; I < Stored.size(); I += 11)
    expectHitsBitIdentical(Service.queryApprox(Stored[I], 7, true, 0, 1),
                           Service.query(Stored[I], 7, true, 1),
                           "tail self " + std::to_string(I));

  // Aggressive pruning: a tail entry queried with itself must still be
  // rank 1 at cosine 1 — the tail bypasses every pruning knob.
  RoutingOptions Aggressive;
  Aggressive.Cluster.NumCentroids = 5;
  Aggressive.MaxDocFrequency = 0.2;
  Aggressive.DefaultNProbe = 1;
  Service.rebuildRouting(Aggressive, 1);
  for (const WeightedString &S : randomCorpus(Table, R, 6, "tail2")) {
    const KernelProfile P = Kernel.profile(S);
    Service.add(S.name(), "", P);
    std::vector<ServiceHit> Hits = Service.queryApprox(P, 1, true, 0, 1);
    ASSERT_EQ(Hits.size(), 1u);
    EXPECT_EQ(Hits[0].Name, S.name());
    EXPECT_NEAR(Hits[0].Similarity, 1.0, 1e-12);
  }
}

//===----------------------------------------------------------------------===//
// Differential: aggressive pruning stays inside a recall envelope
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, AggressivePruningKeepsRecall) {
  // A structured corpus (generator categories + mutated copies) is
  // what the router is for: near-duplicates land in the same cluster.
  CorpusOptions Shape;
  Shape.BaseA = 6;
  Shape.BaseB = 6;
  Shape.BaseC = 6;
  Shape.BaseD = 6;
  Shape.CopiesPerBase = 6;
  LabeledDataset Data = convertCorpus(Pipeline::withBytes(), generateCorpus(Shape));
  ASSERT_GE(Data.size(), 100u);
  BlendedSpectrumKernel Kernel = testKernel();

  IndexService Service = IndexService::build(Kernel, Data.strings(),
                                             Data.labels(), {.Shards = 1}, 1);
  ASSERT_EQ(Service.size(), Data.size()); // Names are unique.

  RoutingOptions Aggressive;
  Aggressive.Cluster.NumCentroids = 8;
  Aggressive.MaxDocFrequency = 0.25;
  Aggressive.DefaultNProbe = 2;
  Service.rebuildRouting(Aggressive, 1);

  double RecallSum = 0.0;
  size_t QueryCount = 0;
  for (size_t I = 0; I < Data.size(); I += 3) {
    KernelProfile Q = Kernel.profile(Data.string(I));
    RecallSum += recallAgainst(Service.query(Q, 5, true, 1),
                               Service.queryApprox(Q, 5, true, 0, 1));
    ++QueryCount;
  }
  const double Recall = RecallSum / static_cast<double>(QueryCount);
  // Deterministic corpus + deterministic fit: this is a fixed number,
  // asserted with slack so kernel-side tweaks don't thrash the test.
  EXPECT_GE(Recall, 0.85) << "mean recall@5 " << Recall << " over "
                          << QueryCount << " queries";
}

//===----------------------------------------------------------------------===//
// Persistence: the flat image restores the tier bit-for-bit
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, SaveLoadRoundTripsRoutingThroughTheImage) {
  Rng R(7788);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 44, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  const std::vector<KernelProfile> Stored = profilesOf(Corpus);
  IndexService Service = oneShard({Corpus.begin(), Corpus.begin() + 36});
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 6;
  Opts.MaxDocFrequency = 0.5;
  Opts.DefaultNProbe = 3;
  Service.rebuildRouting(Opts, 1);
  const std::shared_ptr<const RoutingArenas> Fitted = exportedRouting(Service);
  ASSERT_NE(Fitted, nullptr);

  const std::string Dir = testing::TempDir() + "/kast_routed_index";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir);
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  // The routing tier is viewed in the image: no k-means fit, no
  // posting rebuild.
  ASSERT_EQ(Caches->size(), 1u);
  const ProfileStoreCache &Image = (*Caches)[0];
  EXPECT_TRUE(Image.Store.isMapped());
  ASSERT_NE(Image.Routing, nullptr);
  EXPECT_EQ(Image.Routing->Covered, Fitted->Covered);
  EXPECT_EQ(Image.Routing->Centroids.size(), Fitted->Centroids.size());
  EXPECT_EQ(Image.Routing->Assignments, Fitted->Assignments);
  EXPECT_EQ(Image.Routing->MaxDocFrequency, Opts.MaxDocFrequency);
  EXPECT_EQ(Image.Routing->DefaultNProbe, Opts.DefaultNProbe);
  Expected<IndexService> Loaded = IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);
  ASSERT_TRUE(Loaded->routed());
  ASSERT_EQ(Loaded->size(), Service.size());

  // Same pruned-path answers (bitwise), same exhaustive answers, for
  // stored and held-out queries.
  const size_t AllCentroids = Fitted->Centroids.size();
  for (size_t I = 0; I < Stored.size(); I += 5) {
    expectHitsBitIdentical(Loaded->queryApprox(Stored[I], 5, true, 0, 1),
                           Service.queryApprox(Stored[I], 5, true, 0, 1),
                           "pruned reload " + std::to_string(I));
    expectHitsBitIdentical(
        Loaded->queryApprox(Stored[I], 5, true, AllCentroids, 1),
        Service.queryApprox(Stored[I], 5, true, AllCentroids, 1),
        "exhaustive reload " + std::to_string(I));
  }
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);

  // Entries added to the restored service form an unrouted tail behind
  // the mapped routed segment; both services grow alike and keep
  // answering alike.
  for (size_t I = 36; I < Corpus.size(); ++I) {
    Service.add(Corpus[I].name(), "", Stored[I]);
    Loaded->add(Corpus[I].name(), "", Stored[I]);
  }
  ASSERT_TRUE(Loaded->routed());
  for (size_t I = 0; I < Stored.size(); I += 7)
    expectHitsBitIdentical(Loaded->queryApprox(Stored[I], 5, true, 0, 1),
                           Service.queryApprox(Stored[I], 5, true, 0, 1),
                           "grown " + std::to_string(I));
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);

  // Routing never outlives the contents it was fitted on: saving the
  // grown service back over the images it still maps writes unrouted
  // images, which answer exactly.
  ASSERT_TRUE(writeShardedProfileImages(Loaded->toShardCaches(), Dir).ok());
  Expected<IndexService> Resaved = restore(Dir);
  ASSERT_TRUE(Resaved.hasValue()) << Resaved.message();
  ASSERT_EQ(Resaved->size(), Corpus.size());
  EXPECT_FALSE(Resaved->routed());
  for (size_t I = 0; I < Stored.size(); I += 7)
    expectHitsBitIdentical(Resaved->query(Stored[I], 5, true, 1),
                           Loaded->query(Stored[I], 5, true, 1),
                           "resaved " + std::to_string(I));
}

TEST(InvertedIndexTest, ExportedRoutingAliasesTheLiveArraysAndRestoresExactly) {
  Rng R(6464);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 90, "c");
  ProfileStore Store;
  for (const KernelProfile &P : profilesOf(Corpus))
    Store.append(P);
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 6;
  Opts.MaxDocFrequency = 0.4;
  Opts.DefaultNProbe = 2;

  // The export views the live routing's arrays, centroids included,
  // instead of copying them, and keeps the routing alive on its own.
  std::shared_ptr<const detail::IndexRouting> Live =
      detail::IndexRouting::fit(Store, Opts, 1);
  std::shared_ptr<const RoutingArenas> Arenas =
      detail::IndexRouting::toArenas(Live);
  const ProfileStore &C = Live->Router.centroids();
  EXPECT_TRUE(Arenas->Centroids.isMapped());
  EXPECT_EQ(Arenas->Centroids.size(), C.size());
  EXPECT_EQ(Arenas->Centroids.offsets().data(), C.offsets().data());
  EXPECT_EQ(Arenas->Centroids.hashes().data(), C.hashes().data());
  EXPECT_EQ(Arenas->Centroids.values().data(), C.values().data());
  EXPECT_EQ(Arenas->Centroids.selfDots().data(), C.selfDots().data());
  EXPECT_EQ(Arenas->Centroids.norms().data(), C.norms().data());
  EXPECT_EQ(Arenas->PostingIds.data(), Live->Inverted.postingIds().data());
  const std::weak_ptr<const detail::IndexRouting> Weak = Live;
  Live.reset();
  EXPECT_FALSE(Weak.expired());
  Arenas.reset();
  EXPECT_TRUE(Weak.expired());

  // Saved and restored, the routing answers bit for bit as the live
  // one, for every probe width and through the zero stream (K past
  // the corpus size).
  IndexService Service = oneShard(Corpus);
  Service.rebuildRouting(Opts, 1);
  const std::string Dir = testing::TempDir() + "/kast_exported_routing";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());
  Expected<IndexService> Restored = restore(Dir);
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  ASSERT_TRUE(Restored->routed());
  const IndexSnapshot Want = Service.snapshot();
  const IndexSnapshot Got = Restored->snapshot();
  const std::vector<KernelProfile> Queries = oracleQueries(Table, R, Corpus);
  for (bool Normalize : {true, false})
    for (size_t NProbe : {size_t(0), size_t(1), size_t(3), size_t(6)})
      for (size_t K : {size_t(1), size_t(5), size_t(100)})
        for (size_t Q = 0; Q < Queries.size(); ++Q)
          expectHitsBitIdentical(
              Got.queryApprox(Queries[Q], K, Normalize, NProbe, 1),
              Want.queryApprox(Queries[Q], K, Normalize, NProbe, 1),
              "query " + std::to_string(Q) + " nprobe " +
                  std::to_string(NProbe) + " k " + std::to_string(K));
}

//===----------------------------------------------------------------------===//
// Service: routing under snapshot isolation
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, ServiceExhaustiveApproxMatchesExact) {
  Rng R(9090);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 50, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = 3;
  IndexService Service = IndexService::build(Kernel, Corpus, {}, SvcOpts, 1);
  RoutingOptions Exhaustive;
  Exhaustive.Cluster.NumCentroids = 4;
  Service.rebuildRouting(Exhaustive, 1);
  ASSERT_TRUE(Service.routed());

  // Post-routing writes land in the unrouted tail; removals tombstone
  // inside the routed segment. Both paths must agree after that.
  std::vector<WeightedString> Extra = randomCorpus(Table, R, 8, "x");
  for (const WeightedString &S : Extra)
    Service.add(S.name(), "", Kernel.profile(S));
  ASSERT_EQ(Service.remove(Corpus[7].name()), 1u);
  ASSERT_EQ(Service.remove(Corpus[20].name()), 1u);

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 8, "q"))
    Queries.push_back(Kernel.profile(Q));
  Queries.push_back(Kernel.profile(Corpus[7]));  // Removed: must be absent.
  Queries.push_back(KernelProfile());
  for (size_t Q = 0; Q < Queries.size(); ++Q) {
    for (size_t K : {size_t(1), size_t(6), size_t(200)}) {
      expectHitsBitIdentical(
          Service.queryApprox(Queries[Q], K, true, /*NProbe=*/0, 1),
          Service.query(Queries[Q], K, true, 1),
          "query " + std::to_string(Q) + " k " + std::to_string(K));
    }
  }
  // The tombstoned name never resurfaces, not even via zero-fill.
  for (const ServiceHit &H :
       Service.queryApprox(Kernel.profile(Corpus[7]), 200, true, 0, 1))
    EXPECT_NE(H.Name, Corpus[7].name());
}

TEST(InvertedIndexTest, SnapshotTakenMidIngestIsImmuneToRoutingRebuild) {
  Rng R(4242);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 40, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = 2;
  SvcOpts.SealThreshold = 8;
  IndexService Service(Kernel.name(), SvcOpts);
  for (size_t I = 0; I < 25; ++I)
    Service.add(Corpus[I].name(), "", Kernel.profile(Corpus[I]));
  Service.rebuildRouting({}, 1);
  for (size_t I = 25; I < 32; ++I) // Mid-ingest: tail behind the routing.
    Service.add(Corpus[I].name(), "", Kernel.profile(Corpus[I]));

  IndexSnapshot Snap = Service.snapshot();
  KernelProfile Probe = Kernel.profile(Corpus[3]);
  std::vector<ServiceHit> ExactBefore = Snap.query(Probe, 10, true, 1);
  std::vector<ServiceHit> ApproxBefore = Snap.queryApprox(Probe, 10, true, 0, 1);
  // Exhaustive defaults: the snapshot's two paths already agree.
  expectHitsBitIdentical(ApproxBefore, ExactBefore, "snapshot pre-mutation");

  // Mutate the service hard: grow, remove, re-route, compact.
  for (size_t I = 32; I < Corpus.size(); ++I)
    Service.add(Corpus[I].name(), "", Kernel.profile(Corpus[I]));
  Service.remove(Corpus[3].name());
  RoutingOptions Aggressive;
  Aggressive.Cluster.NumCentroids = 3;
  Aggressive.MaxDocFrequency = 0.3;
  Aggressive.DefaultNProbe = 1;
  Service.rebuildRouting(Aggressive, 1);
  Service.compact(1);

  // The snapshot re-answers identically, both paths, bit for bit.
  expectHitsBitIdentical(Snap.query(Probe, 10, true, 1), ExactBefore,
                         "snapshot exact post-mutation");
  expectHitsBitIdentical(Snap.queryApprox(Probe, 10, true, 0, 1), ApproxBefore,
                         "snapshot approx post-mutation");

  // And the live service reflects the mutations: a compact() drops the
  // routing (fitted on replaced arenas), so approx falls back to exact
  // and the removed entry is gone.
  EXPECT_EQ(Service.snapshot().routedShardCount(), 0u);
  for (const ServiceHit &H : Service.queryApprox(Probe, 100, true, 0, 1))
    EXPECT_NE(H.Name, Corpus[3].name());
  expectHitsBitIdentical(Service.queryApprox(Probe, 10, true, 0, 1),
                         Service.query(Probe, 10, true, 1),
                         "post-compact fallback");
}

TEST(InvertedIndexTest, ServiceRoutingPersistsAcrossRestart) {
  Rng R(6161);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 44, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = 3;
  IndexService Service = IndexService::build(Kernel, Corpus, {}, SvcOpts, 1);
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 4;
  Opts.MaxDocFrequency = 0.5;
  Opts.DefaultNProbe = 2;
  Service.rebuildRouting(Opts, 1);

  const std::string Dir = testing::TempDir() + "/kast_svc_routing";
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir);
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take(), SvcOpts);
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->snapshot().routedShardCount(), SvcOpts.Shards);
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);

  for (size_t I = 0; I < Corpus.size(); I += 6) {
    KernelProfile Q = Kernel.profile(Corpus[I]);
    expectHitsBitIdentical(Restored->queryApprox(Q, 5, true, 0, 1),
                           Service.queryApprox(Q, 5, true, 0, 1),
                           "restored pruned " + std::to_string(I));
  }

  // Routing never outlives the contents it was fitted on: compaction
  // drops the fit, and a re-save over the routed images writes
  // unrouted ones that restore unrouted (and still answer exactly).
  ASSERT_GT(Restored->remove(Corpus[1].name()), 0u);
  Restored->compact(1);
  ASSERT_TRUE(
      writeShardedProfileImages(Restored->toShardCaches(), Dir).ok());
  Expected<std::vector<ProfileStoreCache>> Resaved =
      loadShardedProfileImages(Dir);
  ASSERT_TRUE(Resaved.hasValue()) << Resaved.message();
  for (const ProfileStoreCache &Shard : *Resaved)
    EXPECT_EQ(Shard.Routing, nullptr);
  Expected<IndexService> Unrouted =
      IndexService::fromShardCaches(Resaved.take(), SvcOpts);
  ASSERT_TRUE(Unrouted.hasValue()) << Unrouted.message();
  EXPECT_EQ(Unrouted->snapshot().routedShardCount(), 0u);
  KernelProfile Q = Kernel.profile(Corpus[2]);
  expectHitsBitIdentical(Unrouted->query(Q, 5, true, 1),
                         Restored->query(Q, 5, true, 1), "after re-save");
}

//===----------------------------------------------------------------------===//
// Tombstones inside the routed segment
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, TombstonedCandidatesDoNotUseUpTheRerankBudget) {
  // Regression test from the re-rank budget era, when tombstoned
  // candidates could fill the shortlist and crowd out live matches.
  // The budget is gone; what stays pinned is that removed entries are
  // never returned and the live matches are. Entry I holds the shared
  // feature 1 at weight I + 1 plus a private feature, so every entry
  // is a candidate and the best-scoring ones are the newest.
  KernelProfile Query;
  Query.add(1, 1.0);
  Query.finalize();
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = 1;
  IndexService Service("test", SvcOpts);
  for (size_t I = 0; I < 20; ++I) {
    KernelProfile P;
    P.add(1, static_cast<double>(I + 1));
    P.add(1000 + I, 1.0);
    P.finalize();
    Service.add("e" + std::to_string(I), "", P);
  }
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 2;
  Service.rebuildRouting(Opts, 1);
  ASSERT_TRUE(Service.routed());
  const std::set<std::string> Removed = {"e17", "e18", "e19"};
  for (const std::string &Name : Removed)
    ASSERT_EQ(Service.remove(Name), 1u);

  const IndexSnapshot Snap = Service.snapshot();
  for (size_t K : {size_t(3), size_t(5), size_t(40)}) {
    const std::string What = "k " + std::to_string(K);
    const std::vector<ServiceHit> Exact = Snap.query(Query, K, false, 1);
    ASSERT_EQ(Exact.size(), std::min<size_t>(K, 17)) << What;
    EXPECT_EQ(Exact[0].Name, "e16") << What;
    const std::vector<ServiceHit> Approx =
        Snap.queryApprox(Query, K, false, 0, 1);
    expectHitsBitIdentical(Approx, Exact, What);
    for (const ServiceHit &Hit : Approx)
      EXPECT_EQ(Removed.count(Hit.Name), 0u) << What << " " << Hit.Name;
    expectHitsBitIdentical(Snap.queryBatchApprox({Query}, K, false, 0, 1)[0],
                           Approx, What + " batch");
  }
}

//===----------------------------------------------------------------------===//
// Differential: the routed path against a from-scratch oracle
//===----------------------------------------------------------------------===//

/// One routed arena as the oracle sees it: the entries in position
/// order, which of them are removed, and the routing over its prefix.
struct OracleArena {
  const ProfileStore *Store = nullptr;
  std::vector<uint8_t> Dead; ///< Empty: every entry is live.
  const ClusterRouter *Router = nullptr;
  const InvertedIndex *Inverted = nullptr;
};

/// The routed answer recomputed from its definition: route the query,
/// collect the posting candidates, then rank every live position by
/// (similarity desc, position asc). A collected candidate or an
/// unrouted-tail entry scores its exact similarity, taken from the
/// reference scalar merge join; every other routed position scores
/// +0.0 (the zero stream). Returns every live position, ranked.
std::vector<Neighbor> routedOracle(const OracleArena &A,
                                   const KernelProfile &Query, size_t NProbe,
                                   bool Normalize) {
  const FlatProfile Flat(Query);
  std::vector<std::pair<double, uint32_t>> Scored;
  std::vector<uint32_t> Probes;
  A.Router->route(Flat, NProbe, Scored, Probes);
  InvertedScratch Candidates;
  Candidates.begin(A.Inverted->numProfiles());
  A.Inverted->collectCandidates(Flat, Probes, Candidates);
  std::vector<Neighbor> Ranked;
  for (size_t P = 0; P < A.Store->size(); ++P) {
    if (!A.Dead.empty() && A.Dead[P])
      continue;
    double Sim = 0.0;
    if (P >= A.Inverted->numProfiles() || Candidates.marked(P)) {
      const ProfileView V = A.Store->view(P);
      Sim = simd::dotScalar(Flat.Hashes.data(), Flat.Values.data(),
                            Flat.size(), V.Hashes, V.Values, V.Size);
      if (Normalize) {
        const double Denominator = Flat.Norm * V.Norm;
        Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
      }
    }
    Ranked.push_back({P, Sim});
  }
  std::sort(Ranked.begin(), Ranked.end(),
            [](const Neighbor &L, const Neighbor &R) {
              if (L.Similarity != R.Similarity)
                return L.Similarity > R.Similarity;
              return L.Index < R.Index;
            });
  return Ranked;
}

/// Builds a \p ShardCount-shard service over a random corpus, routes
/// it, adds an unrouted tail, removes a few entries, and checks every
/// approximate query, single and batched, bit-identically against the
/// oracle run over each shard's arena and merged in the service's
/// order. Runs in the default and the KAST_FORCE_SCALAR passes of the
/// suite, so the scorer is checked on both kernels.
void expectRoutedServiceMatchesOracle(size_t ShardCount, uint64_t Seed) {
  Rng R(Seed);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel = testKernel();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 160, "c");
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = ShardCount;
  SvcOpts.SealThreshold = 8;
  IndexService Service(Kernel.name(), SvcOpts);
  for (const WeightedString &S : Corpus)
    Service.add(S.name(), "", Kernel.profile(S));
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 5;
  Opts.MaxDocFrequency = 0.3;
  Service.rebuildRouting(Opts, 1);
  // Each shard's routing, exported before the tail arrives...
  std::vector<ProfileStoreCache> Routed = Service.toShardCaches();
  for (const WeightedString &S : randomCorpus(Table, R, 20, "t"))
    Service.add(S.name(), "", Kernel.profile(S));
  // ...and each shard's entries in position order: the routed
  // segment, then the tail (sealed past SealThreshold, so several
  // segments).
  std::vector<ProfileStoreCache> Full = Service.toShardCaches();
  const std::set<std::string> Removed = {"c3",  "c50", "c77",
                                         "c121", "t2", "t9"};
  for (const std::string &Name : Removed)
    ASSERT_EQ(Service.remove(Name), 1u) << Name;

  std::vector<std::shared_ptr<const detail::IndexRouting>> Routings;
  std::vector<OracleArena> Arenas;
  for (size_t S = 0; S < Routed.size(); ++S) {
    ASSERT_NE(Routed[S].Routing, nullptr) << "shard " << S;
    Routings.push_back(detail::IndexRouting::alias(Routed[S].Routing));
    for (size_t P = 0; P < Routed[S].Names.size(); ++P)
      ASSERT_EQ(Full[S].Names[P], Routed[S].Names[P]);
    OracleArena A{&Full[S].Store, {}, &Routings[S]->Router,
                  &Routings[S]->Inverted};
    for (size_t P = 0; P < Full[S].Names.size(); ++P)
      A.Dead.push_back(Removed.count(std::string(Full[S].Names[P])) != 0);
    Arenas.push_back(std::move(A));
  }
  const IndexSnapshot Snap = Service.snapshot();
  ASSERT_EQ(Snap.routedShardCount(), Arenas.size());

  // The service's merge order: similarity desc, then shard, then
  // position within the shard.
  struct Ranked {
    double Sim;
    size_t Shard;
    size_t Pos;
  };
  const auto Oracle = [&](const KernelProfile &Q, size_t K, size_t NProbe,
                          bool Normalize) {
    std::vector<Ranked> All;
    for (size_t S = 0; S < Arenas.size(); ++S)
      for (const Neighbor &N :
           routedOracle(Arenas[S], Q, NProbe, Normalize))
        All.push_back({N.Similarity, S, N.Index});
    std::stable_sort(All.begin(), All.end(),
                     [](const Ranked &L, const Ranked &R) {
                       if (L.Sim != R.Sim)
                         return L.Sim > R.Sim;
                       return L.Shard < R.Shard;
                     });
    std::vector<ServiceHit> Hits;
    for (size_t I = 0; I < std::min(K, All.size()); ++I)
      Hits.push_back({std::string(Full[All[I].Shard].Names[All[I].Pos]),
                      std::string(Full[All[I].Shard].Labels[All[I].Pos]),
                      All[I].Sim});
    return Hits;
  };

  const std::vector<KernelProfile> Queries =
      oracleQueries(Table, R, Corpus);
  std::vector<const KernelProfile *> Borrowed;
  for (const KernelProfile &Q : Queries)
    Borrowed.push_back(&Q);
  size_t DiffersFromExact = 0;
  for (bool Normalize : {true, false})
    for (size_t NProbe : {size_t(1), size_t(2)})
      for (size_t K : {size_t(1), size_t(5), size_t(40), size_t(200)}) {
        const std::vector<std::vector<ServiceHit>> Batch =
            Snap.queryBatchApprox(Borrowed, K, Normalize, NProbe, 2);
        for (size_t Q = 0; Q < Queries.size(); ++Q) {
          const std::string Case =
              "query " + std::to_string(Q) + " nprobe " +
              std::to_string(NProbe) + " k " + std::to_string(K) +
              (Normalize ? " cosine" : " raw");
          const std::vector<ServiceHit> Want =
              Oracle(Queries[Q], K, NProbe, Normalize);
          expectHitsBitIdentical(
              Snap.queryApprox(Queries[Q], K, Normalize, NProbe, 2), Want,
              Case);
          expectHitsBitIdentical(Batch[Q], Want, Case + " batch");
          DiffersFromExact += Want != Snap.query(Queries[Q], K, Normalize, 2);
        }
      }
  // Pruning and probing really drop true neighbors here, so the
  // oracle is not just the exact scan again.
  EXPECT_GT(DiffersFromExact, 0u);
}

// One shard is a single routed index: one routed arena with an
// unrouted tail behind it.
TEST(InvertedIndexTest, RoutedProfileIndexMatchesTheOracle) {
  expectRoutedServiceMatchesOracle(1, 6262);
}

// Three shards add the cross-shard merge on top.
TEST(InvertedIndexTest, RoutedServiceMatchesTheOracleAcrossShards) {
  expectRoutedServiceMatchesOracle(3, 6363);
}

//===----------------------------------------------------------------------===//
// Router unit behavior
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, RouterFitIsThreadCountInvariant) {
  Rng R(8181);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 64, "c");
  const std::vector<KernelProfile> Profiles = profilesOf(Corpus);
  ProfileStore Store;
  Store.appendAll(Profiles);

  ClusterRouterOptions Opts;
  Opts.NumCentroids = 6;
  ClusterRouter Serial = ClusterRouter::build(Store, Opts, 1);
  ClusterRouter Parallel = ClusterRouter::build(Store, Opts, 4);
  EXPECT_EQ(Serial.assignments(), Parallel.assignments());
  ASSERT_EQ(Serial.numCentroids(), Parallel.numCentroids());
  for (size_t C = 0; C < Serial.numCentroids(); ++C) {
    const ProfileView A = Serial.centroids().view(C);
    const ProfileView B = Parallel.centroids().view(C);
    ASSERT_EQ(A.Size, B.Size) << "centroid " << C;
    for (size_t E = 0; E < A.Size; ++E) {
      EXPECT_EQ(A.Hashes[E], B.Hashes[E]) << "centroid " << C;
      EXPECT_EQ(std::bit_cast<uint64_t>(A.Values[E]),
                std::bit_cast<uint64_t>(B.Values[E]))
          << "centroid " << C;
    }
  }

  // Assignments are in range, and each profile's assigned centroid is
  // the one route() ranks first.
  std::vector<std::pair<double, uint32_t>> Scored;
  std::vector<uint32_t> Top;
  for (size_t I = 0; I < Profiles.size(); ++I) {
    ASSERT_LT(Serial.assignments()[I], Serial.numCentroids());
    Serial.route(FlatProfile(Profiles[I]), 1, Scored, Top);
    ASSERT_EQ(Top.size(), 1u);
    EXPECT_EQ(Top[0], Serial.assignments()[I]) << "profile " << I;
  }

  // route() clamps NProbe and returns every centroid for NProbe == 0.
  const FlatProfile First(Profiles[0]);
  Serial.route(First, 0, Scored, Top);
  EXPECT_EQ(Top.size(), Serial.numCentroids());
  Serial.route(First, 100, Scored, Top);
  EXPECT_EQ(Top.size(), Serial.numCentroids());
}

} // namespace
