//===- index/SegmentScorer.cpp - The one top-k retrieval scorer -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/SegmentScorer.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <type_traits>

using namespace kast;
using namespace kast::detail;

//===----------------------------------------------------------------------===//
// Routing construction
//===----------------------------------------------------------------------===//

/// The one RoutingOptions <-> RoutingArenas mapping: calls
/// Copy(option field, arena field) for each of the six scalars the v4
/// image flattens the options to.
template <typename OptionsT, typename ArenasT, typename CopyFn>
static void mapOptionFields(OptionsT &O, ArenasT &A, CopyFn Copy) {
  Copy(O.MaxDocFrequency, A.MaxDocFrequency);
  Copy(O.DefaultNProbe, A.DefaultNProbe);
  Copy(O.Cluster.NumCentroids, A.ClusterNumCentroids);
  Copy(O.Cluster.MaxIterations, A.ClusterMaxIterations);
  Copy(O.Cluster.TrainingSample, A.ClusterTrainingSample);
  Copy(O.Cluster.Seed, A.ClusterSeed);
}

std::shared_ptr<const IndexRouting>
IndexRouting::fit(const ProfileStore &Store, const RoutingOptions &Options,
                  size_t Threads) {
  auto R = std::make_shared<IndexRouting>();
  R->Options = Options;
  R->Router = ClusterRouter::build(Store, Options.Cluster, Threads);
  R->Inverted = InvertedIndex::build(Store, R->Router.assignments(),
                                     R->Router.numCentroids(),
                                     R->Options.MaxDocFrequency);
  return R;
}

std::shared_ptr<const IndexRouting>
IndexRouting::alias(std::shared_ptr<const RoutingArenas> A) {
  auto R = std::make_shared<IndexRouting>();
  mapOptionFields(R->Options, *A, [](auto &Option, const auto &Field) {
    Option = static_cast<std::remove_reference_t<decltype(Option)>>(Field);
  });
  std::shared_ptr<const void> Keep = A;
  R->Router = ClusterRouter::fromArenas(A->Centroids, A->Assignments, Keep);
  R->Inverted = InvertedIndex::fromArenas(
      A->Covered, A->PrunedFeatures, A->FeatureHashes, A->ClusterBegin,
      A->PostingBegin, A->PostingIds, A->PostingValues, Keep);
  return R;
}

std::shared_ptr<const RoutingArenas>
IndexRouting::toArenas(std::shared_ptr<const IndexRouting> Routing) {
  const IndexRouting &R = *Routing;
  auto A = std::make_shared<RoutingArenas>();
  mapOptionFields(R.Options, *A, [](const auto &Option, auto &Field) {
    Field = static_cast<std::remove_reference_t<decltype(Field)>>(Option);
  });
  A->Covered = R.covered();
  A->PrunedFeatures = R.Inverted.prunedFeatureCount();
  A->Assignments = R.Router.assignments();
  const ProfileStore &C = R.Router.centroids();
  A->Centroids = ProfileStore::fromMapped(
      C.offsets().data(), C.hashes().data(), C.values().data(),
      C.selfDots().data(), C.norms().data(), C.size(), C.entryCount(),
      Routing);
  A->FeatureHashes = R.Inverted.featureHashes();
  A->ClusterBegin = R.Inverted.clusterBegin();
  A->PostingBegin = R.Inverted.postingBegin();
  A->PostingIds = R.Inverted.postingIds();
  A->PostingValues = R.Inverted.postingValues();
  // Every view, the centroid store included, aliases the routing's
  // own arrays; Backing keeps the routing alive for the export.
  A->Backing = std::move(Routing);
  return A;
}

//===----------------------------------------------------------------------===//
// Scoring
//===----------------------------------------------------------------------===//

namespace {

/// The one similarity definition: the exact dot, divided by both
/// norms under cosine normalization (0 when either vanishes).
/// \p QueryNorm is the flattened query's norm, or 1.0 unnormalized.
double similarity(simd::ExactScan &Scan, const ProfileView &V,
                  bool Normalize, double QueryNorm) {
  double Sim = Scan.dot(V.Hashes, V.Values, V.Size);
  if (Normalize) {
    double Denominator = QueryNorm * V.Norm;
    Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
  }
  return Sim;
}

/// Moves the best min(K, Hits.size()) hits to the front of \p Hits,
/// ranked (similarity desc, position asc); returns that count.
size_t rankTopK(std::vector<Neighbor> &Hits, size_t K) {
  const size_t Take = std::min(K, Hits.size());
  std::partial_sort(Hits.begin(), Hits.begin() + Take, Hits.end(),
                    [](const Neighbor &L, const Neighbor &R) {
                      if (L.Similarity != R.Similarity)
                        return L.Similarity > R.Similarity;
                      return L.Index < R.Index;
                    });
  return Take;
}

} // namespace

SegmentScorer::SegmentScorer(std::vector<ScoredSegment> Segs,
                             std::shared_ptr<const IndexRouting> R)
    : Segments(std::move(Segs)), Routing(std::move(R)) {
  for (ScoredSegment &S : Segments) {
    S.Begin = Total;
    Total += S.Store->size();
  }
  assert((!Routing || (!Segments.empty() &&
                       Routing->covered() == Segments[0].Store->size())) &&
         "routing must cover exactly segment 0");
}

std::pair<size_t, size_t> SegmentScorer::locate(size_t Pos) const {
  auto It = std::upper_bound(
      Segments.begin(), Segments.end(), Pos,
      [](size_t P, const ScoredSegment &S) { return P < S.Begin; });
  assert(It != Segments.begin() && "position before the first segment");
  const size_t Seg = static_cast<size_t>(It - Segments.begin()) - 1;
  return {Seg, Pos - Segments[Seg].Begin};
}

void SegmentScorer::score(const FlatProfile &Query,
                          const ScoreRequest &Request, ScorerScratch &Scratch,
                          std::vector<Neighbor> &TopK) const {
  TopK.clear();
  if (Request.K == 0 || Total == 0)
    return;
  Scratch.Scan.assign(Query.Hashes.data(), Query.Values.data(), Query.size());
  if (Request.Routed && Routing)
    return routed(Query, Request, Scratch, TopK);
  std::vector<Neighbor> &Hits = Scratch.Hits;
  Hits.clear();
  Hits.reserve(Total);
  scan(0, Query, Request.Normalize, Scratch);
  TopK.assign(Hits.begin(), Hits.begin() + rankTopK(Hits, Request.K));
}

void SegmentScorer::scan(size_t First, const FlatProfile &Query,
                         bool Normalize, ScorerScratch &Scratch) const {
  const double QueryNorm = Normalize ? Query.Norm : 1.0;
  for (size_t S = First; S < Segments.size(); ++S) {
    const ScoredSegment &Seg = Segments[S];
    const size_t Size = Seg.Store->size();
    for (size_t I = 0; I < Size; ++I) {
      if (Seg.Tombs && (*Seg.Tombs)[I])
        continue;
      Scratch.Hits.push_back(
          {Seg.Begin + I, similarity(Scratch.Scan, Seg.Store->view(I),
                                     Normalize, QueryNorm)});
    }
  }
}

void SegmentScorer::routed(const FlatProfile &Query,
                           const ScoreRequest &Request,
                           ScorerScratch &Scratch,
                           std::vector<Neighbor> &TopK) const {
  const IndexRouting &R = *Routing;
  const ProfileStore &Store0 = *Segments[0].Store;
  const std::vector<uint8_t> *Tombs0 = Segments[0].Tombs;
  const size_t Covered = R.covered();
  const size_t K = Request.K;
  InvertedScratch &IS = Scratch.Inverted;

  const size_t Probe =
      Request.NProbe != 0 ? Request.NProbe : R.Options.DefaultNProbe;
  R.Router.route(Query, Probe, IS.RouteScored, IS.Probes);
  IS.begin(Covered);
  R.Inverted.collectCandidates(Query, IS.Probes, IS);

  // Tombstoned candidates are never answers. They stay marked, and
  // the zero stream skips dead positions anyway.
  if (Tombs0)
    std::erase_if(IS.Candidates, [&](uint32_t Id) { return (*Tombs0)[Id]; });

  std::vector<Neighbor> &Hits = Scratch.Hits;
  Hits.clear();
  const double QueryNorm = Request.Normalize ? Query.Norm : 1.0;
  for (uint32_t Id : IS.Candidates)
    Hits.push_back({Id, similarity(Scratch.Scan, Store0.view(Id),
                                   Request.Normalize, QueryNorm)});
  scan(1, Query, Request.Normalize, Scratch);
  const size_t Take = rankTopK(Hits, K);

  // Fast path: K hits all strictly above zero, so no zero-stream entry
  // can displace or interleave with them.
  if (Take == K && Hits[K - 1].Similarity > 0.0) {
    TopK.assign(Hits.begin(), Hits.begin() + Take);
    return;
  }

  // Merge the ranked hits with the zero stream: live, unmarked
  // positions of segment 0, ascending, similarity exactly +0.0.
  size_t Zero = 0;
  size_t Next = 0;
  const auto AdvanceZero = [&] {
    while (Zero < Covered &&
           (IS.marked(Zero) || (Tombs0 && (*Tombs0)[Zero])))
      ++Zero;
  };
  for (AdvanceZero(); TopK.size() < K;) {
    const bool HaveZero = Zero < Covered;
    if (Next < Take &&
        (!HaveZero || Hits[Next].Similarity > 0.0 ||
         (Hits[Next].Similarity == 0.0 && Hits[Next].Index < Zero))) {
      TopK.push_back(Hits[Next++]);
    } else if (HaveZero) {
      TopK.push_back({Zero++, 0.0});
      AdvanceZero();
    } else {
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Query drivers
//===----------------------------------------------------------------------===//

void detail::scoreQuery(const std::vector<const SegmentScorer *> &Scorers,
                        const KernelProfile &Query,
                        const ScoreRequest &Request, size_t Threads,
                        std::vector<std::vector<Neighbor>> &PerScorer) {
  // Flattened once; the per-scorer workers share it read-only.
  const FlatProfile Flat(Query);
  PerScorer.resize(Scorers.size());
  parallelFor(
      Scorers.size(),
      [&](size_t S) {
        ScorerScratch Scratch;
        Scorers[S]->score(Flat, Request, Scratch, PerScorer[S]);
      },
      Threads);
}

void detail::scoreBatch(
    const std::vector<const SegmentScorer *> &Scorers, size_t Count,
    const std::function<const KernelProfile &(size_t)> &QueryAt,
    const ScoreRequest &Request, size_t Threads,
    const std::function<void(size_t,
                             const std::vector<std::vector<Neighbor>> &)>
        &Emit) {
  // The scratch is call-scoped: a thread_local would pin index-sized
  // buffers to caller threads for the process lifetime.
  const size_t Workers =
      Threads != 0 ? Threads
                   : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t Chunks = std::min(Count, Workers);
  parallelFor(
      Chunks,
      [&](size_t Chunk) {
        FlatProfile Flat;
        std::vector<ScorerScratch> Scratch(Scorers.size());
        std::vector<std::vector<Neighbor>> PerScorer(Scorers.size());
        for (size_t I = Chunk; I < Count; I += Chunks) {
          Flat.assign(QueryAt(I));
          for (size_t S = 0; S < Scorers.size(); ++S)
            Scorers[S]->score(Flat, Request, Scratch[S], PerScorer[S]);
          Emit(I, PerScorer);
        }
      },
      Threads);
}
