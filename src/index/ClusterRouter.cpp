//===- index/ClusterRouter.cpp - Coarse k-means query routing --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/ClusterRouter.h"
#include "core/KernelProfile.h"
#include "util/Rng.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

using namespace kast;

namespace {
/// Bumped once per build() — the "did a restore secretly refit
/// k-means?" probe the restart canary and tests read.
std::atomic<uint64_t> KmeansFits{0};
} // namespace

uint64_t kast::kmeansFitCount() {
  return KmeansFits.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Fitting
//===----------------------------------------------------------------------===//

namespace {

/// argmax over centroids of dot(view, centroid); centroids are unit
/// norm, so for a fixed profile the cosine argmax reduces to the raw
/// dot argmax. Ties break toward the lower centroid id (the strict >
/// keeps the incumbent).
uint32_t nearestCentroid(const ProfileStore &Centroids,
                         const ProfileView &V) {
  uint32_t Best = 0;
  double BestSim = dot(Centroids.view(0), V);
  for (size_t C = 1; C < Centroids.size(); ++C) {
    double Sim = dot(Centroids.view(C), V);
    if (Sim > BestSim) {
      BestSim = Sim;
      Best = static_cast<uint32_t>(C);
    }
  }
  return Best;
}

/// Rebuilds the centroid store from the current assignment over the
/// training ids: each centroid is the sum of its members'
/// unit-normalized vectors, re-normalized to unit length. A cluster
/// that lost all its members keeps its previous centroid, so the
/// centroid count never shrinks mid-fit and reseeding stays
/// deterministic. Accumulation iterates members in ascending id order
/// into a per-feature bucket, so the floating-point sums are
/// reproducible.
ProfileStore updateCentroids(const ProfileStore &Store,
                             const std::vector<size_t> &TrainIds,
                             const std::vector<uint32_t> &Assign,
                             const ProfileStore &Previous,
                             size_t NumCentroids) {
  std::vector<std::unordered_map<uint64_t, double>> Sums(NumCentroids);
  std::vector<size_t> Members(NumCentroids, 0);
  for (size_t T = 0; T < TrainIds.size(); ++T) {
    const ProfileView V = Store.view(TrainIds[T]);
    if (V.Norm <= 0.0)
      continue; // An empty profile pulls no centroid anywhere.
    std::unordered_map<uint64_t, double> &Sum = Sums[Assign[T]];
    ++Members[Assign[T]];
    const double Scale = 1.0 / V.Norm;
    for (size_t E = 0; E < V.Size; ++E)
      Sum[V.Hashes[E]] += V.Values[E] * Scale;
  }

  std::vector<KernelProfile> Centroids(NumCentroids);
  for (size_t C = 0; C < NumCentroids; ++C) {
    if (Members[C] == 0) {
      Centroids[C] = Previous.materialize(C);
      continue;
    }
    KernelProfile P;
    P.reserve(Sums[C].size());
    std::vector<std::pair<uint64_t, double>> Entries(Sums[C].begin(),
                                                     Sums[C].end());
    std::sort(Entries.begin(), Entries.end());
    double SelfDot = 0.0;
    for (const auto &[Hash, Value] : Entries)
      SelfDot += Value * Value;
    const double Norm = std::sqrt(SelfDot);
    for (const auto &[Hash, Value] : Entries)
      P.add(Hash, Norm > 0.0 ? Value / Norm : Value);
    Centroids[C] = std::move(P); // Already sorted and coalesced.
  }
  ProfileStore Result;
  Result.appendAll(Centroids);
  return Result;
}

} // namespace

ClusterRouter ClusterRouter::fromArenas(ProfileStore Centroids,
                                        ArrayView<uint32_t> Assignments,
                                        std::shared_ptr<const void> Backing) {
  ClusterRouter Router;
  Router.Centroids = std::move(Centroids);
  Router.Assignments =
      ArenaArray<uint32_t>::mapped(Assignments, std::move(Backing));
  return Router;
}

ClusterRouter ClusterRouter::build(const ProfileStore &Store,
                                   ClusterRouterOptions Options,
                                   size_t Threads) {
  KmeansFits.fetch_add(1, std::memory_order_relaxed);
  ClusterRouter Router;
  const size_t N = Store.size();
  if (N == 0)
    return Router;

  size_t C = Options.NumCentroids;
  if (C == 0)
    C = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(N))));
  C = std::min(std::max<size_t>(1, std::min(C, N)), size_t(4096));

  // Deterministic training set and seeds: one shuffle yields both the
  // bounded sample (prefix) and the seed order (first C non-empty
  // profiles of that prefix).
  Rng R(Options.Seed);
  std::vector<size_t> Shuffled(N);
  for (size_t I = 0; I < N; ++I)
    Shuffled[I] = I;
  R.shuffle(Shuffled);
  size_t TrainCount = Options.TrainingSample == 0
                          ? N
                          : std::min(N, Options.TrainingSample);
  TrainCount = std::max(TrainCount, C);
  std::vector<size_t> TrainIds(Shuffled.begin(),
                               Shuffled.begin() + TrainCount);

  std::vector<KernelProfile> Seeds;
  for (size_t I = 0; I < TrainIds.size() && Seeds.size() < C; ++I)
    if (Store.view(TrainIds[I]).Norm > 0.0)
      Seeds.push_back(Store.materialize(TrainIds[I]));
  if (Seeds.empty())
    Seeds.push_back(KernelProfile()); // All-empty corpus: one centroid.
  for (KernelProfile &Seed : Seeds) {
    // Seeds are corpus profiles scaled to unit norm, matching the
    // normalization updateCentroids maintains.
    KernelProfile Unit;
    double SelfDot = 0.0;
    for (const ProfileEntry &E : Seed.entries())
      SelfDot += E.Value * E.Value;
    const double Norm = std::sqrt(SelfDot);
    Unit.reserve(Seed.size());
    for (const ProfileEntry &E : Seed.entries())
      Unit.add(E.Hash, Norm > 0.0 ? E.Value / Norm : E.Value);
    Seed = std::move(Unit);
  }
  C = Seeds.size();
  ProfileStore Centroids;
  Centroids.appendAll(Seeds);

  // Lloyd iterations over the training set; the assignment step is a
  // pure function per profile, so parallelFor cannot perturb it.
  std::vector<uint32_t> TrainAssign(TrainIds.size(), 0);
  for (size_t Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    std::vector<uint32_t> Next(TrainIds.size(), 0);
    parallelFor(
        TrainIds.size(),
        [&](size_t T) {
          Next[T] = nearestCentroid(Centroids, Store.view(TrainIds[T]));
        },
        Threads);
    const bool Stable = Iter > 0 && Next == TrainAssign;
    TrainAssign = std::move(Next);
    if (Stable)
      break;
    Centroids =
        updateCentroids(Store, TrainIds, TrainAssign, Centroids, C);
  }

  // Final assignment covers every profile, sampled or not.
  std::vector<uint32_t> Assign(N, 0);
  parallelFor(
      N,
      [&](size_t I) { Assign[I] = nearestCentroid(Centroids, Store.view(I)); },
      Threads);
  Router.Assignments = std::move(Assign);
  Router.Centroids = std::move(Centroids);
  return Router;
}

void ClusterRouter::route(const FlatProfile &Query, size_t NProbe,
                          std::vector<std::pair<double, uint32_t>> &Scored,
                          std::vector<uint32_t> &Probes) const {
  Probes.clear();
  const size_t C = Centroids.size();
  if (C == 0)
    return;
  const size_t Take = NProbe == 0 ? C : std::min(NProbe, C);
  Scored.clear();
  Scored.reserve(C);
  for (size_t I = 0; I < C; ++I)
    Scored.push_back({dot(Centroids.view(I), Query),
                      static_cast<uint32_t>(I)});
  std::partial_sort(Scored.begin(), Scored.begin() + Take, Scored.end(),
                    [](const auto &L, const auto &R) {
                      if (L.first != R.first)
                        return L.first > R.first;
                      return L.second < R.second;
                    });
  Probes.reserve(Take);
  for (size_t I = 0; I < Take; ++I)
    Probes.push_back(Scored[I].second);
}
