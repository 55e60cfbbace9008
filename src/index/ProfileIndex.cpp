//===- index/ProfileIndex.cpp - Profile nearest-neighbor index -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/ProfileIndex.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <filesystem>

using namespace kast;

ProfileIndex ProfileIndex::build(const ProfiledStringKernel &Kernel,
                                 const std::vector<WeightedString> &Strings,
                                 const std::vector<std::string> &Labels,
                                 size_t Threads) {
  assert((Labels.empty() || Labels.size() == Strings.size()) &&
         "label count mismatch");
  std::vector<KernelProfile> Profiles(Strings.size());
  parallelFor(
      Strings.size(),
      [&](size_t I) { Profiles[I] = Kernel.profile(Strings[I]); }, Threads);

  ProfileIndex Index(Kernel.name());
  Index.Store.appendAll(Profiles);
  for (size_t I = 0; I < Strings.size(); ++I) {
    Index.Names.push_back(Strings[I].name());
    Index.Labels.push_back(Labels.empty() ? "" : Labels[I]);
  }
  return Index;
}

ProfileIndex ProfileIndex::fromCache(ProfileCache Cache) {
  ProfileIndex Index(std::move(Cache.KernelName));
  for (ProfileRecord &R : Cache.Records)
    Index.add(std::move(R.Name), std::move(R.Label), R.Profile);
  return Index;
}

ProfileIndex ProfileIndex::fromStoreCache(ProfileStoreCache Cache) {
  ProfileIndex Index(std::move(Cache.KernelName));
  // The cache's columns may be lazy views over a mapped image;
  // ProfileIndex mutates its name/label lists (add()), so it
  // materializes them up front rather than holding views.
  Index.Names = Cache.Names.takeVector();
  Index.Labels = Cache.Labels.takeVector();
  Index.Store = std::move(Cache.Store);
  return Index;
}

void ProfileIndex::add(std::string Name, std::string Label,
                       const KernelProfile &Profile) {
  Store.append(Profile);
  Names.push_back(std::move(Name));
  Labels.push_back(std::move(Label));
}

/// Runs \p Queries through the index's scorer; one per-query result.
static std::vector<std::vector<Neighbor>>
scoreAll(const detail::SegmentScorer &Scorer,
         const std::vector<KernelProfile> &Queries,
         const detail::ScoreRequest &Request, size_t Threads) {
  std::vector<std::vector<Neighbor>> Results(Queries.size());
  detail::scoreBatch(
      {&Scorer}, Queries.size(),
      [&](size_t I) -> const KernelProfile & { return Queries[I]; }, Request,
      Threads, [&](size_t I, const std::vector<std::vector<Neighbor>> &Top) {
        Results[I] = Top[0];
      });
  return Results;
}

/// A single query through the index's scorer.
static std::vector<Neighbor> scoreOne(const detail::SegmentScorer &Scorer,
                                      const KernelProfile &Query,
                                      const detail::ScoreRequest &Request) {
  std::vector<std::vector<Neighbor>> Top;
  detail::scoreQuery({&Scorer}, Query, Request, 1, Top);
  return std::move(Top[0]);
}

std::vector<Neighbor> ProfileIndex::query(const KernelProfile &Query,
                                          size_t K, bool Normalize) const {
  return scoreOne(scorer(), Query, {K, Normalize, false, 0});
}

std::vector<std::vector<Neighbor>>
ProfileIndex::queryBatch(const std::vector<KernelProfile> &Queries, size_t K,
                         bool Normalize, size_t Threads) const {
  return scoreAll(scorer(), Queries, {K, Normalize, false, 0}, Threads);
}

void ProfileIndex::buildRouting(const RoutingOptions &Options, size_t Threads) {
  // The quantized sidecar hangs on this index's own store (where
  // store().quantized() reports it); the fit then reuses it.
  if (detail::IndexRouting::wantsQuantized(Options))
    Store.buildQuantized();
  Routing = detail::IndexRouting::fit(Store, Options, Threads);
}

void ProfileIndex::clearRouting() { Routing.reset(); }

std::vector<Neighbor> ProfileIndex::queryApprox(const KernelProfile &Query,
                                                size_t K, bool Normalize,
                                                size_t NProbe) const {
  return scoreOne(scorer(), Query, {K, Normalize, true, NProbe});
}

std::vector<std::vector<Neighbor>>
ProfileIndex::queryBatchApprox(const std::vector<KernelProfile> &Queries,
                               size_t K, bool Normalize, size_t NProbe,
                               size_t Threads) const {
  return scoreAll(scorer(), Queries, {K, Normalize, true, NProbe}, Threads);
}

std::string
ProfileIndex::majorityLabel(const std::vector<Neighbor> &Neighbors) const {
  // Neighbors arrive most-similar first; majorityVote's first-seen
  // tie-break therefore lands on the nearer neighbor's label.
  return detail::majorityVote(
      Neighbors.size(),
      [&](size_t I) -> const std::string & { return Labels[Neighbors[I].Index]; });
}

ProfileCache ProfileIndex::toCache() const {
  ProfileCache Cache;
  Cache.KernelName = KernelName;
  Cache.Records.reserve(size());
  for (size_t I = 0; I < size(); ++I)
    Cache.Records.push_back({Names[I], Labels[I], Store.materialize(I)});
  return Cache;
}

Status ProfileIndex::save(const std::string &Path) const {
  // v2 block layout straight from the arena: the three arrays go out
  // as contiguous blobs, no per-profile materialization or copy.
  Status S = writeProfileStoreCacheFile(KernelName, Names, Labels, Store, Path);
  if (!S.ok())
    return S;
  const std::string RoutePath = Path + ".route";
  if (Routing)
    return writeRoutingFile(Routing->Router, Routing->Options, RoutePath);
  // No routing: drop any stale sidecar so a later load cannot pair it
  // with contents it was not fitted on.
  std::error_code Ec;
  std::filesystem::remove(RoutePath, Ec);
  return Status();
}

Expected<ProfileIndex> ProfileIndex::load(const std::string &Path) {
  Expected<ProfileStoreCache> Cache = readProfileStoreCacheFile(Path);
  if (!Cache)
    return Expected<ProfileIndex>::error(Cache.message());
  ProfileIndex Index = fromStoreCache(Cache.take());
  const std::string RoutePath = Path + ".route";
  std::error_code Ec;
  if (!std::filesystem::exists(RoutePath, Ec))
    return Index;
  Expected<RoutingCache> Route = readRoutingFile(RoutePath);
  if (!Route)
    return Expected<ProfileIndex>::error(Route.message());
  RoutingCache Loaded = Route.take();
  if (Loaded.Router.numProfiles() > Index.size())
    return Expected<ProfileIndex>::error(
        "routing sidecar covers more profiles than the cache: " + RoutePath);
  // Only the router is ever serialized; the posting lists and the
  // quantized sidecar are pure functions of the arena and rebuild.
  if (detail::IndexRouting::wantsQuantized(Loaded.Options))
    Index.Store.buildQuantized();
  Index.Routing = detail::IndexRouting::restore(std::move(Loaded), Index.Store);
  return Index;
}
