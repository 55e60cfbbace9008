//===- index/ProfileIndex.cpp - Profile nearest-neighbor index -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/ProfileIndex.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>

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

ProfileIndex ProfileIndex::fromStoreCache(ProfileStoreCache Cache) {
  ProfileIndex Index(std::move(Cache.KernelName));
  Index.Names = std::move(Cache.Names);
  Index.Labels = std::move(Cache.Labels);
  Index.Store = std::move(Cache.Store);
  if (Cache.Routing)
    Index.Routing = detail::IndexRouting::alias(std::move(Cache.Routing));
  return Index;
}

void ProfileIndex::add(std::string_view Name, std::string_view Label,
                       const KernelProfile &Profile) {
  Store.append(Profile);
  Names.push_back(Name);
  Labels.push_back(Label);
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
      [&](size_t I) { return Labels[Neighbors[I].Index]; });
}

Status ProfileIndex::save(const std::string &Path) const {
  std::shared_ptr<const RoutingArenas> Arenas;
  if (Routing)
    Arenas = detail::IndexRouting::toArenas(Routing);
  return writeProfileStoreImageFile(KernelName, Names, Labels, Store, Path,
                                    Arenas.get());
}

Expected<ProfileIndex> ProfileIndex::load(const std::string &Path) {
  Expected<ProfileStoreCache> Cache = readProfileStoreImageFile(Path);
  if (!Cache)
    return Expected<ProfileIndex>::error(Cache.message());
  return fromStoreCache(Cache.take());
}
