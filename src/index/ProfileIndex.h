//===- index/ProfileIndex.h - Profile nearest-neighbor index ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Retrieval over cached kernel profiles — the paper's "access patterns
/// as fingerprints" claim served directly. A ProfileIndex holds N
/// prepared profiles in a core/ProfileStore arena (one flat
/// structure-of-arrays, not N heap vectors) with names, labels and
/// cached self-norms. It is a thin single-segment facade over
/// index/SegmentScorer, the one top-k scorer it shares with every
/// IndexService shard: query() is the exact O(N · dot) scan (no Gram
/// matrix, one contiguous hash array streamed), queryApprox() the
/// routed candidate → exact re-rank path, and the batch
/// forms stride queries across workers with one scratch per worker.
///
/// Indexes round-trip through a flat image (core/FlatImage), routing
/// tier included, so a served corpus profiles each trace exactly once
/// — build, save(), and every later process load()s and queries
/// without touching a kernel, refitting k-means or rebuilding posting
/// lists.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_PROFILEINDEX_H
#define KAST_INDEX_PROFILEINDEX_H

#include "core/FlatImage.h"
#include "core/ProfileStore.h"
#include "core/StringColumn.h"
#include "core/StringKernel.h"
#include "index/SegmentScorer.h"
#include "util/Error.h"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kast {

namespace detail {

/// Single-pass majority vote over \p Count labels addressed
/// most-similar-first by \p LabelAt (an index → std::string_view
/// callable). The winner is the label with the highest total count;
/// ties break toward the label whose first occurrence is nearest —
/// the contract ProfileIndex::majorityLabel and
/// IndexSnapshot::majorityLabel both document. O(Count) expected,
/// replacing the O(Count²) rescan-per-neighbor counting.
template <typename LabelAtFn>
std::string majorityVote(size_t Count, LabelAtFn LabelAt) {
  // Counts are kept in first-seen order, so "earliest slot among the
  // maxima" is exactly "nearest first occurrence". The string_view
  // keys borrow from the caller's label storage, which outlives the
  // vote.
  std::unordered_map<std::string_view, size_t> Slots;
  std::vector<std::pair<std::string_view, size_t>> Counts;
  for (size_t I = 0; I < Count; ++I) {
    const std::string_view Label = LabelAt(I);
    auto [It, Inserted] = Slots.try_emplace(Label, Counts.size());
    if (Inserted)
      Counts.push_back({Label, 0});
    ++Counts[It->second].second;
  }
  if (Counts.empty())
    return {};
  size_t Best = 0;
  for (size_t I = 1; I < Counts.size(); ++I)
    if (Counts[I].second > Counts[Best].second)
      Best = I;
  return std::string(Counts[Best].first);
}

} // namespace detail

/// Top-k nearest-neighbor index over prepared kernel profiles.
class ProfileIndex {
public:
  ProfileIndex() = default;

  /// An empty index tagged with the producing kernel's name.
  explicit ProfileIndex(std::string KernelName)
      : KernelName(std::move(KernelName)) {}

  /// Profiles every string with \p Kernel (in parallel) and indexes
  /// the results. \p Labels may be empty (unlabeled corpus) or must
  /// match \p Strings in length.
  static ProfileIndex build(const ProfiledStringKernel &Kernel,
                            const std::vector<WeightedString> &Strings,
                            const std::vector<std::string> &Labels = {},
                            size_t Threads = 0);

  /// Adopts an in-memory arena cache: the store and the name/label
  /// columns move in wholesale (mapped ones stay mapped until the
  /// first add()), and Cache.Routing, when present, becomes the
  /// routing tier by view — no k-means fit, no posting rebuild.
  /// Cache.Routing must cover at most Cache.Store.size() profiles, as
  /// every image read guarantees.
  static ProfileIndex fromStoreCache(ProfileStoreCache Cache);

  /// Appends one finalized profile (copied into the arena).
  void add(std::string_view Name, std::string_view Label,
           const KernelProfile &Profile);

  size_t size() const { return Store.size(); }
  bool empty() const { return Store.empty(); }

  const std::string &kernelName() const { return KernelName; }
  /// Name and label of entry \p I: views into the index's columns
  /// (into the mapping, for a load()ed index), valid until the next
  /// add().
  std::string_view name(size_t I) const { return Names[I]; }
  std::string_view label(size_t I) const { return Labels[I]; }

  /// The arena view of entry \p I; invalidated by the next add().
  ProfileView view(size_t I) const { return Store.view(I); }

  /// Entry \p I copied back out as a staging-type KernelProfile (e.g.
  /// to re-query the index with one of its own entries).
  KernelProfile profile(size_t I) const { return Store.materialize(I); }

  /// The arena backing the index.
  const ProfileStore &store() const { return Store; }

  /// sqrt(dot(p, p)) of entry \p I, cached at insertion.
  double norm(size_t I) const { return Store.norm(I); }

  /// The min(K, size()) entries most similar to \p Query, most similar
  /// first; ties break toward the smaller index for determinism.
  /// \p Normalize selects cosine similarity (entries or queries with
  /// vanishing norm score 0) over the raw profile dot. K == 0 and an
  /// empty index both return an empty list.
  std::vector<Neighbor> query(const KernelProfile &Query, size_t K,
                              bool Normalize = true) const;

  /// query() for a batch: queries are strided across worker chunks
  /// and each chunk allocates its scoring scratch (the O(N) similarity
  /// buffer) once, reusing it across the chunk's queries.
  std::vector<std::vector<Neighbor>>
  queryBatch(const std::vector<KernelProfile> &Queries, size_t K,
             bool Normalize = true, size_t Threads = 0) const;

  /// Fits the two-tier retrieval structures (index/ClusterRouter +
  /// index/InvertedIndex) over the current contents. Entries added
  /// later form an unrouted tail that queryApprox always scans
  /// exactly; rebuild to fold them in. Deterministic for fixed
  /// options regardless of \p Threads.
  void buildRouting(const RoutingOptions &Options = {}, size_t Threads = 0);

  /// Drops the routing tier; queryApprox falls back to the exact scan.
  void clearRouting();

  bool routed() const { return Routing != nullptr; }

  /// Entries covered by the routing fit (the prefix [0, routedCount());
  /// everything at or beyond it is the unrouted tail). 0 when unrouted.
  size_t routedCount() const { return Routing ? Routing->covered() : 0; }

  /// The fitted coarse router, or nullptr when unrouted.
  const ClusterRouter *router() const {
    return Routing ? &Routing->Router : nullptr;
  }

  /// The routing options the tier was built with, or nullptr.
  const RoutingOptions *routingOptions() const {
    return Routing ? &Routing->Options : nullptr;
  }

  /// query() through the candidate-generation tier (see
  /// index/SegmentScorer): probes the \p NProbe nearest centroids'
  /// posting segments (0 defers to RoutingOptions::DefaultNProbe,
  /// itself 0 = all centroids), exact re-ranks the candidates, and
  /// scans the unrouted tail exactly. Run exhaustively (all centroids,
  /// MaxDocFrequency 1.0) the result is bit-identical to query(),
  /// including tie-break order. Falls back to query() when unrouted.
  std::vector<Neighbor> queryApprox(const KernelProfile &Query, size_t K,
                                    bool Normalize = true,
                                    size_t NProbe = 0) const;

  /// queryApprox() for a batch, strided across workers like
  /// queryBatch.
  std::vector<std::vector<Neighbor>>
  queryBatchApprox(const std::vector<KernelProfile> &Queries, size_t K,
                   bool Normalize = true, size_t NProbe = 0,
                   size_t Threads = 0) const;

  /// Majority label among \p Neighbors; ties break toward the label of
  /// the nearer neighbor. Empty for an empty neighbor list.
  std::string majorityLabel(const std::vector<Neighbor> &Neighbors) const;

  /// Round-trip through a flat image (core/FlatImage): save writes the
  /// arena, names and labels, and — for a routed index — the routing
  /// tier as version-4 arena sections covering the routed prefix (an
  /// unrouted tail stays unrouted). The write is staged and renamed
  /// into place, so saving over the image this index was loaded from
  /// is safe. load maps the image and adopts it through fromStoreCache.
  Status save(const std::string &Path) const;
  static Expected<ProfileIndex> load(const std::string &Path);

private:
  std::string KernelName;
  StringColumn Names;
  StringColumn Labels;
  ProfileStore Store;
  std::shared_ptr<const detail::IndexRouting> Routing;

  /// The one-segment scorer over Store (routing covers its prefix).
  /// Built per call: add() may move the arena it points into.
  detail::SegmentScorer scorer() const {
    return {{{&Store, nullptr, 0}}, Routing, &Store};
  }
};

} // namespace kast

#endif // KAST_INDEX_PROFILEINDEX_H
