//===- index/ClusterRouter.h - Coarse k-means query routing ----*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coarse tier of sublinear retrieval: a spherical k-means
/// clustering over a ProfileStore that routes queries to the few
/// centroids they resemble, so the inverted tier (index/InvertedIndex)
/// probes only those centroids' posting segments instead of the whole
/// corpus.
///
/// Centroids are themselves sparse profiles — the dense accumulation
/// of their members' unit-normalized sparse vectors, re-normalized and
/// stored in a small ProfileStore — so centroid assignment and query
/// routing reuse the existing merge-join kernel dot, and the router
/// persists as the centroid and assignment sections of a v4 flat image
/// (core/FlatImage).
///
/// Everything is a pure function of (store, options): seeding draws
/// from util/Rng with a fixed seed, ties in assignment and routing
/// break toward the lower centroid id, and the optional training
/// sample is a deterministic shuffle. Rebuilding a router over the
/// same arena therefore reproduces the same assignments bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_CLUSTERROUTER_H
#define KAST_INDEX_CLUSTERROUTER_H

#include "core/ProfileStore.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace kast {

/// Process-wide count of k-means fits (ClusterRouter::build calls)
/// since start. A rebuild-free restore must leave this untouched —
/// the routed-restart canary asserts exactly that.
uint64_t kmeansFitCount();

/// Shape knobs for ClusterRouter::build.
struct ClusterRouterOptions {
  /// Number of centroids; 0 picks ceil(sqrt(N)) clamped to [1, 4096].
  size_t NumCentroids = 0;
  /// k-means refinement passes over the training set. Assignments
  /// usually stabilize in a handful of rounds; training stops early
  /// once they do.
  size_t MaxIterations = 8;
  /// Profiles used to fit the centroids; 0 trains on the whole store.
  /// A bounded sample (deterministically drawn) keeps fit cost flat as
  /// the corpus grows; the final assignment pass always covers every
  /// profile.
  size_t TrainingSample = 0;
  /// Seed for the deterministic sampling and seeding shuffles.
  uint64_t Seed = 0x5EEDC0DEULL;
};

/// A fitted k-means routing structure: per-profile centroid
/// assignments plus the centroids as unit-norm sparse profiles.
class ClusterRouter {
public:
  ClusterRouter() = default;

  /// Fits \p Options.NumCentroids spherical k-means centroids over
  /// \p Store and assigns every profile to its most similar centroid.
  /// Deterministic for fixed options regardless of \p Threads (the
  /// parallel loops are pure per item). An empty store yields an
  /// empty router (numCentroids() == 0).
  static ClusterRouter build(const ProfileStore &Store,
                             ClusterRouterOptions Options = {},
                             size_t Threads = 0);

  /// Non-owning construction over pre-validated flat arenas (a v4
  /// image's centroid + assignment sections): no fit, no copy — the
  /// router views \p Assignments and the mapped \p Centroids for as
  /// long as \p Backing keeps them alive. The caller (the flat-image
  /// reader) has already range-checked every assignment against the
  /// centroid count.
  static ClusterRouter fromArenas(ProfileStore Centroids,
                                  ArrayView<uint32_t> Assignments,
                                  std::shared_ptr<const void> Backing);

  size_t numCentroids() const { return Centroids.size(); }
  size_t numProfiles() const { return Assignments.size(); }
  bool empty() const { return Assignments.empty(); }

  /// Assignments[I] is the centroid id of profile I, in [0,
  /// numCentroids()).
  ArrayView<uint32_t> assignments() const { return Assignments.view(); }

  /// The unit-normalized centroid vectors.
  const ProfileStore &centroids() const { return Centroids; }

  /// The min(NProbe, numCentroids()) centroid ids most similar to
  /// \p Query (cosine over the unit centroids), most similar first;
  /// ties break toward the lower id. NProbe == 0 probes every
  /// centroid — the exhaustive mode differential tests pin against
  /// the exact scan. The sweep scores through \p Scored (caller-owned,
  /// reused across a batch, so a warm query allocates nothing) with
  /// the vectorized exact dot (util/SimdDot); probe ids land in
  /// \p Probes.
  void route(const FlatProfile &Query, size_t NProbe,
             std::vector<std::pair<double, uint32_t>> &Scored,
             std::vector<uint32_t> &Probes) const;

private:
  // Owned (build) or mapped (fromArenas) per core/ArenaArray. A router
  // is immutable after construction: replacing the routing
  // (rebuildRouting/compact) builds a fresh one.
  ProfileStore Centroids;
  ArenaArray<uint32_t> Assignments;
};

} // namespace kast

#endif // KAST_INDEX_CLUSTERROUTER_H
