//===- index/SegmentScorer.h - The one top-k retrieval scorer ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Top-k retrieval over a list of profile arenas: the one scorer
/// behind every IndexService shard (sealed segments, a staging tail,
/// tombstone bitmaps), driven through scoreQuery / scoreBatch. Entries
/// are numbered by their flattened position across the segments
/// (Pos); hits rank by (similarity desc, Pos asc).
///
///   - Exact: every live entry gets the exact dot (util/SimdDot's
///     probe-table scan, bit-identical to the scalar merge join).
///   - Routed: detail::IndexRouting covers all of segment 0. Route →
///     collect posting candidates → drop tombstoned ones → exact dot
///     for every candidate. Segments 1..n (later seals, the staging
///     tail) are unrouted and scanned exactly.
///
/// The bit-identity argument (stated once, here). A candidate's score
/// is the same exact dot the exact path computes, so its similarity is
/// bit-identical. A non-candidate of segment 0 shares no surviving
/// feature with the query inside the probed clusters; run
/// exhaustively (all centroids, MaxDocFrequency 1.0) it shares no
/// feature at all, so its exact similarity is +0.0 (an
/// empty dot, or 0 / norm). The routed path therefore merges its
/// ranked hits with a "zero stream" — unmarked live positions of
/// segment 0 in ascending order, each at +0.0 — taking the scored
/// hit whenever it is > 0, or == 0 with a smaller Pos. Under the
/// (sim desc, Pos asc) total order the (K+1)-th ranked hit is strictly
/// dominated by K others, so merging only the top-K scored hits with
/// the zero stream loses nothing: the result equals the exact scan's,
/// tie-break order included.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_SEGMENTSCORER_H
#define KAST_INDEX_SEGMENTSCORER_H

#include "core/FlatImage.h"
#include "core/ProfileStore.h"
#include "index/ClusterRouter.h"
#include "index/InvertedIndex.h"
#include "util/SimdDot.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace kast {

/// One retrieval hit inside a shard: the entry's flattened segment
/// position and its similarity to the query.
struct Neighbor {
  size_t Index = 0;
  double Similarity = 0.0;

  bool operator==(const Neighbor &Rhs) const = default;
};

namespace detail {

/// The immutable routing tier over one whole arena: router,
/// posting lists, and the options both were built with. Shared by
/// pointer, so publishes and snapshots alias one fit. Built only
/// through the two constructors below.
struct IndexRouting {
  ClusterRouter Router;
  InvertedIndex Inverted;
  RoutingOptions Options;

  size_t covered() const { return Router.numProfiles(); }

  /// Fits the router (k-means) and the posting lists over \p Store;
  /// deterministic for fixed options regardless of \p Threads.
  static std::shared_ptr<const IndexRouting>
  fit(const ProfileStore &Store, const RoutingOptions &Options,
      size_t Threads);

  /// Aliases flat routing arenas (v4 image sections or a toArenas
  /// export): no refit, no posting rebuild; the result keeps \p Arenas
  /// alive. The caller has checked Arenas->Covered against the store.
  static std::shared_ptr<const IndexRouting>
  alias(std::shared_ptr<const RoutingArenas> Arenas);

  /// Exports \p Routing as flat arena views (the v4 image sections),
  /// pinning \p Routing for the export's lifetime.
  static std::shared_ptr<const RoutingArenas>
  toArenas(std::shared_ptr<const IndexRouting> Routing);
};

/// One arena the scorer reads, with its tombstone bitmap (null: every
/// entry is live) and the flattened position of its first entry
/// (filled in by SegmentScorer's constructor).
struct ScoredSegment {
  const ProfileStore *Store = nullptr;
  const std::vector<uint8_t> *Tombs = nullptr;
  size_t Begin = 0;
};

/// What one query asks for.
struct ScoreRequest {
  size_t K = 0;
  bool Normalize = true;
  /// Use the routing tier when the scorer has one; NProbe 0 defers to
  /// RoutingOptions::DefaultNProbe (itself 0 = all centroids).
  bool Routed = false;
  size_t NProbe = 0;
};

/// Per-worker scratch for one scorer, reused across a batch (the
/// InvertedScratch is sized to that scorer's routed segment 0).
struct ScorerScratch {
  simd::ExactScan Scan;
  InvertedScratch Inverted;
  std::vector<Neighbor> Hits;
};

/// Top-k scoring over an immutable segment list. The segments and
/// their bitmaps are borrowed and must outlive the scorer; the routing
/// is shared.
class SegmentScorer {
public:
  SegmentScorer() = default;

  /// \p Routing, when non-null, must have been fitted on (or restored
  /// for) segment 0's arena and cover it exactly; null means every
  /// query scans exactly.
  SegmentScorer(std::vector<ScoredSegment> Segments,
                std::shared_ptr<const IndexRouting> Routing);

  /// The routing tier routed queries use, or null when unrouted.
  const std::shared_ptr<const IndexRouting> &routing() const {
    return Routing;
  }

  /// The (segment, offset) of flattened position \p Pos.
  std::pair<size_t, size_t> locate(size_t Pos) const;

  /// The min(K, live) best live entries for the flattened \p Query,
  /// ranked (similarity desc, Pos asc), into \p TopK. \p Normalize
  /// selects cosine similarity (vanishing norms score 0) over the raw
  /// dot. A routed request on a scorer without routing scans exactly.
  void score(const FlatProfile &Query, const ScoreRequest &Request,
             ScorerScratch &Scratch, std::vector<Neighbor> &TopK) const;

private:
  void routed(const FlatProfile &Query, const ScoreRequest &Request,
              ScorerScratch &Scratch, std::vector<Neighbor> &TopK) const;
  /// Appends every live entry of segments \p First.. to Scratch.Hits
  /// with its exact similarity.
  void scan(size_t First, const FlatProfile &Query, bool Normalize,
            ScorerScratch &Scratch) const;

  std::vector<ScoredSegment> Segments;
  size_t Total = 0; ///< Positions across all segments, live or not.
  std::shared_ptr<const IndexRouting> Routing;
};

/// Scores one query against every scorer in \p Scorers, fanning them
/// out through parallelFor on \p Threads; \p PerScorer[S] receives
/// scorer S's top-K.
void scoreQuery(const std::vector<const SegmentScorer *> &Scorers,
                const KernelProfile &Query, const ScoreRequest &Request,
                size_t Threads,
                std::vector<std::vector<Neighbor>> &PerScorer);

/// scoreQuery for \p Count queries (QueryAt(I) is query I), strided
/// across min(Count, workers) chunks. Each chunk keeps one flattening
/// buffer and one ScorerScratch per scorer across its queries, so a
/// warm chunk allocates nothing per query; every query re-initializes
/// what it reads, so results do not depend on the chunking.
/// Emit(I, PerScorer) runs on the chunk's thread once query I is
/// scored.
void scoreBatch(
    const std::vector<const SegmentScorer *> &Scorers, size_t Count,
    const std::function<const KernelProfile &(size_t)> &QueryAt,
    const ScoreRequest &Request, size_t Threads,
    const std::function<void(size_t,
                             const std::vector<std::vector<Neighbor>> &)>
        &Emit);

} // namespace detail

} // namespace kast

#endif // KAST_INDEX_SEGMENTSCORER_H
