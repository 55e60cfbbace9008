//===- core/FlatImage.h - Flat-image profile cache --------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "flat image", KAST's one on-disk profile format: a ProfileStore
/// (with names, labels, and optionally its routing tier) serialized so
/// that the on-disk layout *is* the in-memory layout. Per-string
/// profiles are computed once, written, and reloaded bit-exactly, so
/// Gram growth and index queries never rebuild a profile the corpus
/// already paid for. Loading is mmap-then-view: the reader maps the
/// file read-only, validates the header and metadata sections, and
/// hands back a ProfileStore whose arrays alias the mapping
/// (ProfileStore::fromMapped). Restart cost is validation plus
/// first-page faults, independent of entry count; every process
/// serving the same image shares one set of clean page-cache pages;
/// and corpora larger than RAM are served by letting the kernel page.
///
/// Wire layout (all integers little-endian; doubles as IEEE-754 bit
/// patterns; byte offsets from the start of the file):
///
///   0    magic          8 bytes  "KASTFLAT"
///   8    version        u32      3, or 4 with routing sections
///   12   sectionCount   u32
///   16   kernelHash     u64      checksumBytes(kernel name bytes)
///   24   profileCount   u64      N
///   32   entryCount     u64      total entries across all profiles
///   40   tableOffset    u64      64
///   48   headerSum      u64      checksumBytes(bytes [0,48) ++ table)
///   56   reserved       u64      0
///   64   section table  sectionCount x 32 bytes:
///          id u32, reserved u32, offset u64, byteSize u64, checksum u64
///   ...  sections, each aligned to FlatImageAlignment, zero-padded
///        between — aligned so u64/f64 views into the mapping are
///        well-aligned and each section starts on its own page.
///
/// Sections (ids in FlatSectionId; M* = mandatory):
///
///   M KERNELNAME  raw bytes of the producing kernel's name()
///   M OFFSETS     (N+1) x u64   CSR offsets (leading 0, last == total)
///   M HASHES      total x u64   feature hashes, one blob
///   M VALUES      total x f64   feature values
///   M SELFDOTS    N x f64       cached self-dots (dot(p, p))
///   M NORMS       N x f64       cached norms (sqrt of self-dot)
///   M NAMES       (N+1) x u64 string offsets, then the byte blob
///   M LABELS      same shape as NAMES
///
/// Retired ids keep their numbers. Ids 9 and 10 held an int8
/// quantized copy of VALUES (codes and per-profile scales): derived
/// data that is no longer written and, when an older image carries
/// it, bounds- and alignment-checked and then ignored. Id 11 belonged
/// to an opaque routing blob; the reader rejects it with a diagnostic.
///
/// Version 4 adds the routing tier as first-class flat arenas — the
/// canonical in-memory CSR layout of index/ClusterRouter and
/// index/InvertedIndex serialized directly, so a routed restore is
/// validate-and-view like the store itself (no k-means refit, no
/// posting rebuild). All twelve sections appear together or not at
/// all; a writer emits version 4 iff they are present, so unrouted
/// images remain bit-identical to v3:
///
///     RMETA       128 bytes     "KASTIVIX": the routing options and
///                               arena counts (layout in FlatImage.cpp)
///     RASSIGN     covered x u32 per-profile centroid assignment
///     COFFSETS    (C+1) x u64   centroid CSR offsets
///     CHASHES     ce x u64      centroid feature hashes
///     CVALUES     ce x f64      centroid feature values
///     CSELFDOTS   C x f64       centroid self-dots
///     CNORMS      C x f64       centroid norms
///     PCLUSTERS   (C+1) x u64   posting CSR: cluster -> feature range
///     PFEATURES   F x u64       surviving feature hashes
///     PBEGIN      (F+1) x u64   posting CSR: feature -> posting range
///     PIDS        P x u32       posting profile ids
///     PVALUES     P x f64       posting values (impact-ordered)
///
/// SELFDOTS and NORMS ride in the image because recomputing them is
/// an O(entries) pass over the arena; the routing sections let a
/// routed index restore with no rebuild at all.
///
/// Validation. Opening always verifies the header checksum (which
/// covers the section table), section bounds and alignment, the
/// kernel-name hash, the CSR offset invariants (validateCsrOffsets),
/// and the checksums of every metadata-sized section (everything
/// O(N): offsets, self-dots, norms, names, labels, and the routing
/// meta / assignment / CSR-offset sections). The entry-sized sections
/// (HASHES/VALUES and the routing payload arrays
/// CHASHES/CVALUES/PFEATURES/PIDS/PVALUES) are checksummed only under
/// FlatImageReadOptions::DeepValidate — verifying them eagerly would
/// fault every page and reintroduce the O(entries) open the format
/// exists to avoid. The buffered fallback (no mmap, or
/// KAST_FORCE_BUFFERED=1) always deep-validates: it has already paid
/// for every byte.
///
/// Writing. Every writer stages the image under "<path>.tmp" and
/// renames it into place, so a failed write leaves the previous file
/// intact and rewriting an image that is still mapped (the store
/// being written may alias it) is safe: the live mapping keeps the old
/// inode.
///
/// Lifetime. The returned cache's Store holds the MappedImage via
/// shared_ptr; whoever ends up owning the store (e.g. an IndexService
/// sealed segment) keeps the mapping alive, and the mapping survives
/// unlink/rename of the path. The first mutation of the store promotes
/// it to owned arrays and drops the image reference (see
/// core/ArenaArray.h).
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_FLATIMAGE_H
#define KAST_CORE_FLATIMAGE_H

#include "core/ProfileStore.h"
#include "core/StringColumn.h"
#include "util/Error.h"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace kast {

/// The on-disk magic and the two format versions. Version 4 is
/// version 3 plus the routing-arena sections; a writer emits 4 only
/// when those sections are present, so unrouted images stay
/// bit-identical to v3 and v3-only readers never see sections they
/// cannot name.
inline constexpr char FlatImageMagic[8] = {'K', 'A', 'S', 'T',
                                           'F', 'L', 'A', 'T'};
inline constexpr uint32_t FlatImageVersion = 3;
inline constexpr uint32_t FlatImageVersionRouted = 4;

/// Section alignment (and the x86-64/aarch64 page size): sections
/// start page-aligned so each is independently mappable/advisable and
/// any 8-byte element view into it is well-aligned.
inline constexpr uint64_t FlatImageAlignment = 4096;

/// Section identifiers. Values are wire constants; ids above
/// RetiredRoute are the version-4 routing arenas and are rejected in
/// version-3 files (version skew), so a v3-era reader and a v4 file
/// fail loudly in both directions. RetiredRoute is never written and
/// always rejected. RetiredQuantValues/RetiredQuantScales (a derived
/// int8 sidecar) are never written; older images that carry them are
/// checked for bounds and alignment like any section, then ignored.
enum class FlatSectionId : uint32_t {
  KernelName = 1,
  Offsets = 2,
  Hashes = 3,
  Values = 4,
  SelfDots = 5,
  Norms = 6,
  Names = 7,
  Labels = 8,
  RetiredQuantValues = 9,
  RetiredQuantScales = 10,
  RetiredRoute = 11,
  // v4 routing arenas (all-or-nothing):
  RouteMeta = 12,
  RouteAssignments = 13,
  CentroidOffsets = 14,
  CentroidHashes = 15,
  CentroidValues = 16,
  CentroidSelfDots = 17,
  CentroidNorms = 18,
  PostingClusterBegin = 19,
  PostingFeatures = 20,
  PostingBegin = 21,
  PostingIds = 22,
  PostingValues = 23,
};

/// CSR validation for the image reader's offset arrays: \p Offsets
/// must hold \p Count elements (profile count + 1) with a leading 0,
/// non-decreasing values, and a final element equal to \p Total (the
/// entry count the header promised). Runs *before* any entry blob is
/// aliased, so a corrupt offset array can never become an
/// out-of-bounds profile view. Returns a corruption diagnostic naming
/// the first violation.
Status validateCsrOffsets(const uint64_t *Offsets, size_t Count,
                          uint64_t Total);

/// The routing tier flattened into serialization-neutral CSR arenas —
/// the canonical interchange form between the index layer (which fits
/// and queries routing) and the v4 flat image (which maps it). Every
/// array is an ArrayView aiming either into index-layer owned vectors
/// (export: kept alive by Backing aliasing the live routing object) or
/// into a mapped image (restore: kept alive by Backing holding the
/// MappedImage). core carries and serializes this struct; only the
/// index layer (index/SegmentScorer's IndexRouting) interprets it.
struct RoutingArenas {
  // Routing options, flattened to scalars (the "KASTIVIX" meta).
  double MaxDocFrequency = 1.0;
  uint64_t DefaultNProbe = 0;
  uint64_t ClusterNumCentroids = 0;
  uint64_t ClusterMaxIterations = 8;
  uint64_t ClusterTrainingSample = 0;
  uint64_t ClusterSeed = 0;

  /// Profiles covered by the routing (== Assignments.size()): a prefix
  /// of the store, the whole store for service shard exports.
  uint64_t Covered = 0;
  /// Distinct features dropped by the df threshold at build time
  /// (diagnostic; rides along so a restored index reports it).
  uint64_t PrunedFeatures = 0;

  /// Cluster id per covered profile, values < Centroids.size().
  ArrayView<uint32_t> Assignments;
  /// Unit-norm sparse centroids (a small ProfileStore, owned or
  /// mapped).
  ProfileStore Centroids;

  // The inverted-index posting CSR (see index/InvertedIndex):
  /// Surviving feature hashes, cluster-major, sorted per cluster.
  ArrayView<uint64_t> FeatureHashes;
  /// Cluster C's features span FeatureHashes[ClusterBegin[C],
  /// ClusterBegin[C+1]); size Centroids.size() + 1.
  ArrayView<uint64_t> ClusterBegin;
  /// Feature F's postings span [PostingBegin[F], PostingBegin[F+1]);
  /// size FeatureHashes.size() + 1.
  ArrayView<uint64_t> PostingBegin;
  ArrayView<uint32_t> PostingIds;
  ArrayView<double> PostingValues;

  /// Keep-alive for whatever the views aim into.
  std::shared_ptr<const void> Backing;
};

/// A profile collection in memory: per-profile names/labels alongside
/// one ProfileStore, plus the routing tier when the collection has
/// one — exactly what one flat image holds.
struct ProfileStoreCache {
  /// name() of the kernel that produced the profiles; profiles from
  /// different kernels are not comparable, so loaders verify this.
  std::string KernelName;
  StringColumn Names;  ///< size() == Store.size()
  StringColumn Labels; ///< size() == Store.size()
  ProfileStore Store;
  /// The routing tier as flat arenas (the v4 sections), or null when
  /// the collection is unrouted.
  std::shared_ptr<const RoutingArenas> Routing;
};

struct FlatImageReadOptions {
  /// Also verify the checksums of the entry-sized sections (hashes,
  /// values, routing payloads) — an O(entries) sweep that faults every
  /// page. Tests and integrity audits want it; serving restarts do
  /// not. Implied on the buffered fallback path.
  bool DeepValidate = false;
  /// Skip mmap and read the file into an owned buffer (equivalent to
  /// KAST_FORCE_BUFFERED=1 for this one call).
  bool ForceBuffered = false;
};

/// Writes \p Cache (embedding Cache.Routing as the version-4 arena
/// sections when present) as a flat image at \p Path, staged through
/// "<Path>.tmp". The writer emits little-endian bytes; both writer and
/// reader require a little-endian host.
Status writeProfileStoreImageFile(const ProfileStoreCache &Cache,
                                  const std::string &Path);

/// The unstaged stream form behind the file writers, for callers that
/// stage files themselves (workloads/CorpusIO's sharded save).
Status writeProfileStoreImage(const ProfileStoreCache &Cache,
                              std::ostream &Out);

/// Opens, validates, and views a v3/v4 flat image. On success the
/// returned cache's Store aliases the mapping, Names/Labels are
/// lazily decoded section-backed columns (core/StringColumn), and —
/// for a v4 image — Cache.Routing views the routing arenas in place.
/// Rejects any structural or checksum violation with a diagnostic
/// naming the section.
Expected<ProfileStoreCache>
readProfileStoreImageFile(const std::string &Path,
                          const FlatImageReadOptions &Options = {});

} // namespace kast

#endif // KAST_CORE_FLATIMAGE_H
