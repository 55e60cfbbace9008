//===- core/ProfileStore.h - Arena-backed profile storage ------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contiguous structure-of-arrays storage for a whole corpus of kernel
/// profiles. A KernelProfile is the per-string *staging* type — built
/// feature by feature, then finalized — but storing N of them keeps N
/// separately heap-allocated vectors of interleaved (hash, value)
/// pairs: every merge-join loads the value it almost never needs into
/// the same cache line as the hash it always compares, and a
/// million-trace corpus fragments into a million allocations.
///
/// A ProfileStore flattens all N profiles into one arena of three
/// parallel arrays:
///
///     Hashes:  [ h00 h01 h02 | h10 h11 | h20 h21 h22 h23 | ... ]
///     Values:  [ v00 v01 v02 | v10 v11 | v20 v21 v22 v23 | ... ]
///     Offsets: [ 0, 3, 5, 9, ... ]          (CSR; size() + 1 entries)
///
/// plus cached per-profile self-dots and norms. Profile I spans
/// [Offsets[I], Offsets[I+1]) of Hashes/Values. Consumers address
/// profiles through ProfileView — a non-owning (hash span, value span,
/// cached self-norm) triple — and the merge-join dot over two views
/// streams the dense hash arrays, touching values only on a hash
/// match. This is the storage behind the Gram fast path
/// (core/KernelMatrix), retrieval (index/IndexService), and the
/// on-disk flat image (core/FlatImage).
///
/// Backing modes. Each of the five arrays is a core/ArenaArray: owned
/// (the result of append, mutable) or mapped (fromMapped, a view into
/// a flat image kept alive by the array; restore is O(1), no arena
/// allocation, no entry copies). Copies, moves and the copy-on-write
/// promotion on the first mutation (append/appendFrom/reserve) follow
/// ArenaArray's rules; the mapping itself is never written through.
///
/// Views are invalidated by append (the arena may reallocate); indices
/// are stable forever.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_PROFILESTORE_H
#define KAST_CORE_PROFILESTORE_H

#include "core/ArenaArray.h"
#include "core/KernelProfile.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace kast {

/// Non-owning window onto one profile in a ProfileStore: parallel
/// hash/value spans plus the cached self-dot and norm. Cheap to copy;
/// valid until the next append to the owning store.
struct ProfileView {
  const uint64_t *Hashes = nullptr;
  const double *Values = nullptr;
  size_t Size = 0;
  /// Raw self-kernel dot(p, p), cached at append.
  double SelfDot = 0.0;
  /// sqrt(SelfDot), cached at append (cosine denominators).
  double Norm = 0.0;

  bool empty() const { return Size == 0; }
};

/// Merge-join inner product of two views. The hash-compare phase
/// streams the two dense hash arrays; values are loaded only on a
/// match. Bit-identical to KernelProfile::dot over the same features.
double dot(const ProfileView &A, const ProfileView &B);

/// Merge-join inner product of a view against a staged (finalized)
/// KernelProfile — the one-off query side of index retrieval, where
/// the query never enters the arena.
double dot(const ProfileView &A, const KernelProfile &B);

/// A finalized KernelProfile flattened into dense parallel hash/value
/// arrays — the vectorizable shape of a one-off query. The staged type
/// is an array-of-structs (interleaved ProfileEntry pairs), which no
/// SIMD hash-compare can stream; retrieval layers flatten the query
/// once per query and dot it against thousands of candidate views.
struct FlatProfile {
  std::vector<uint64_t> Hashes;
  std::vector<double> Values;
  /// sqrt(selfDot), summed in entry order — bit-identical to
  /// KernelProfile::norm() on the source profile.
  double Norm = 0.0;

  FlatProfile() = default;
  explicit FlatProfile(const KernelProfile &P) { assign(P); }

  /// Re-flattens \p P into this object, reusing capacity (scratch
  /// reuse across a query batch).
  void assign(const KernelProfile &P);

  size_t size() const { return Hashes.size(); }
  bool empty() const { return Hashes.empty(); }
};

/// Merge-join inner product of a stored view against a flattened
/// query. Bit-identical to dot(A, KernelProfile) over the same
/// features — flattening only changes the layout.
double dot(const ProfileView &A, const FlatProfile &B);

/// Arena of N profiles as structure-of-arrays with CSR offsets, either
/// owning its arrays or viewing a mapped image (see file comment).
class ProfileStore {
public:
  /// Copies a finalized profile into the arena and caches its
  /// self-dot/norm. \returns the new profile's index.
  size_t append(const KernelProfile &Profile);

  /// Appends a whole batch, encoding the arena's sizing policy once
  /// for every bulk-build call site: an empty store is exact-size
  /// reserved for the batch; a non-empty store grows geometrically
  /// (an exact reserve per batch would force a full arena copy on
  /// every append).
  void appendAll(const std::vector<KernelProfile> &Profiles);

  /// Copies profile \p I of \p Other straight into this arena — two
  /// contiguous range inserts plus the cached self-dot/norm, no
  /// KernelProfile materialization. This is the rebuild primitive for
  /// arena-to-arena movement (shard distribution, tombstone-dropping
  /// compaction in index/IndexService, sharded cache export).
  /// \p Other must not be this store (asserted): self-append would
  /// read from an arena mid-reallocation. \returns the new profile's
  /// index.
  size_t appendFrom(const ProfileStore &Other, size_t I);

  /// Non-owning construction over externally owned arrays — the v3
  /// flat-image restore path (core/FlatImage). All five arrays view
  /// \p Backing, which stays alive as long as this store or any copy
  /// of it does. The caller has already validated the CSR shape and
  /// section checksums; self-dots and norms come from the image, not
  /// from an O(entries) recompute. The first mutation promotes to
  /// owned arrays (see isMapped()).
  static ProfileStore fromMapped(const uint64_t *Offsets,
                                 const uint64_t *Hashes,
                                 const double *Values, const double *SelfDots,
                                 const double *Norms, size_t Profiles,
                                 size_t Entries,
                                 std::shared_ptr<const void> Backing);

  /// True while the arrays view an external mapping; false once owned
  /// (initially, or after the copy-on-write promotion a mutation
  /// triggers).
  bool isMapped() const { return Hashes.isMapped(); }

  /// Number of profiles stored.
  size_t size() const { return SelfDots.size(); }
  bool empty() const { return size() == 0; }

  /// Total (hash, value) entries across all profiles.
  size_t entryCount() const { return Hashes.size(); }

  /// The view of profile \p I; invalidated by the next append.
  ProfileView view(size_t I) const {
    const size_t Begin = static_cast<size_t>(Offsets[I]);
    return {Hashes.data() + Begin, Values.data() + Begin,
            static_cast<size_t>(Offsets[I + 1]) - Begin, SelfDots[I],
            Norms[I]};
  }

  /// Raw self-kernel dot(p, p) of profile \p I.
  double selfDot(size_t I) const { return SelfDots[I]; }

  /// sqrt(selfDot(I)).
  double norm(size_t I) const { return Norms[I]; }

  /// Pre-sizes the arena for \p Profiles profiles totaling \p Entries
  /// features, so a bulk build appends without reallocation. Counts as
  /// a mutation: promotes a mapped store.
  void reserve(size_t Profiles, size_t Entries);

  /// Copies profile \p I back out as a staging-type KernelProfile
  /// (re-querying with a stored entry, k-means seeding).
  KernelProfile materialize(size_t I) const;

  /// Checks the finalize() invariant (strictly increasing hashes) for
  /// every profile — the validation gate for mapped input.
  bool isFinalized() const;

  // Raw arena access for block serialization; offsets() has size()+1
  // elements with offsets()[0] == 0. Offsets are kept as u64 — the
  // cache wire width — so save/load move the blob wholesale with no
  // widen/narrow copy. The views follow the active backing (owned
  // vectors or mapped image) and are invalidated like ProfileViews.
  ArrayView<uint64_t> hashes() const { return Hashes.view(); }
  ArrayView<double> values() const { return Values.view(); }
  ArrayView<uint64_t> offsets() const {
    // A store that never held a profile (or was moved from) has no
    // offset array yet; its CSR form is the lone leading 0.
    static constexpr uint64_t Empty[1] = {0};
    return Offsets.empty() ? ArrayView<uint64_t>(Empty, 1) : Offsets.view();
  }
  ArrayView<double> selfDots() const { return SelfDots.view(); }
  ArrayView<double> norms() const { return Norms.view(); }

private:
  ArenaArray<uint64_t> Hashes;
  ArenaArray<double> Values;
  /// CSR: size() + 1 entries once the first profile is appended (the
  /// leading 0 is written then); empty before.
  ArenaArray<uint64_t> Offsets;
  ArenaArray<double> SelfDots;
  ArenaArray<double> Norms;
};

} // namespace kast

#endif // KAST_CORE_PROFILESTORE_H
