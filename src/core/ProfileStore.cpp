//===- core/ProfileStore.cpp - Arena-backed profile storage ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ProfileStore.h"

#include "util/SimdDot.h"

#include <cassert>
#include <cmath>

using namespace kast;

double kast::dot(const ProfileView &A, const ProfileView &B) {
  // Dense contiguous spans on both sides: this is the shape the
  // vectorized kernels exist for. simd::dotExact is bit-identical to
  // the scalar mergeJoinDot (pinned by tests/SimdDotTest.cpp), so the
  // Gram/retrieval bit-exactness contracts are unaffected.
  return simd::dotExact(A.Hashes, A.Values, A.Size, B.Hashes, B.Values,
                        B.Size);
}

double kast::dot(const ProfileView &A, const FlatProfile &B) {
  return simd::dotExact(A.Hashes, A.Values, A.Size, B.Hashes.data(),
                        B.Values.data(), B.Hashes.size());
}

double kast::dot(const ProfileView &A, const KernelProfile &B) {
  const std::vector<ProfileEntry> &Rhs = B.entries();
  return detail::mergeJoinDot(
      A.Size, [&](size_t I) { return A.Hashes[I]; },
      [&](size_t I) { return A.Values[I]; }, Rhs.size(),
      [&](size_t J) { return Rhs[J].Hash; },
      [&](size_t J) { return Rhs[J].Value; });
}

void FlatProfile::assign(const KernelProfile &P) {
  const std::vector<ProfileEntry> &Entries = P.entries();
  Hashes.resize(Entries.size());
  Values.resize(Entries.size());
  double SelfDot = 0.0;
  // Entry order, like KernelProfile::norm(), so Norm is bit-identical
  // to the staged profile's — every retrieval score divides by it.
  for (size_t I = 0; I < Entries.size(); ++I) {
    Hashes[I] = Entries[I].Hash;
    Values[I] = Entries[I].Value;
    SelfDot += Entries[I].Value * Entries[I].Value;
  }
  Norm = std::sqrt(SelfDot);
}

//===----------------------------------------------------------------------===//
// ProfileStore
//===----------------------------------------------------------------------===//

size_t ProfileStore::append(const KernelProfile &Profile) {
  if (Offsets.empty())
    Offsets.push_back(0);
  const std::vector<ProfileEntry> &Entries = Profile.entries();
  // No per-append reserve: an exact-size reserve beats geometric
  // growth only once, then forces a full arena copy on every later
  // append. grow()'s doubling keeps N appends amortized O(total).
  uint64_t *NewHashes = Hashes.grow(Entries.size());
  double *NewValues = Values.grow(Entries.size());
  double SelfDot = 0.0;
  for (size_t E = 0; E < Entries.size(); ++E) {
    assert((E == 0 || Entries[E - 1].Hash < Entries[E].Hash) &&
           "profile must be finalized (sorted, coalesced)");
    NewHashes[E] = Entries[E].Hash;
    NewValues[E] = Entries[E].Value;
    SelfDot += Entries[E].Value * Entries[E].Value;
  }
  Offsets.push_back(Hashes.size());
  SelfDots.push_back(SelfDot);
  Norms.push_back(std::sqrt(SelfDot));
  return size() - 1;
}

void ProfileStore::appendAll(const std::vector<KernelProfile> &Profiles) {
  if (empty()) {
    size_t TotalEntries = 0;
    for (const KernelProfile &P : Profiles)
      TotalEntries += P.size();
    reserve(Profiles.size(), TotalEntries);
  }
  for (const KernelProfile &P : Profiles)
    append(P);
}

size_t ProfileStore::appendFrom(const ProfileStore &Other, size_t I) {
  // Self-append would insert from the arena being grown — a
  // reallocation mid-insert reads freed memory.
  assert(this != &Other && "appendFrom cannot copy a store into itself");
  if (Offsets.empty())
    Offsets.push_back(0);
  const ProfileView V = Other.view(I);
  Hashes.append(V.Hashes, V.Hashes + V.Size);
  Values.append(V.Values, V.Values + V.Size);
  Offsets.push_back(Hashes.size());
  SelfDots.push_back(V.SelfDot);
  Norms.push_back(V.Norm);
  return size() - 1;
}

ProfileStore ProfileStore::fromMapped(const uint64_t *Offsets,
                                      const uint64_t *Hashes,
                                      const double *Values,
                                      const double *SelfDots,
                                      const double *Norms, size_t Profiles,
                                      size_t Entries,
                                      std::shared_ptr<const void> Backing) {
  assert(Offsets && Offsets[0] == 0 && Offsets[Profiles] == Entries &&
         "malformed CSR offsets");
  ProfileStore Store;
  Store.Offsets =
      ArenaArray<uint64_t>::mapped({Offsets, Profiles + 1}, Backing);
  Store.Hashes = ArenaArray<uint64_t>::mapped({Hashes, Entries}, Backing);
  Store.Values = ArenaArray<double>::mapped({Values, Entries}, Backing);
  Store.SelfDots = ArenaArray<double>::mapped({SelfDots, Profiles}, Backing);
  Store.Norms =
      ArenaArray<double>::mapped({Norms, Profiles}, std::move(Backing));
  return Store;
}

void ProfileStore::reserve(size_t Profiles, size_t Entries) {
  if (Offsets.empty())
    Offsets.push_back(0);
  Offsets.reserve(Profiles + 1);
  SelfDots.reserve(Profiles);
  Norms.reserve(Profiles);
  Hashes.reserve(Entries);
  Values.reserve(Entries);
}

KernelProfile ProfileStore::materialize(size_t I) const {
  const ProfileView V = view(I);
  KernelProfile P;
  P.reserve(V.Size);
  // The arena already holds finalized (sorted, coalesced) entries, so
  // plain adds reproduce the profile bit-exactly; no re-finalize.
  for (size_t E = 0; E < V.Size; ++E)
    P.add(V.Hashes[E], V.Values[E]);
  return P;
}

bool ProfileStore::isFinalized() const {
  for (size_t I = 0; I < size(); ++I)
    for (size_t E = Offsets[I] + 1; E < Offsets[I + 1]; ++E)
      if (Hashes[E - 1] >= Hashes[E])
        return false;
  return true;
}
