//===- core/ArenaArray.h - Owned-or-mapped flat arrays ---------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one storage type behind KAST's flat arenas: ProfileStore,
/// StringColumn, ClusterRouter and InvertedIndex hold every array as
/// an ArenaArray<T>. An ArenaArray is in one of two backing modes:
///
///  - *owned*: a std::vector<T> of its own;
///  - *mapped*: a read-only view into externally owned bytes (a flat
///    image opened by core/FlatImage), kept alive through a
///    shared_ptr<const void>.
///
/// This file is the only place that states how the two modes behave:
///
///  - a copy of a mapped array shares the mapping in O(1);
///  - a copy of an owned array is an independent copy;
///  - a move hands the storage over and leaves the source empty (owned,
///    no elements), ready for reuse;
///  - the first mutation of a mapped array copies it into owned memory
///    and drops the keep-alive (copy-on-write promotion); the mapping
///    is never written through.
///
/// Reads go through a cached (pointer, count) pair aimed at whichever
/// storage is active, so element access is a plain load with no
/// per-mode branch. Every mutator re-aims the cache after touching the
/// vector (which may reallocate). Classes built from ArenaArrays get
/// correct copies and moves from the defaults (rule of zero).
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_ARENAARRAY_H
#define KAST_CORE_ARENAARRAY_H

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace kast {

/// Minimal read-only array view: what the arenas' raw accessors
/// return, pointing either into owned vectors or into a mapped image.
/// Iterable and element-comparable like a vector; does not own and
/// does not outlive its source's next mutation.
template <typename T> class ArrayView {
public:
  ArrayView() = default;
  ArrayView(const T *Data, size_t Size) : Ptr(Data), Count(Size) {}
  /*implicit*/ ArrayView(const std::vector<T> &V)
      : Ptr(V.data()), Count(V.size()) {}

  const T *data() const { return Ptr; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  const T *begin() const { return Ptr; }
  const T *end() const { return Ptr + Count; }
  const T &operator[](size_t I) const { return Ptr[I]; }
  const T &front() const { return Ptr[0]; }
  const T &back() const { return Ptr[Count - 1]; }

  friend bool operator==(const ArrayView &A, const ArrayView &B) {
    if (A.Count != B.Count)
      return false;
    for (size_t I = 0; I < A.Count; ++I)
      if (!(A.Ptr[I] == B.Ptr[I]))
        return false;
    return true;
  }

private:
  const T *Ptr = nullptr;
  size_t Count = 0;
};

/// A flat array that either owns its elements or views a mapping (see
/// file comment).
template <typename T> class ArenaArray {
public:
  ArenaArray() = default;

  /// Owned mode over \p Values.
  /*implicit*/ ArenaArray(std::vector<T> Values) : Owned(std::move(Values)) {
    aimAtOwned();
  }

  /// Mapped mode over \p View, which \p Backing keeps alive for as long
  /// as this array or any copy of it views it.
  static ArenaArray mapped(ArrayView<T> View,
                           std::shared_ptr<const void> Backing) {
    assert(Backing && "a mapped array needs a keep-alive");
    ArenaArray A;
    A.Ptr = View.data();
    A.Count = View.size();
    A.Backing = std::move(Backing);
    return A;
  }

  ArenaArray(const ArenaArray &Other)
      : Owned(Other.Backing ? std::vector<T>() : Other.Owned),
        Backing(Other.Backing) {
    if (Backing) {
      Ptr = Other.Ptr;
      Count = Other.Count;
    } else {
      aimAtOwned();
    }
  }
  ArenaArray(ArenaArray &&Other) noexcept { take(Other); }
  ArenaArray &operator=(const ArenaArray &Other) {
    if (this != &Other) {
      ArenaArray Copy(Other);
      take(Copy);
    }
    return *this;
  }
  ArenaArray &operator=(ArenaArray &&Other) noexcept {
    if (this != &Other)
      take(Other);
    return *this;
  }

  /// True while the elements view an external mapping.
  bool isMapped() const { return Backing != nullptr; }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  const T *data() const { return Ptr; }
  const T &operator[](size_t I) const { return Ptr[I]; }
  const T &back() const { return Ptr[Count - 1]; }
  ArrayView<T> view() const { return {Ptr, Count}; }

  // Mutators. Each promotes a mapped array to owned memory first.

  void push_back(const T &Value) {
    makeOwned();
    Owned.push_back(Value);
    aimAtOwned();
  }
  /// Appends \p N value-initialized elements and returns them for the
  /// caller to fill; valid until the next mutation.
  T *grow(size_t N) {
    makeOwned();
    Owned.resize(Owned.size() + N);
    aimAtOwned();
    return Owned.data() + (Owned.size() - N);
  }
  /// Appends [First, Last), which must not point into this array.
  void append(const T *First, const T *Last) {
    makeOwned();
    Owned.insert(Owned.end(), First, Last);
    aimAtOwned();
  }
  void pop_back() {
    makeOwned();
    Owned.pop_back();
    aimAtOwned();
  }
  void resize(size_t N) {
    makeOwned();
    Owned.resize(N);
    aimAtOwned();
  }
  void reserve(size_t N) {
    makeOwned();
    Owned.reserve(N);
    aimAtOwned();
  }

private:
  void aimAtOwned() {
    Ptr = Owned.data();
    Count = Owned.size();
  }

  /// Copy-on-write: copies the mapped elements into owned memory and
  /// drops the keep-alive. No-op when already owned.
  void makeOwned() {
    if (!Backing)
      return;
    Owned.assign(Ptr, Ptr + Count);
    Backing.reset();
  }

  /// Takes over \p Other's storage (a vector move keeps its heap
  /// buffer, so owned elements do not move) and leaves it empty.
  void take(ArenaArray &Other) noexcept {
    Owned = std::move(Other.Owned);
    Backing = std::move(Other.Backing);
    if (Backing) {
      Ptr = Other.Ptr;
      Count = Other.Count;
    } else {
      aimAtOwned();
    }
    Other.Owned.clear();
    Other.aimAtOwned();
  }

  std::vector<T> Owned;
  /// The active storage: Owned's buffer, or the mapping.
  const T *Ptr = nullptr;
  size_t Count = 0;
  /// Non-null iff mapped.
  std::shared_ptr<const void> Backing;
};

} // namespace kast

#endif // KAST_CORE_ARENAARRAY_H
