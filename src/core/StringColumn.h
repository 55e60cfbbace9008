//===- core/StringColumn.h - CSR string storage ----------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A column of N strings (the per-profile names and labels of a
/// ProfileStoreCache or a service segment) in one representation:
/// (N+1) u64 CSR offsets into a byte blob — the layout
/// of a flat image's NAMES/LABELS section. Both arrays are
/// core/ArenaArrays, so a column is owned (push_back) or maps the
/// section of an image it was read from (fromMapped), and copies,
/// moves and the copy-on-write promotion on the first mutation follow
/// ArenaArray's rules; the mapping is never written through.
///
/// The mapped mode is what makes flat-image opens lazy about strings:
/// the reader validates the offset table once and hands back views;
/// operator[] returns a string_view straight into the blob, so for a
/// restart that answers queries no name costs an allocation at open.
///
/// std::hash<std::string_view> and std::hash<std::string> are
/// guaranteed to agree on equal character sequences, so name-hash
/// routing (IndexService::shardOf) is stable across backing modes.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_STRINGCOLUMN_H
#define KAST_CORE_STRINGCOLUMN_H

#include "core/ArenaArray.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace kast {

class StringColumn {
public:
  StringColumn() = default;
  /*implicit*/ StringColumn(const std::vector<std::string> &Strings) {
    reserve(Strings.size());
    for (const std::string &S : Strings)
      push_back(S);
  }

  /// Non-owning construction over a validated string table: \p Offsets
  /// is (Count+1) u64s (leading 0, non-decreasing), \p Blob the
  /// concatenated Offsets[Count] bytes, both alive through \p Backing.
  /// The flat-image reader validates the table before calling in.
  static StringColumn fromMapped(const uint64_t *Offsets, const char *Blob,
                                 size_t Count,
                                 std::shared_ptr<const void> Backing) {
    StringColumn C;
    C.Offsets = ArenaArray<uint64_t>::mapped({Offsets, Count + 1}, Backing);
    C.Blob = ArenaArray<char>::mapped(
        {Blob, static_cast<size_t>(Offsets[Count])}, std::move(Backing));
    return C;
  }

  /// An empty column has no offset table yet (the leading 0 is written
  /// by the first push_back).
  size_t size() const { return Offsets.empty() ? 0 : Offsets.size() - 1; }
  bool empty() const { return size() == 0; }

  /// True while the column views an external mapping; false once owned
  /// (initially, or after the promotion a mutation triggers).
  bool isMapped() const { return Offsets.isMapped() || Blob.isMapped(); }

  /// The string at \p I: a view into the blob, valid until the next
  /// mutation of this column.
  std::string_view operator[](size_t I) const {
    const size_t Begin = static_cast<size_t>(Offsets[I]);
    return {Blob.data() + Begin, static_cast<size_t>(Offsets[I + 1]) - Begin};
  }

  /// Materialized copy of the string at \p I.
  std::string str(size_t I) const { return std::string((*this)[I]); }

  /// Appends a string, which must not view this column.
  void push_back(std::string_view S) {
    if (Offsets.empty())
      Offsets.push_back(0);
    Blob.append(S.data(), S.data() + S.size());
    Offsets.push_back(Blob.size());
  }

  /// Drops the last string.
  void pop_back() {
    Offsets.pop_back();
    Blob.resize(static_cast<size_t>(Offsets.back()));
  }

  /// Pre-sizes the offset table for \p N strings.
  void reserve(size_t N) { Offsets.reserve(N + 1); }

  friend bool operator==(const StringColumn &A, const StringColumn &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }

  friend bool operator==(const StringColumn &A,
                         const std::vector<std::string> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  friend bool operator==(const std::vector<std::string> &A,
                         const StringColumn &B) {
    return B == A;
  }

private:
  ArenaArray<uint64_t> Offsets;
  ArenaArray<char> Blob;
};

} // namespace kast

#endif // KAST_CORE_STRINGCOLUMN_H
