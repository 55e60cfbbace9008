//===- workloads/CorpusIO.h - Corpus directories on disk -------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Materializes a corpus as a directory of plain-text access pattern
/// files — the form the paper's corpus originally had — and loads such
/// a directory back. File names are "<name>.trace" where the name
/// follows the "<label><base>.<copy>" lineage convention: a leading
/// alphabetic category label ("A3.2.trace" is a category-A example),
/// a base-example index, and the mutated-copy index after the dot.
/// Loading rejects names that break the convention with a diagnostic
/// error rather than guessing at labels.
///
/// Next to the plain-text traces, a served corpus persists as one flat
/// image per shard (core/FlatImage): per-string kernel profiles
/// computed once and mapped back by every later restart.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_WORKLOADS_CORPUSIO_H
#define KAST_WORKLOADS_CORPUSIO_H

#include "core/FlatImage.h"
#include "util/Error.h"
#include "workloads/DatasetBuilder.h"

#include <string>
#include <vector>

namespace kast {

/// Writes every corpus trace to "<Dir>/<name>.trace". Creates \p Dir
/// if missing. Fails on the first I/O error.
Status writeCorpusDirectory(const std::vector<LabeledTrace> &Corpus,
                            const std::string &Dir);

/// Loads every "*.trace" file of \p Dir. Labels and lineage are
/// recovered from the "<label><base>.<copy>" file-name convention; a
/// name with no alphabetic label prefix, no base index, or no
/// ".<copy>" suffix is a hard error naming the offending file. The
/// result is in numeric lineage order — (label, base index, copy
/// index) — not lexicographic file-name order, so "A2.0" precedes
/// "A10.0" and corpus order matches generation order at any corpus
/// size.
Expected<std::vector<LabeledTrace>>
loadCorpusDirectory(const std::string &Dir);

/// Writes one flat image per shard — "<Dir>/shard-NNN.kfi",
/// zero-padded, one per element of \p Shards — creating \p Dir if
/// missing. This is the persistence format of index/IndexService's
/// toShardCaches(). Each image carries the shard's routing arenas as
/// v4 sections, so a routed service restores via
/// loadShardedProfileImages + IndexService::fromShardCaches with
/// zero-copy stores and no refit or posting rebuild. The save is
/// three-phase (write "*.kfi.tmp" staging files, sweep higher-numbered
/// leftovers of a previous generation, rename into place), so no crash
/// point leaves a directory that loads silently wrong; an empty
/// \p Shards is refused.
Status writeShardedProfileImages(const std::vector<ProfileStoreCache> &Shards,
                                 const std::string &Dir);

/// Loads every "<Dir>/shard-NNN.kfi" written by
/// writeShardedProfileImages, in shard order. The numbering must be
/// contiguous from 0 (a missing middle shard is a hard error — serving
/// a partial corpus silently would skew every query), and a leftover
/// staging file refuses the directory. A non-empty
/// \p ExpectedKernelName is verified against every shard's image;
/// pass "" to skip verification and check KernelName yourself. The
/// returned stores alias their file mappings (see core/FlatImage)
/// until first mutation.
Expected<std::vector<ProfileStoreCache>>
loadShardedProfileImages(const std::string &Dir,
                         const std::string &ExpectedKernelName = "",
                         const FlatImageReadOptions &Options = {});

} // namespace kast

#endif // KAST_WORKLOADS_CORPUSIO_H
