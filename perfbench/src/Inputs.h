//===- perfbench/src/Inputs.h - Seeded benchmark inputs ---------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Input generation for the end-to-end benchmark. Everything is a pure
/// function of the workload seed:
///
///   - base traces come from workloads/generateCorpus with no copies;
///   - corpus entries, held-out queries and ingest items are mutant
///     copies of those bases, each drawn from its own Rng stream, so an
///     item can be regenerated on demand instead of being kept in memory;
///   - every stream is spread evenly over *every* base: item I of N
///     descends from base I * Bases / N (baseOf). generateCorpus orders
///     bases by category, so taking the first items, or the items
///     I % Bases of a stream shorter than the base list, would drop
///     whole bases or categories and make label accuracy measure a
///     missing neighbourhood instead of retrieval;
///   - requests reach the program as strace text, rendered here and
///     checked by round trip: parseStrace of the text must give back
///     the trace's I/O events.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_PERFBENCH_INPUTS_H
#define KAST_PERFBENCH_INPUTS_H

#include "Bench.h"

#include "workloads/DatasetBuilder.h"

#include <string>
#include <vector>

namespace kbench {

/// Base examples per category (A, B, C, D) and the generator scale.
struct CorpusShape {
  size_t BasesA = 0, BasesB = 0, BasesC = 0, BasesD = 0;
  size_t Scale = 1;
};

/// The base traces of \p Shape for \p Seed, in generateCorpus order.
std::vector<kast::LabeledTrace> makeBases(const CorpusShape &Shape,
                                          uint64_t Seed);

/// Independent Rng streams, so corpus, queries and ingest items never
/// share draws.
enum class Stream : uint64_t { Corpus = 1, Query = 2, Ingest = 3, Load = 4 };

/// The base item \p Index of a stream of \p Count items descends from:
/// Index * NumBases / Count, so the stream covers the bases evenly and,
/// when Count >= NumBases, every one of them.
inline size_t baseOf(size_t Index, size_t Count, size_t NumBases) {
  return Index * NumBases / Count;
}

/// Mutant copy number \p Index of the \p Count items of stream \p S,
/// descended from base baseOf(Index, Count, Bases.size()) and named
/// "<Prefix><Index>".
kast::Trace mutantOf(const std::vector<kast::LabeledTrace> &Bases,
                     uint64_t Seed, Stream S, size_t Index, size_t Count,
                     const std::string &Prefix);

/// Renders \p T as strace(1) output: openat/read/write/lseek/fsync/close
/// lines with timestamps, interleaved with non-I/O syscalls the parser
/// must skip.
std::string renderStrace(const kast::Trace &T);

/// A request input: strace text plus its ground truth.
struct TextItem {
  std::string Name;
  std::string Label;
  std::string Text;
};

/// \p Count mutants of stream \p S rendered as strace text. Each is
/// checked by round trip; a mismatch counts as a failure in \p Out.
std::vector<TextItem> makeTexts(const std::vector<kast::LabeledTrace> &Bases,
                                uint64_t Seed, Stream S, size_t Count,
                                const std::string &Prefix, Outcome &Out);

/// True when parseStrace(\p Text) reproduces \p T's events (operation,
/// handle and byte count; strace carries no memory addresses).
bool roundTrips(const kast::Trace &T, const std::string &Text);

} // namespace kbench

#endif // KAST_PERFBENCH_INPUTS_H
