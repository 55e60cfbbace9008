//===- workloads/CorpusIO.cpp - Corpus directories on disk -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "workloads/CorpusIO.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "util/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>

using namespace kast;

Status kast::writeCorpusDirectory(const std::vector<LabeledTrace> &Corpus,
                                  const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return Status::error("cannot create directory '" + Dir +
                         "': " + Ec.message());
  for (const LabeledTrace &Example : Corpus) {
    std::string Name =
        Example.T.name().empty() ? "unnamed" : Example.T.name();
    std::string Path = Dir + "/" + Name + ".trace";
    if (!writeTraceFile(Example.T, Path))
      return Status::error("cannot write '" + Path + "'");
  }
  return Status();
}

/// Splits "<label><base>.<copy>" lineage out of a trace name; every
/// part is mandatory, so a nonconforming name fails loudly instead of
/// yielding an empty label that corrupts downstream accuracy metrics.
/// \p CopyOut receives the numeric copy index (the load order's final
/// sort key).
static Status parseLineage(const std::string &Name, LabeledTrace &Out,
                           uint64_t &CopyOut) {
  size_t I = 0;
  while (I < Name.size() &&
         std::isalpha(static_cast<unsigned char>(Name[I])))
    ++I;
  if (I == 0)
    return Status::error("no alphabetic label prefix");
  Out.Label = Name.substr(0, I);
  size_t Dot = Name.find('.', I);
  if (Dot == std::string::npos)
    return Status::error("no '.<copy>' suffix");
  std::optional<uint64_t> Base =
      parseUnsigned(std::string_view(Name).substr(I, Dot - I));
  if (!Base)
    return Status::error("no base index between label and '.'");
  Out.BaseIndex = static_cast<size_t>(*Base);
  std::optional<uint64_t> Copy =
      parseUnsigned(std::string_view(Name).substr(Dot + 1));
  if (!Copy)
    return Status::error("copy index after '.' is not a number");
  CopyOut = *Copy;
  Out.IsMutant = *Copy != 0;
  return Status();
}

Expected<std::vector<LabeledTrace>>
kast::loadCorpusDirectory(const std::string &Dir) {
  using Result = Expected<std::vector<LabeledTrace>>;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return Result::error("cannot read directory '" + Dir +
                         "': " + Ec.message());

  std::vector<std::string> Paths;
  for (const std::filesystem::directory_entry &Entry : It)
    if (Entry.is_regular_file() &&
        Entry.path().extension() == ".trace")
      Paths.push_back(Entry.path().string());
  // Directory iteration order is platform-dependent; pin it before
  // parsing so diagnostics fire in a deterministic order too.
  std::sort(Paths.begin(), Paths.end());

  // Loaded examples keep their numeric copy index alongside so the
  // final order can be the *lineage* order (label, base, copy), not
  // the lexicographic file-name order — which would interleave bases
  // ("A10.0" sorts before "A2.0") the moment a corpus has ten or more
  // bases per label, silently breaking every consumer that assumes
  // corpus order matches lineage order.
  struct ParsedTrace {
    LabeledTrace Example;
    uint64_t Copy = 0;
  };
  std::vector<ParsedTrace> Parsed;
  Parsed.reserve(Paths.size());
  for (const std::string &Path : Paths) {
    Expected<Trace> T = parseTraceFile(Path);
    if (!T)
      return Result::error(T.message());
    ParsedTrace Entry;
    Entry.Example.T = T.take();
    // Strip the ".trace" suffix the parser kept in the name.
    std::string Name = Entry.Example.T.name();
    if (endsWith(Name, ".trace"))
      Name.resize(Name.size() - 6);
    Entry.Example.T.setName(Name);
    Status Lineage = parseLineage(Name, Entry.Example, Entry.Copy);
    if (!Lineage)
      return Result::error("malformed trace name '" + Name + "' ('" + Path +
                           "'): " + Lineage.message());
    Parsed.push_back(std::move(Entry));
  }
  std::sort(Parsed.begin(), Parsed.end(),
            [](const ParsedTrace &L, const ParsedTrace &R) {
              if (L.Example.Label != R.Example.Label)
                return L.Example.Label < R.Example.Label;
              if (L.Example.BaseIndex != R.Example.BaseIndex)
                return L.Example.BaseIndex < R.Example.BaseIndex;
              if (L.Copy != R.Copy)
                return L.Copy < R.Copy;
              return L.Example.T.name() < R.Example.T.name();
            });

  std::vector<LabeledTrace> Corpus;
  Corpus.reserve(Parsed.size());
  for (ParsedTrace &Entry : Parsed)
    Corpus.push_back(std::move(Entry.Example));
  return Corpus;
}

/// "<Dir>/shard-NNN.kfi" with at least three digits; writer, sweeper
/// and loader agree through this formatter and parseShardNumber.
static std::string shardFilePath(const std::string &Dir, size_t Shard) {
  std::string Number = std::to_string(Shard);
  while (Number.size() < 3)
    Number.insert(Number.begin(), '0');
  return Dir + "/shard-" + Number + ".kfi";
}

/// The inverse of shardFilePath's file-name half: the shard number of
/// a "shard-NNN.kfi" name, nullopt for anything else — including the
/// ".kfi.tmp" staging files of an in-flight save and non-canonical
/// spellings like "shard-7.kfi", which would otherwise alias the
/// writer's "shard-007.kfi" in sweep and contiguity decisions.
static std::optional<uint64_t> parseShardNumber(const std::string &File) {
  if (!File.starts_with("shard-") || !endsWith(File, ".kfi"))
    return std::nullopt;
  std::string_view Digits =
      std::string_view(File).substr(6, File.size() - 6 - 4);
  std::optional<uint64_t> Number = parseUnsigned(Digits);
  if (!Number)
    return std::nullopt;
  std::string Canonical = std::to_string(*Number);
  while (Canonical.size() < 3)
    Canonical.insert(Canonical.begin(), '0');
  return Digits == Canonical ? Number : std::nullopt;
}

/// A "shard-*.kfi.tmp" staging file of an in-flight or interrupted
/// save.
static bool isStagingFile(const std::string &File) {
  return File.starts_with("shard-") && endsWith(File, ".kfi.tmp");
}

Status
kast::writeShardedProfileImages(const std::vector<ProfileStoreCache> &Shards,
                                const std::string &Dir) {
  // An empty shard list would write nothing and then sweep *every*
  // existing shard file as stale — a degenerate input silently erasing
  // the previous generation. No real service produces it (a service
  // always has at least one shard), so refuse loudly.
  if (Shards.empty())
    return Status::error("refusing to write an empty sharded profile cache "
                         "to '" + Dir + "'");
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return Status::error("cannot create directory '" + Dir +
                         "': " + Ec.message());
  // Three-phase save — write staging files, sweep stale files, rename
  // into place — ordered so that *no* crash point leaves a directory
  // that loads silently wrong: the loader refuses any directory with
  // leftover ".kfi.tmp" staging files, and until the very last rename
  // at least one staging file exists. A crash therefore yields either
  // the intact previous generation plus a loud diagnostic, never a
  // quietly loadable mix of generations.
  //
  // Phase 1: write every shard under its ".kfi.tmp" staging name (an
  // ENOSPC here leaves the previous generation untouched).
  for (size_t S = 0; S < Shards.size(); ++S) {
    const std::string Staging = shardFilePath(Dir, S) + ".tmp";
    std::ofstream Out(Staging, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Status::error("cannot open '" + Staging + "' for writing");
    if (Status W = writeProfileStoreImage(Shards[S], Out); !W)
      return Status::error(W.message() + " ('" + Staging + "')");
    Out.close();
    if (!Out)
      return Status::error("cannot flush '" + Staging + "'");
  }
  // Phase 2: sweep files of the previous generation the new one will
  // not overwrite — higher-numbered "shard-NNN.kfi" (their numbering
  // would stay contiguous and silently restore the old corpus
  // alongside the new) and staging leftovers of older interrupted
  // saves. A file the sweep cannot delete fails the save loudly for
  // the same reason.
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return Status::error("cannot re-read directory '" + Dir +
                         "': " + Ec.message());
  for (const std::filesystem::directory_entry &Entry : It) {
    if (!Entry.is_regular_file())
      continue;
    std::string File = Entry.path().filename().string();
    bool Stale = false;
    if (isStagingFile(File)) {
      // Our own phase-1 files are "shard-<canonical 0..N-1>.kfi.tmp";
      // anything else tmp-shaped is a leftover.
      std::optional<uint64_t> Number =
          parseShardNumber(File.substr(0, File.size() - 4));
      Stale = !Number || *Number >= Shards.size();
    } else if (std::optional<uint64_t> Number = parseShardNumber(File)) {
      Stale = *Number >= Shards.size();
    }
    if (!Stale)
      continue;
    std::filesystem::remove(Entry.path(), Ec);
    if (Ec)
      return Status::error("cannot remove stale shard image '" +
                           Entry.path().string() + "': " + Ec.message());
  }
  // Phase 3: rename the staging files into place (atomic per file;
  // each rename overwrites the same-numbered previous-generation
  // file, so partial progress only ever mixes with a loud staging
  // leftover, which the loader rejects). A store that still maps the
  // file it replaces keeps the old inode.
  for (size_t S = 0; S < Shards.size(); ++S) {
    std::string Path = shardFilePath(Dir, S);
    std::filesystem::rename(Path + ".tmp", Path, Ec);
    if (Ec)
      return Status::error("cannot rename '" + Path + ".tmp' into place: " +
                           Ec.message());
  }
  return Status();
}

Expected<std::vector<ProfileStoreCache>>
kast::loadShardedProfileImages(const std::string &Dir,
                               const std::string &ExpectedKernelName,
                               const FlatImageReadOptions &Options) {
  using Result = Expected<std::vector<ProfileStoreCache>>;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return Result::error("cannot read directory '" + Dir +
                         "': " + Ec.message());

  // Collect the shard numbers actually present, then demand the
  // contiguous range 0..N-1: a hole means the corpus on disk is
  // partial, and serving a partial corpus silently would skew every
  // query that restart answers.
  std::vector<uint64_t> Numbers;
  for (const std::filesystem::directory_entry &Entry : It) {
    if (!Entry.is_regular_file())
      continue;
    std::string File = Entry.path().filename().string();
    // A ".kfi.tmp" staging file means a save is in flight or died
    // mid-way; the shard files beside it may mix generations, so
    // refuse the whole directory rather than restore them silently
    // (a completed re-save sweeps the leftovers and unblocks).
    if (isStagingFile(File))
      return Result::error("interrupted save: staging file '" + File +
                           "' present in '" + Dir +
                           "'; re-save the shards or remove it");
    if (!File.starts_with("shard-") || !endsWith(File, ".kfi"))
      continue;
    std::optional<uint64_t> Number = parseShardNumber(File);
    if (!Number)
      return Result::error("unparseable shard image name '" + File +
                           "' in '" + Dir + "'");
    Numbers.push_back(*Number);
  }
  if (Numbers.empty())
    return Result::error("no shard-*.kfi images in '" + Dir + "'");
  std::sort(Numbers.begin(), Numbers.end());
  for (size_t S = 0; S < Numbers.size(); ++S)
    if (Numbers[S] != S)
      return Result::error("shard images in '" + Dir +
                           "' are not contiguous: missing shard " +
                           std::to_string(S));

  std::vector<ProfileStoreCache> Shards;
  Shards.reserve(Numbers.size());
  for (size_t S = 0; S < Numbers.size(); ++S) {
    std::string Path = shardFilePath(Dir, S);
    Expected<ProfileStoreCache> Cache = readProfileStoreImageFile(Path, Options);
    if (!Cache)
      return Result::error(Cache.message());
    if (!ExpectedKernelName.empty() &&
        Cache->KernelName != ExpectedKernelName)
      return Result::error("shard image '" + Path +
                           "' was built by kernel '" + Cache->KernelName +
                           "', expected '" + ExpectedKernelName + "'");
    Shards.push_back(Cache.take());
  }
  return Shards;
}
