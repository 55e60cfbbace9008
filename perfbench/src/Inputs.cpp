//===- perfbench/src/Inputs.cpp - Seeded benchmark inputs -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "trace/StraceAdapter.h"
#include "util/Rng.h"

#include <cstdio>
#include <map>

using namespace kast;

namespace kbench {

std::vector<LabeledTrace> makeBases(const CorpusShape &Shape, uint64_t Seed) {
  CorpusOptions Options;
  Options.BaseA = Shape.BasesA;
  Options.BaseB = Shape.BasesB;
  Options.BaseC = Shape.BasesC;
  Options.BaseD = Shape.BasesD;
  Options.CopiesPerBase = 0;
  Options.Seed = Seed;
  Options.Generator.Scale = Shape.Scale;
  return generateCorpus(Options);
}

Trace mutantOf(const std::vector<LabeledTrace> &Bases, uint64_t Seed, Stream S,
               size_t Index, size_t Count, const std::string &Prefix) {
  uint64_t State = Seed ^ (static_cast<uint64_t>(S) << 56) ^ Index;
  Rng R(splitMix64(State));
  Trace T = mutateTrace(Bases[baseOf(Index, Count, Bases.size())].T, R);
  T.setName(Prefix + std::to_string(Index));
  return T;
}

std::string renderStrace(const Trace &T) {
  std::string Text;
  Text.reserve(T.size() * 56);
  std::map<uint64_t, uint64_t> Offset;
  char Line[160];
  uint64_t Micros = 0;
  auto Stamp = [&] {
    Micros += 7 + (Micros % 13);
    int N = std::snprintf(Line, sizeof(Line), "10:%02llu:%02llu.%06llu ",
                          static_cast<unsigned long long>(Micros / 60000000 % 60),
                          static_cast<unsigned long long>(Micros / 1000000 % 60),
                          static_cast<unsigned long long>(Micros % 1000000));
    Text.append(Line, static_cast<size_t>(N));
  };
  size_t Index = 0;
  for (const TraceEvent &E : T.events()) {
    const unsigned long long H = E.Handle, B = E.Bytes;
    int N = 0;
    // Syscalls the adapter must skip, as a real strace log has them.
    if (++Index % 16 == 0) {
      Stamp();
      N = std::snprintf(Line, sizeof(Line),
                        "fstat(%llu, {st_mode=S_IFREG|0644, st_size=%llu, "
                        "...}) = 0\n",
                        H, static_cast<unsigned long long>(Offset[H]));
      Text.append(Line, static_cast<size_t>(N));
    }
    Stamp();
    if (E.Op == "open") {
      Offset[H] = 0;
      N = std::snprintf(Line, sizeof(Line),
                        "openat(AT_FDCWD, \"/data/job/f%llu.dat\", "
                        "O_RDWR|O_CREAT, 0644) = %llu\n",
                        H, H);
    } else if (E.Op == "read" || E.Op == "write") {
      Offset[H] += B;
      N = std::snprintf(Line, sizeof(Line),
                        "%s(%llu, \"\\0\\0\\0\\0\"..., %llu) = %llu\n",
                        E.Op.c_str(), H, B, B);
    } else if (E.Op == "lseek") {
      unsigned long long To = (Offset[H] * 7 + 4096) % (1ull << 30);
      Offset[H] = To;
      N = std::snprintf(Line, sizeof(Line),
                        "lseek(%llu, %llu, SEEK_SET) = %llu\n", H, To, To);
    } else {
      // fsync and close. Generated traces use no other call; one would
      // be skipped by the adapter and fail the round trip.
      N = std::snprintf(Line, sizeof(Line), "%s(%llu) = 0\n", E.Op.c_str(),
                        H);
    }
    Text.append(Line, static_cast<size_t>(N));
  }
  return Text;
}

bool roundTrips(const Trace &T, const std::string &Text) {
  Expected<Trace> Parsed = parseStrace(Text, T.name());
  if (!Parsed || Parsed->size() != T.size())
    return false;
  for (size_t I = 0; I < T.size(); ++I) {
    const TraceEvent &A = T.events()[I], &B = Parsed->events()[I];
    if (A.Op != B.Op || A.Handle != B.Handle || A.Bytes != B.Bytes)
      return false;
  }
  return true;
}

std::vector<TextItem> makeTexts(const std::vector<LabeledTrace> &Bases,
                                uint64_t Seed, Stream S, size_t Count,
                                const std::string &Prefix, Outcome &Out) {
  std::vector<TextItem> Items;
  Items.reserve(Count);
  size_t Bad = 0;
  for (size_t I = 0; I < Count; ++I) {
    Trace T = mutantOf(Bases, Seed, S, I, Count, Prefix);
    std::string Text = renderStrace(T);
    Bad += !roundTrips(T, Text);
    Items.push_back({T.name(), Bases[baseOf(I, Count, Bases.size())].Label,
                     std::move(Text)});
  }
  Out.checkMany(Count, Bad, "strace round trip of " + Prefix + " inputs");
  return Items;
}

} // namespace kbench
