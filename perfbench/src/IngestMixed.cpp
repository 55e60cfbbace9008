//===- perfbench/src/IngestMixed.cpp - Writes beside reads ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// ingest_mixed: about 2k long traces (256 bases, Scale = 64, some 5k
// syscalls each) in an 8-shard service routed at set-up, so a shard
// holds about 256 entries, where routed and exact retrieval cost about
// the same. Queries arrive open-loop while one writer ingests strace
// texts at a fixed rate, removes the oldest past a live window (so
// tombstones build up) and rebuilds routing every fixed number of adds.
// Per request trace -> tree -> string -> profile does most of the work
// and the index little, so pipeline changes show here and index changes
// should not; the periodic rebuilds expose background-work spikes that a
// median hides.
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include <atomic>
#include <deque>
#include <thread>
#include <unordered_set>

using namespace kast;

namespace kbench {

namespace {

// Many bases keep the mean per-trace cost, and so every timing, from
// swinging with the seed: long traces differ a lot in conversion cost.
constexpr CorpusShape Shape{64, 64, 64, 64, /*Scale=*/64};
constexpr size_t CorpusSize = 2048;
constexpr size_t QueryCount = 256;
constexpr size_t IngestPool = 256;
constexpr size_t SetupCount = 2;
constexpr size_t RestartCount = 3;
// Fixed from the measured front end: about 6 ms per query text, most of
// it parseStrace, for a capacity near 140 queries/s beside the writer
// (which also sizes the saturating phase). The low rate loads it to
// about 0.3, the high rate to about 0.6.
constexpr double LowQps = 40.0;
constexpr double HighQps = 80.0;
constexpr double NominalCapacityQps = 140.0;
constexpr double SloMs = 60.0;
// The writer: adds per second, live ingested entries kept, and adds
// between routing rebuilds.
constexpr double AddQps = 20.0;
constexpr size_t LiveWindow = 64;
constexpr size_t RebuildEvery = 100;

/// Names of every live entry in \p Snap (an exact query asking for all
/// of them).
std::unordered_set<std::string> liveNames(const IndexSnapshot &Snap,
                                          const KernelProfile &Any) {
  std::unordered_set<std::string> Names;
  for (ServiceHit &H : Snap.query(Any, Snap.size(), true, 1))
    Names.insert(std::move(H.Name));
  return Names;
}

struct WriterLog {
  std::vector<double> VisibleMs, AddUs, RemoveUs, RebuildMs, LateMs;
  size_t Ops = 0, Bad = 0;
  std::deque<std::string> Live;
  std::vector<std::string> Removed;
};

/// The ingest writer: add at a fixed rate, remove past the live window,
/// rebuild routing every RebuildEvery adds, and check after each write
/// that a fresh snapshot shows it.
void runWriter(IndexService &Service, const FrontEnd &FE,
               const std::vector<TextItem> &Pool, const std::atomic<bool> &Stop,
               WriterLog &Log) {
  const double Start = now();
  for (size_t J = 0; !Stop.load(std::memory_order_acquire); ++J) {
    const double Due = Start + static_cast<double>(J) / AddQps;
    std::this_thread::sleep_until(instant(Due));
    Log.LateMs.push_back((now() - Due) * 1e3);
    const TextItem &Item = Pool[J % Pool.size()];
    const std::string Name = "i" + std::to_string(J);
    tracer::setContext(tracer::enabled() ? tracer::newId() : 0, 0);
    ScopedSpan Request("ingest");
    ++Log.Ops;
    std::optional<WeightedString> W = FE.convert(Item.Text, Name);
    if (!W) {
      ++Log.Bad;
      continue;
    }
    KernelProfile Profile = [&] {
      ScopedSpan S("kernels.profile");
      return servingKernel().profile(*W);
    }();
    const double AddStart = now();
    {
      ScopedSpan S("index.add");
      Service.add(Name, Item.Label, Profile);
    }
    const double Added = now();
    Log.AddUs.push_back((Added - AddStart) * 1e6);
    Log.VisibleMs.push_back((Added - Due) * 1e3);
    Log.Bad += liveNames(Service.snapshot(), Profile).count(Name) != 1;
    Log.Live.push_back(Name);

    if (Log.Live.size() > LiveWindow) {
      std::string Victim = std::move(Log.Live.front());
      Log.Live.pop_front();
      ++Log.Ops;
      const double RemoveStart = now();
      size_t Removed = [&] {
        ScopedSpan S("index.remove");
        return Service.remove(Victim);
      }();
      Log.RemoveUs.push_back((now() - RemoveStart) * 1e6);
      Log.Bad += Removed != 1 ||
                 liveNames(Service.snapshot(), Profile).count(Victim) != 0;
      Log.Removed.push_back(std::move(Victim));
    }
    if ((J + 1) % RebuildEvery == 0) {
      ++Log.Ops;
      Log.RebuildMs.push_back(1e3 * timed([&] {
        ScopedSpan S("index.rebuild_routing");
        Service.rebuildRouting(servingRouting(), 1);
      }));
    }
  }
}

} // namespace

Outcome runIngestMixed(const RunConfig &C) {
  Outcome Out;
  const std::vector<LabeledTrace> Bases = makeBases(Shape, C.Seed);
  const std::vector<TextItem> Queries =
      makeTexts(Bases, C.Seed, Stream::Query, QueryCount, "q", Out);
  const std::vector<TextItem> Pool =
      makeTexts(Bases, C.Seed, Stream::Ingest, IngestPool, "i", Out);

  SetupRuns Setup = setUp(Out, Bases, C.Seed, CorpusSize, C.WorkDir, SetupCount);
  Setup.Service.reset();
  FrontEnd FE(*Setup.P);
  const std::vector<KernelProfile> Profiles = profileAll(Out, FE, Queries);
  RestartRuns Restarts = restart(Out, C.WorkDir, Profiles.front(), RestartCount);
  if (!Restarts.Service)
    return Out;
  IndexService &Service = *Restarts.Service;
  const ScanCosts Scans = timeScans(Service.snapshot(), Profiles);

  // The measured phase: the serving phases with the writer beside them.
  WriterLog Log;
  std::atomic<bool> Stop{false};
  ServingPhases Phases;
  {
    ScopedThread Writer([&] { runWriter(Service, FE, Pool, Stop, Log); },
                        [&] { Stop.store(true, std::memory_order_release); });
    Phases = runPhases(Service, FE, Queries, LowQps, HighQps,
                       NominalCapacityQps, C.Seconds, C.Seed);
  }

  for (const PhaseResult *P : Phases.all()) {
    size_t Short = 0, Ok = 0;
    for (const RequestRecord &Q : P->Requests)
      if (Q.Ok) {
        ++Ok;
        Short += Q.Hits.size() != TopK;
      }
    Out.checkMany(Ok, Short, "served answer has top-5 hits");
  }
  Out.checkMany(Log.Ops, Log.Bad,
                "ingest writes (visible after add, absent after remove)");

  // Quiesced: the final snapshot holds exactly the corpus plus the live
  // window, and no removed name.
  const IndexSnapshot Final = Service.snapshot();
  {
    std::unordered_set<std::string> Names = liveNames(Final, Profiles.front());
    size_t Missing = 0, Stale = 0;
    for (const std::string &N : Log.Live)
      Missing += Names.count(N) != 1;
    for (const std::string &N : Log.Removed)
      Stale += Names.count(N) != 0;
    Out.check(Final.size() == CorpusSize + Log.Live.size(),
              "final live count");
    Out.checkMany(Log.Live.size(), Missing, "live ingests in final snapshot");
    Out.checkMany(Log.Removed.size(), Stale, "removed names in final snapshot");
  }

  reportServing(Out, Phases, Queries, SloMs);
  Out.reportTiming("visible", "_ms", summarize(Log.VisibleMs), "ms");
  Out.report("restart_ms", median(Restarts.TotalMs), "ms");
  Out.report("recall_at5", timeScans(Final, Profiles).recallAt5(), "frac");
  Out.report("setup_s", median(Setup.Seconds), "s");

  reportIndexLayers(Out, Setup, Restarts, Scans, Final);
  Out.report("index.add_us", median(Log.AddUs), "us");
  Out.report("index.remove_us", median(Log.RemoveUs), "us");
  Out.report("index.rebuild_routing_ms", median(Log.RebuildMs), "ms");
  if (C.Traced)
    checkTracing(Out, FE, Queries, Final);
  return Out;
}

} // namespace kbench
