//===- perfbench/src/ServeRouted.cpp - Read-only routed serving -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// serve_routed: read-only serving at scale. About 32k short traces
// (320 bases, Scale = 1) are built into an 8-shard routed IndexService,
// saved as v4 flat images and restarted from the mapped images; strace
// text queries then arrive open-loop at a low and a high fixed rate,
// followed by a saturating phase. Per request the routed index does
// almost all the work (about 2 ms against 0.1 ms for text -> profile),
// so routed-tier changes show here and pipeline changes should not.
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

using namespace kast;

namespace kbench {

namespace {

// Many bases keep the mean per-query cost, and so every timing, from
// swinging with the seed. One query per base: every base and every
// category is asked for, and the query set is one pass of the low phase.
constexpr CorpusShape Shape{80, 80, 80, 80, /*Scale=*/1};
constexpr size_t CorpusSize = 32000;
constexpr size_t QueryCount = 320;
constexpr size_t SetupCount = 2;
constexpr size_t RestartCount = 5;
// Offered rates and the latency limit, fixed in absolute terms from the
// measured capacity of 350 to 550 queries/s on one batcher thread (the
// nominal figure also sizes the saturating phase): the low rate loads
// it to at most about 0.17, the high rate to at most about 0.4.
constexpr double LowQps = 60.0;
constexpr double HighQps = 140.0;
constexpr double NominalCapacityQps = 350.0;
constexpr double SloMs = 50.0;

} // namespace

Outcome runServeRouted(const RunConfig &C) {
  Outcome Out;
  const std::vector<LabeledTrace> Bases = makeBases(Shape, C.Seed);
  const std::vector<TextItem> Queries =
      makeTexts(Bases, C.Seed, Stream::Query, QueryCount, "q", Out);

  // Set-up several times from scratch, then restart from the images of
  // the last build several times; the last restart serves.
  SetupRuns Setup = setUp(Out, Bases, C.Seed, CorpusSize, C.WorkDir, SetupCount);
  FrontEnd FE(*Setup.P);
  const std::vector<KernelProfile> Profiles = profileAll(Out, FE, Queries);
  std::vector<std::vector<ServiceHit>> PreSave;
  {
    const IndexSnapshot Built = Setup.Service->snapshot();
    for (const KernelProfile &P : Profiles)
      PreSave.push_back(Built.queryApprox(P, TopK, true, 0, 1));
  }
  Setup.Service.reset();
  RestartRuns Restarts = restart(Out, C.WorkDir, Profiles.front(), RestartCount);
  if (!Restarts.Service)
    return Out;
  const IndexService &Service = *Restarts.Service;
  const IndexSnapshot Snap = Service.snapshot();

  // The restored images must answer as the service they were saved from,
  // and every served answer must reproduce the synchronous routed answer
  // on this read-only snapshot bit for bit.
  const ScanCosts Scans = timeScans(Snap, Profiles);
  size_t RestoreMismatch = 0;
  for (size_t I = 0; I < Profiles.size(); ++I)
    RestoreMismatch += Scans.Routed[I] != PreSave[I];
  Out.checkMany(Profiles.size(), RestoreMismatch,
                "restored image answers as the pre-save service");
  const std::vector<std::vector<ServiceHit>> &Expected = Scans.Routed;

  const ServingPhases Phases =
      runPhases(Service, FE, Queries, LowQps, HighQps, NominalCapacityQps,
                C.Seconds, C.Seed);
  for (const PhaseResult *P : Phases.all()) {
    size_t Wrong = 0, Ok = 0;
    for (const RequestRecord &Q : P->Requests)
      if (Q.Ok) {
        ++Ok;
        Wrong += Q.Hits != Expected[Q.Query];
      }
    Out.checkMany(Ok, Wrong, "served answer == snapshot().queryApprox");
  }

  reportServing(Out, Phases, Queries, SloMs);
  Out.report("restart_ms", median(Restarts.TotalMs), "ms");
  Out.report("recall_at5", Scans.recallAt5(), "frac");
  Out.report("setup_s", median(Setup.Seconds), "s");
  Out.report("corpus_size", static_cast<double>(Snap.size()), "count");

  reportIndexLayers(Out, Setup, Restarts, Scans, Snap);
  Out.report("index.add_us", median(Setup.AddUs), "us");
  Out.report("index.rebuild_routing_ms", median(Setup.RebuildMs), "ms");
  if (C.Traced)
    checkTracing(Out, FE, Queries, Snap);
  return Out;
}

} // namespace kbench
