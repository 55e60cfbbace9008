//===- perfbench/src/Serving.cpp - Serving-path machinery -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include "index/ClusterRouter.h"
#include "index/InvertedIndex.h"
#include "trace/StraceAdapter.h"
#include "util/Rng.h"
#include "workloads/CorpusIO.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <set>
#include <thread>

using namespace kast;

namespace kbench {

const BlendedSpectrumKernel &servingKernel() {
  static const BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true,
                                       /*CutWeight=*/2);
  return K;
}

RoutingOptions servingRouting() {
  RoutingOptions Options;
  Options.Cluster.TrainingSample = 2048;
  Options.Cluster.MaxIterations = 6;
  Options.MaxDocFrequency = 0.5;
  Options.RerankBudget = 96;
  Options.DefaultNProbe = 8;
  Options.QuantizedShortlist = true;
  return Options;
}

//===----------------------------------------------------------------------===//
// Front end
//===----------------------------------------------------------------------===//

WeightedString FrontEnd::convertTrace(const Trace &T) const {
  std::lock_guard<std::mutex> Lock(ConvertLock);
  if (!tracer::enabled())
    return P.convert(T);
  const PipelineOptions &O = P.options();
  PatternTree Tree = [&] {
    ScopedSpan S("tree.build");
    return buildTree(T, O.Builder);
  }();
  {
    ScopedSpan S("tree.compress");
    tracer::count("tree.compress_ratio", compressTree(Tree, O.Compressor).ratio());
  }
  ScopedSpan S("core.flatten");
  WeightedString W = flattenTree(Tree, P.table(), O.Flatten);
  W.setName(T.name());
  tracer::count("core.string_len", static_cast<double>(W.size()));
  return W;
}

std::optional<WeightedString> FrontEnd::convert(std::string_view Text,
                                                const std::string &Name) const {
  Expected<Trace> T = [&] {
    ScopedSpan S("trace.parse");
    Expected<Trace> Parsed = parseStrace(Text, Name);
    if (Parsed)
      tracer::count("trace.events", static_cast<double>(Parsed->size()));
    return Parsed;
  }();
  if (!T)
    return std::nullopt;
  return convertTrace(*T);
}

std::optional<KernelProfile> FrontEnd::profile(std::string_view Text) const {
  std::optional<WeightedString> W = convert(Text, "query");
  if (!W)
    return std::nullopt;
  ScopedSpan S("kernels.profile");
  KernelProfile Profile = servingKernel().profile(*W);
  tracer::count("kernels.profile_nnz", static_cast<double>(Profile.size()));
  return Profile;
}

bool FrontEnd::stagesMatchConvert(std::string_view Text) const {
  Expected<Trace> T = parseStrace(Text, "check");
  if (!T)
    return false;
  WeightedString Whole = [&] {
    std::lock_guard<std::mutex> Lock(ConvertLock);
    return P.convert(*T);
  }();
  const bool Was = tracer::enabled();
  tracer::setEnabled(true);
  WeightedString Staged = convertTrace(*T);
  tracer::setEnabled(Was);
  return Whole.literalIds() == Staged.literalIds() &&
         Whole.weights() == Staged.weights() && Whole.name() == Staged.name();
}

//===----------------------------------------------------------------------===//
// Set-up and restart
//===----------------------------------------------------------------------===//

SetupRuns setUp(Outcome &Out, const std::vector<LabeledTrace> &Bases,
                uint64_t Seed, size_t N, const std::string &Dir, size_t Runs) {
  SetupRuns R;
  for (size_t Run = 0; Run < Runs; ++Run) {
    R.Service.reset();
    R.P = std::make_unique<Pipeline>(Pipeline::withBytes());
    IndexServiceOptions Options;
    Options.Shards = 8;
    R.Service = std::make_unique<IndexService>(servingKernel().name(), Options);
    double Seconds = 0.0;
    for (size_t I = 0; I < N; ++I) {
      Trace T = mutantOf(Bases, Seed, Stream::Corpus, I, N, "c");
      const double Start = now();
      KernelProfile Profile = servingKernel().profile(R.P->convert(T));
      const double Added = now();
      R.Service->add(T.name(), Bases[baseOf(I, N, Bases.size())].Label,
                     Profile);
      const double End = now();
      Seconds += End - Start;
      R.AddUs.push_back((End - Added) * 1e6);
    }
    const double Rebuild = timed([&] {
      ScopedSpan S("index.rebuild_routing");
      R.Service->rebuildRouting(servingRouting(), 4);
    });
    Status Saved;
    const double Save = timed([&] {
      ScopedSpan S("workloads.image_save");
      Saved = writeShardedProfileImages(R.Service->toShardCaches(), Dir);
    });
    Out.check(Saved.ok(), "image save");
    R.Seconds.push_back(Seconds + Rebuild + Save);
    R.RebuildMs.push_back(Rebuild * 1e3);
    R.SaveMs.push_back(Save * 1e3);
  }
  return R;
}

RestartRuns restart(Outcome &Out, const std::string &Dir,
                    const KernelProfile &FirstQuery, size_t Runs) {
  RestartRuns R;
  for (size_t Run = 0; Run < Runs; ++Run) {
    R.Service.reset();
    const uint64_t Fits = kmeansFitCount();
    const uint64_t Rebuilds = postingRebuildCount();
    const double Start = now();
    Expected<std::vector<ProfileStoreCache>> Caches = [&] {
      ScopedSpan S("workloads.image_load");
      return loadShardedProfileImages(Dir, servingKernel().name());
    }();
    const double Loaded = now();
    Out.check(Caches.hasValue(), "image load");
    if (!Caches)
      return R;
    Expected<IndexService> Service = [&] {
      ScopedSpan S("index.restore");
      return IndexService::fromShardCaches(Caches.take());
    }();
    Out.check(Service.hasValue(), "restore from images");
    if (!Service)
      return R;
    R.Service = std::make_unique<IndexService>(Service.take());
    const double Restored = now();
    const size_t Hits =
        R.Service->queryApprox(FirstQuery, TopK, true, 0, 1).size();
    const double Answered = now();
    Out.check(Hits == TopK, "restarted service answers a top-5");
    R.LoadMs.push_back((Loaded - Start) * 1e3);
    R.RestoreMs.push_back((Restored - Loaded) * 1e3);
    R.TotalMs.push_back((Answered - Start) * 1e3);
    R.KmeansFits += kmeansFitCount() - Fits;
    R.PostingRebuilds += postingRebuildCount() - Rebuilds;
  }
  return R;
}

std::vector<KernelProfile> profileAll(Outcome &Out, const FrontEnd &FE,
                                      const std::vector<TextItem> &Texts) {
  std::vector<KernelProfile> Profiles;
  size_t Bad = 0;
  for (const TextItem &T : Texts) {
    std::optional<KernelProfile> P = FE.profile(T.Text);
    Bad += !P;
    Profiles.push_back(P ? std::move(*P) : KernelProfile());
  }
  Out.checkMany(Texts.size(), Bad, "query text -> profile");
  return Profiles;
}

ScanCosts timeScans(const IndexSnapshot &Snap,
                    const std::vector<KernelProfile> &Profiles) {
  ScanCosts C;
  for (const KernelProfile &P : Profiles) {
    const double Start = now();
    {
      ScopedSpan S("index.routed_query");
      C.Routed.push_back(Snap.queryApprox(P, TopK, true, 0, 1));
    }
    const double Mid = now();
    {
      ScopedSpan S("index.exact_query");
      C.Exact.push_back(Snap.query(P, TopK, true, 1));
    }
    C.RoutedUs.push_back((Mid - Start) * 1e6);
    C.ExactUs.push_back((now() - Mid) * 1e6);
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Open-loop load generation
//===----------------------------------------------------------------------===//

namespace {

/// One phase of Passes whole passes over the query set: open-loop
/// Poisson arrivals at Rate (queries/s), or, when Rate is 0, a closed
/// loop that keeps Window requests outstanding: one at a time with
/// Window 1, saturating with a Window above the batch size, so the
/// server's input never runs empty. A closed loop sends Window more
/// requests before the passes and Window more after them, a ramp and a
/// drain its figures leave out, so every measured request ran at the
/// full window.
struct PhaseSpec {
  std::string Name;
  double Rate = 0.0;
  size_t Passes = 1;
  size_t Window = 64;
};

/// Whole passes over \p Queries queries that fit \p Seconds at \p Qps;
/// at least one.
size_t passesFor(double Seconds, double Qps, size_t Queries) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(Seconds * Qps / Queries)));
}

enum SlotState : int { Pending = 0, Submitted = 1, FrontEndFailed = 2 };

/// One request in flight. The generator fills the plain fields before
/// releasing the slot; the front end publishes Future through State.
struct Slot {
  uint32_t Query = 0;
  double Due = 0.0, Sent = 0.0, SubmittedAt = 0.0, Done = 0.0;
  uint64_t SpanId = 0;
  std::atomic<int> State{Pending};
  std::future<QueryResponse> Future;
  QueryResponse Response;
};

} // namespace

/// Runs one phase against a fresh QueryServer over \p Service.
static PhaseResult runPhase(const IndexService &Service, const FrontEnd &FE,
                            const std::vector<TextItem> &Queries,
                            const PhaseSpec &Spec, uint64_t Seed) {
  const bool ClosedLoop = Spec.Rate <= 0.0;
  uint64_t State = Seed ^ (static_cast<uint64_t>(Stream::Load) << 56) ^
                   std::hash<std::string>()(Spec.Name);
  Rng R(splitMix64(State));

  // Poisson arrivals: exponential gaps at the offered rate.
  const size_t Count =
      Spec.Passes * Queries.size() + (ClosedLoop ? 2 * Spec.Window : 0);
  std::vector<double> Offsets;
  for (double T = 0.0; !ClosedLoop && Offsets.size() < Count;) {
    T += -std::log(1.0 - R.uniformReal()) / Spec.Rate;
    Offsets.push_back(T);
  }
  // Requests walk a seeded permutation of the query set, whole passes
  // of it, so each phase costs the mean over the query set and not over
  // whichever queries a random draw happened to favour.
  std::vector<uint32_t> Order(Queries.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = static_cast<uint32_t>(I);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.uniformInt(0, I - 1)]);
  std::vector<Slot> Slots(Count);
  for (size_t I = 0; I < Count; ++I)
    Slots[I].Query = Order[I % Order.size()];

  QueryServerOptions ServerOptions;
  ServerOptions.Overflow = OverflowPolicy::Reject;
  ServerOptions.ExecThreads = 1;
  ServerOptions.Approx = true;
  QueryServer Server(Service, ServerOptions);

  // Slots [0, Released) are ready for the front end; Stopped ends it
  // once every released request has completed.
  constexpr size_t Stopped = ~size_t(0);
  std::atomic<size_t> Released{0};
  // The front end signals each submission, so the generator can sleep
  // until the oldest request is submitted or the next one is due.
  std::mutex ProgressMutex;
  std::condition_variable Progress;
  size_t Next = 0, Oldest = 0;
  const double Start = now();
  {
    ScopedThread Front([&] {
      for (size_t K = 0;;) {
        const size_t Ready = Released.load(std::memory_order_acquire);
        if (Ready == Stopped)
          break;
        if (K == Ready) {
          Released.wait(Ready, std::memory_order_acquire);
          continue;
        }
        Slot &S = Slots[K++];
        tracer::setContext(S.SpanId, S.SpanId);
        std::optional<KernelProfile> Profile = [&] {
          ScopedSpan Span("frontend");
          return FE.profile(Queries[S.Query].Text);
        }();
        if (Profile) {
          S.SubmittedAt = now();
          S.Future = Server.submit(std::move(*Profile), TopK);
        }
        {
          std::lock_guard<std::mutex> Lock(ProgressMutex);
          S.State.store(Profile ? Submitted : FrontEndFailed,
                        std::memory_order_release);
        }
        Progress.notify_one();
      }
      tracer::setContext(0, 0);
    }, [&] {
      Released.store(Stopped, std::memory_order_release);
      Released.notify_one();
    });

    // Generator and collector: release each request at its due time and,
    // between releases, wait on the oldest outstanding response. Requests
    // complete in release order (one front end, one FIFO batcher), so the
    // oldest is the next to finish and its completion is stamped as soon
    // as its future is ready.
    for (;;) {
      const double T = now();
      double Deadline = T + 0.05;
      if (Next < Count && (!ClosedLoop || Next - Oldest < Spec.Window)) {
        const double Due = ClosedLoop ? T : Start + Offsets[Next];
        if (T >= Due) {
          Slot &S = Slots[Next];
          S.Due = Due;
          S.Sent = T;
          S.SpanId = tracer::enabled() ? tracer::newId() : 0;
          Released.store(++Next, std::memory_order_release);
          Released.notify_one();
          continue;
        }
        Deadline = Due;
      } else if (Oldest == Next) {
        break; // Everything released has completed.
      }
      if (Oldest == Next) {
        std::this_thread::sleep_until(instant(Deadline));
        continue;
      }
      Slot &S = Slots[Oldest];
      const int St = S.State.load(std::memory_order_acquire);
      if (St == Pending) {
        std::unique_lock<std::mutex> Lock(ProgressMutex);
        Progress.wait_until(Lock, instant(Deadline), [&] {
          return S.State.load(std::memory_order_acquire) != Pending;
        });
        continue;
      }
      if (St == Submitted &&
          S.Future.wait_until(instant(Deadline)) != std::future_status::ready)
        continue;
      S.Done = now();
      if (St == Submitted)
        S.Response = S.Future.get();
      if (S.SpanId) {
        tracer::record({S.SpanId, 0, S.SpanId, "request", S.Due, S.Done});
        if (St == Submitted)
          tracer::record({tracer::newId(), S.SpanId, S.SpanId, "runtime.serve",
                          S.SubmittedAt, S.Done});
      }
      ++Oldest;
    }
  } // Stops and joins the front end.
  Server.shutdown();

  PhaseResult Result;
  if (ClosedLoop && Spec.Window > 1) {
    // Completion rate of each block of Window completions between the
    // ramp and the drain; the median of them, so a burst of interference
    // on the host moves a few blocks, not the figure.
    const size_t W = Spec.Window, End = Count - W;
    for (size_t Last = 2 * W - 1; Last < End; Last += W)
      Result.BlockRates.push_back(static_cast<double>(W) /
                                  (Slots[Last].Done - Slots[Last - W].Done));
  }
  Result.Stats = Server.stats().snapshot();
  Result.Requests.reserve(Next);
  for (size_t I = 0; I < Next; ++I) {
    Slot &S = Slots[I];
    const bool Ok = S.State.load() == Submitted &&
                    S.Response.Status == ServeStatus::Ok;
    Result.Requests.push_back(
        {S.Query, S.Due, S.Sent, S.Done, Ok, std::move(S.Response.Hits)});
  }
  return Result;
}

std::vector<double> PhaseResult::latenciesMs() const {
  std::vector<double> Ms;
  for (const RequestRecord &Q : Requests)
    if (Q.Ok)
      Ms.push_back((Q.Done - Q.Due) * 1e3);
  return Ms;
}

std::vector<double> PhaseResult::lateMs() const {
  std::vector<double> Ms;
  for (const RequestRecord &Q : Requests)
    Ms.push_back((Q.Sent - Q.Due) * 1e3);
  return Ms;
}

size_t PhaseResult::failed() const {
  size_t Bad = 0;
  for (const RequestRecord &Q : Requests)
    Bad += !Q.Ok;
  return Bad;
}

/// Rounds of the unloaded and the saturated measurement. Each query's
/// unloaded latency is the median of its rounds, so a request the host
/// happened to stall is outvoted.
constexpr size_t Rounds = 3;

/// Per query, the median latency over the unloaded rounds (the ramp
/// request before each pass and the drain request after it left out).
static std::vector<double>
unloadedLatenciesMs(const std::vector<PhaseResult> &Unloaded) {
  std::map<uint32_t, std::vector<double>> ByQuery;
  for (const PhaseResult &P : Unloaded)
    for (size_t I = 1; I + 1 < P.Requests.size(); ++I)
      if (P.Requests[I].Ok)
        ByQuery[P.Requests[I].Query].push_back(
            (P.Requests[I].Done - P.Requests[I].Due) * 1e3);
  std::vector<double> Ms;
  for (auto &[Query, Values] : ByQuery)
    Ms.push_back(median(std::move(Values)));
  return Ms;
}

std::vector<const PhaseResult *> ServingPhases::all() const {
  std::vector<const PhaseResult *> All{&Low, &High};
  for (const std::vector<PhaseResult> *Rs : {&Unloaded, &Saturate})
    for (const PhaseResult &R : *Rs)
      All.push_back(&R);
  return All;
}

ServingPhases runPhases(const IndexService &Service, const FrontEnd &FE,
                        const std::vector<TextItem> &Queries, double LowQps,
                        double HighQps, double NominalCapacityQps,
                        double Seconds, uint64_t Seed) {
  const size_t N = Queries.size();
  const size_t SaturatePasses = passesFor(0.1 * Seconds, NominalCapacityQps, N);
  ServingPhases P;
  // Round R of the unloaded and the saturated measurement, then the
  // open-loop phase that follows it.
  for (size_t R = 0; R < Rounds; ++R) {
    const std::string Round = std::to_string(R);
    P.Unloaded.push_back(runPhase(Service, FE, Queries,
                                  {"unloaded-" + Round, 0.0, 1, 1}, Seed));
    P.Saturate.push_back(
        runPhase(Service, FE, Queries,
                 {"saturate-" + Round, 0.0, SaturatePasses}, Seed));
    if (R == 0)
      P.Low = runPhase(Service, FE, Queries,
                       {"low", LowQps, passesFor(0.35 * Seconds, LowQps, N)},
                       Seed);
    else if (R == 1)
      P.High = runPhase(Service, FE, Queries,
                        {"high", HighQps, passesFor(0.3 * Seconds, HighQps, N)},
                        Seed);
  }
  return P;
}

double ScanCosts::recallAt5() const {
  double Sum = 0.0;
  for (size_t I = 0; I < Exact.size(); ++I) {
    std::set<std::string> Names;
    for (const ServiceHit &H : Exact[I])
      Names.insert(H.Name);
    size_t Found = 0;
    for (const ServiceHit &H : Routed[I])
      Found += Names.count(H.Name);
    Sum += Names.empty() ? 1.0
                         : static_cast<double>(Found) /
                               static_cast<double>(Names.size());
  }
  return Exact.empty() ? 0.0 : Sum / static_cast<double>(Exact.size());
}

void reportServing(Outcome &Out, const ServingPhases &P,
                   const std::vector<TextItem> &Queries, double SloMs) {
  const std::vector<double> UnloadedMs = unloadedLatenciesMs(P.Unloaded);
  const Summary U = summarize(UnloadedMs);
  Out.reportTiming("latency", "_ms", U, "ms");
  Out.reportTiming("query", "_ms_low", summarize(P.Low.latenciesMs()), "ms");
  Out.reportTiming("query", "_ms_high", summarize(P.High.latenciesMs()), "ms");

  size_t Missed = P.High.failed();
  for (double Ms : P.High.latenciesMs())
    Missed += Ms > SloMs;
  const double Attempted = static_cast<double>(P.High.Requests.size());
  Out.report("slo_limit_ms", SloMs, "ms");
  Out.report("slo_miss_frac", Attempted ? Missed / Attempted : 0.0, "frac");
  std::vector<double> BlockRates;
  for (const PhaseResult &R : P.Saturate)
    BlockRates.insert(BlockRates.end(), R.BlockRates.begin(),
                      R.BlockRates.end());
  Out.report("throughput_per_s", median(std::move(BlockRates)), "1/s");

  // The user-visible classification: the top-5 majority label against
  // the query's true category, over every answered request.
  size_t Right = 0, Answered = 0;
  for (const PhaseResult *Phase : P.all()) {
    Out.checkMany(Phase->Requests.size(), Phase->failed(),
                  "served queries (rejected or failed)");
    for (const RequestRecord &Q : Phase->Requests)
      if (Q.Ok) {
        ++Answered;
        Right += IndexSnapshot::majorityLabel(Q.Hits) == Queries[Q.Query].Label;
      }
  }
  const double Accuracy =
      Answered ? static_cast<double>(Right) / static_cast<double>(Answered)
               : 0.0;
  Out.report("label_accuracy", Accuracy, "frac");

  std::vector<double> Late = P.Low.lateMs();
  for (double Ms : P.High.lateMs())
    Late.push_back(Ms);
  Out.report("loadgen.late_p99_ms", quantile(Late, 0.99), "ms");
  const ServerStats::Snapshot &S = P.High.Stats;
  Out.report("runtime.queue_wait_us_p50", S.QueueWaitNs.P50 / 1e3, "us");
  Out.report("runtime.queue_wait_us_p99", S.QueueWaitNs.P99 / 1e3, "us");
  Out.report("runtime.execute_us_p50", S.ExecuteNs.P50 / 1e3, "us");
  Out.report("runtime.execute_us_p99", S.ExecuteNs.P99 / 1e3, "us");
  Out.report("runtime.batch_size", S.BatchSize.Mean, "count");
  uint64_t Rejected = 0;
  for (const PhaseResult *Phase : P.all())
    Rejected += Phase->Stats.Rejected;
  Out.report("runtime.rejected", static_cast<double>(Rejected), "count");
}

void reportIndexLayers(Outcome &Out, const SetupRuns &Setup,
                       const RestartRuns &Restarts, const ScanCosts &Scans,
                       const IndexSnapshot &Final) {
  Out.report("index.routed_query_us", median(Scans.RoutedUs), "us");
  Out.report("index.exact_query_us", median(Scans.ExactUs), "us");
  Out.report("index.routed_shards",
             static_cast<double>(Final.routedShardCount()), "count");
  Out.report("index.tombstone_debt",
             static_cast<double>(Final.entryCount() - Final.size()), "count");
  Out.report("workloads.image_save_ms", median(Setup.SaveMs), "ms");
  Out.report("workloads.image_load_ms", median(Restarts.LoadMs), "ms");
  Out.report("index.restore_ms", median(Restarts.RestoreMs), "ms");
  Out.report("index.kmeans_fits", static_cast<double>(Restarts.KmeansFits),
             "count");
  Out.report("index.posting_rebuilds",
             static_cast<double>(Restarts.PostingRebuilds), "count");
}

void checkTracing(Outcome &Out, const FrontEnd &FE,
                  const std::vector<TextItem> &Queries,
                  const IndexSnapshot &Snap) {
  size_t Differ = 0;
  for (const TextItem &Q : Queries)
    Differ += !FE.stagesMatchConvert(Q.Text);
  Out.checkMany(Queries.size(), Differ, "traced stages == Pipeline::convert");

  // Alternate untraced and traced passes and keep each side's fastest,
  // so a one-off stall does not land on either side.
  auto Pass = [&](bool Traced) {
    tracer::setEnabled(Traced);
    return timed([&] {
      for (const TextItem &Q : Queries)
        if (std::optional<KernelProfile> P = FE.profile(Q.Text))
          (void)Snap.queryApprox(*P, TopK, true, 0, 1);
    });
  };
  double Plain = 1e30, Traced = 1e30;
  for (int Round = 0; Round < 3; ++Round) {
    Plain = std::min(Plain, Pass(false));
    Traced = std::min(Traced, Pass(true));
  }
  Out.report("tracing.overhead_pct", 100.0 * (Traced - Plain) / Plain, "%");
}

void reportFrontEndLayers(Outcome &Out, const TraceTables &T) {
  Out.report("trace.parse_us", T.medianSelf("trace.parse") * 1e6, "us");
  Out.report("trace.events", T.medianCount("trace.events"), "count");
  Out.report("tree.build_us", T.medianSelf("tree.build") * 1e6, "us");
  Out.report("tree.compress_us", T.medianSelf("tree.compress") * 1e6, "us");
  Out.report("tree.compress_ratio", T.medianCount("tree.compress_ratio"),
             "ratio");
  Out.report("core.flatten_us", T.medianSelf("core.flatten") * 1e6, "us");
  Out.report("core.string_len", T.medianCount("core.string_len"), "count");
  Out.report("kernels.profile_us", T.medianSelf("kernels.profile") * 1e6, "us");
  Out.report("kernels.profile_nnz", T.medianCount("kernels.profile_nnz"),
             "count");
}

} // namespace kbench
