//===- perfbench/src/Serving.h - Serving-path machinery ---------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What serve_routed and ingest_mixed share: the request front end
/// (strace text -> query profile), the bulk build that set-up times,
/// the restart from the v4 flat image, and the open-loop load
/// generator that drives a QueryServer.
///
/// Threads: the calling thread is the generator and also collects
/// completions; one front-end thread parses, converts, profiles and
/// submits; the QueryServer batcher executes with ExecThreads = 1.
/// ingest_mixed adds one writer thread. That is at most four threads
/// doing work, one per core of the 4-core reference host.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_PERFBENCH_SERVING_H
#define KAST_PERFBENCH_SERVING_H

#include "Bench.h"
#include "Inputs.h"

#include "core/Pipeline.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "runtime/QueryServer.h"

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kbench {

/// Neighbours per query: the top-5 the serving path answers with.
constexpr size_t TopK = 5;

/// The serving kernel (weighted blended spectrum, k = 3, cut weight 2).
const kast::BlendedSpectrumKernel &servingKernel();

/// The routing knobs bench/perf_serving uses for a serving deployment:
/// nprobe 8, df cut 0.5, re-rank budget 96, quantized shortlist.
kast::RoutingOptions servingRouting();

/// strace text -> weighted string -> serving profile. A Pipeline interns tokens into one
/// shared table and is not safe for concurrent use, so conversion runs
/// under a lock the front end and the ingest writer share. Untraced,
/// conversion is one Pipeline::convert call; traced, it calls the
/// stages convert composes (buildTree, compressTree, flattenTree) so
/// each gets its own span.
class FrontEnd {
public:
  explicit FrontEnd(const kast::Pipeline &P) : P(P) {}

  std::optional<kast::WeightedString> convert(std::string_view Text,
                                              const std::string &Name) const;
  std::optional<kast::KernelProfile> profile(std::string_view Text) const;

  /// Stage-by-stage conversion (the traced path) must equal
  /// Pipeline::convert; \returns false on any difference.
  bool stagesMatchConvert(std::string_view Text) const;

private:
  kast::WeightedString convertTrace(const kast::Trace &T) const;

  const kast::Pipeline &P;
  mutable std::mutex ConvertLock; ///< Guards P's token table.
};

/// Set-up, run several times from scratch: \p N corpus mutants of the
/// bases -> Pipeline::convert -> profile -> IndexService::add (8 shards)
/// -> rebuildRouting on 4 threads -> v4 flat images. Input generation is
/// not timed. The last build is kept, its pipeline because query
/// profiles must come from the token table the index was built with.
struct SetupRuns {
  std::unique_ptr<kast::Pipeline> P;
  std::unique_ptr<kast::IndexService> Service;
  std::vector<double> Seconds; ///< Program time per set-up.
  std::vector<double> AddUs, RebuildMs, SaveMs;
};
SetupRuns setUp(Outcome &Out, const std::vector<kast::LabeledTrace> &Bases,
                uint64_t Seed, size_t N, const std::string &Dir, size_t Runs);

/// Restarts from the images in \p Dir, several times: open the images
/// (mapped) -> IndexService::fromShardCaches -> first top-5 answered.
/// The last restarted service is kept; it is null if a restart failed.
struct RestartRuns {
  std::unique_ptr<kast::IndexService> Service;
  std::vector<double> TotalMs, LoadMs, RestoreMs;
  uint64_t KmeansFits = 0, PostingRebuilds = 0;
};
RestartRuns restart(Outcome &Out, const std::string &Dir,
                    const kast::KernelProfile &FirstQuery, size_t Runs);

/// Query texts -> profiles; a text the front end rejects is a failure.
std::vector<kast::KernelProfile> profileAll(Outcome &Out, const FrontEnd &FE,
                                            const std::vector<TextItem> &Texts);

/// One synchronous routed and exact top-5 per profile on \p Snap.
struct ScanCosts {
  std::vector<std::vector<kast::ServiceHit>> Routed, Exact;
  std::vector<double> RoutedUs, ExactUs;
  /// Mean share of the exact top-5 names the routed top-5 found.
  double recallAt5() const;
};
ScanCosts timeScans(const kast::IndexSnapshot &Snap,
                    const std::vector<kast::KernelProfile> &Profiles);

/// One request of a phase, as the generator saw it.
struct RequestRecord {
  uint32_t Query = 0;
  double Due = 0.0;  ///< Scheduled send time.
  double Sent = 0.0; ///< When the generator released it.
  double Done = 0.0;
  bool Ok = false;
  std::vector<kast::ServiceHit> Hits;
};

struct PhaseResult {
  std::vector<RequestRecord> Requests;
  kast::ServerStats::Snapshot Stats;
  /// Closed loop: completions per second of each block of Window
  /// completions between the ramp and the drain.
  std::vector<double> BlockRates;

  /// Latency from the scheduled send time, in ms, of requests that
  /// completed Ok.
  std::vector<double> latenciesMs() const;
  std::vector<double> lateMs() const;
  size_t failed() const;
};

/// The phases a serving workload runs: one request at a time (nothing
/// queues, so latency is the path's own cost), open loop at the low and
/// at the high rate, and saturated. The unloaded and the saturated
/// measurements are split into rounds, each against its own QueryServer
/// and spread over the run between the open-loop phases, so a spell of
/// interference on the host, or an unlucky placement of the batcher
/// thread, moves one round and not the figure.
struct ServingPhases {
  std::vector<PhaseResult> Unloaded, Saturate; ///< One per round.
  PhaseResult Low, High;

  std::vector<const PhaseResult *> all() const;
};

/// Runs the four phases over \p Queries, sized to fill \p Seconds.
ServingPhases runPhases(const kast::IndexService &Service, const FrontEnd &FE,
                        const std::vector<TextItem> &Queries, double LowQps,
                        double HighQps, double NominalCapacityQps,
                        double Seconds, uint64_t Seed);

/// Results the serving workloads report the same way: latency unloaded
/// and at the low and high rates, SLO misses, capacity, label accuracy,
/// and the runtime's own histograms.
void reportServing(Outcome &Out, const ServingPhases &P,
                   const std::vector<TextItem> &Queries, double SloMs);

/// Per-layer metrics of set-up, restart and the synchronous scans.
void reportIndexLayers(Outcome &Out, const SetupRuns &Setup,
                       const RestartRuns &Restarts, const ScanCosts &Scans,
                       const kast::IndexSnapshot &Final);

/// Traced run only: stage-by-stage conversion must equal
/// Pipeline::convert on every query text, and the traced text -> top-5
/// path is timed against the untraced one (tracing.overhead_pct).
void checkTracing(Outcome &Out, const FrontEnd &FE,
                  const std::vector<TextItem> &Queries,
                  const kast::IndexSnapshot &Snap);

/// Per-layer metrics of the request front end from the span tables.
void reportFrontEndLayers(Outcome &Out, const TraceTables &T);

} // namespace kbench

#endif // KAST_PERFBENCH_SERVING_H
