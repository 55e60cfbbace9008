//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the clock,
/// order statistics, the per-run Outcome (answer checks and every metric
/// the run measured), and the span
/// tracer the traced run records around each call into a library layer.
///
/// Spans live only in this benchmark's code: a span wraps one public
/// library call (parseStrace, buildTree, IndexSnapshot::query, ...), so
/// the library itself is timed from outside and never changed.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_PERFBENCH_BENCH_H
#define KAST_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace kbench {

/// Seconds on the monotonic clock since the first call in the process.
double now();

/// The steady_clock instant \p Seconds after now()'s epoch.
std::chrono::steady_clock::time_point instant(double Seconds);

/// Runs \p Fn and returns its wall time in seconds.
template <typename Fn> double timed(Fn &&F) {
  double Start = now();
  F();
  return now() - Start;
}

/// Owns a worker thread: on every way out of its scope, including an
/// exception, it runs Stop (which must make the thread return) and joins.
class ScopedThread {
public:
  template <typename Body, typename StopFn>
  ScopedThread(Body &&B, StopFn &&S)
      : Stop(std::forward<StopFn>(S)), T(std::forward<Body>(B)) {}
  ~ScopedThread() {
    Stop();
    T.join();
  }
  ScopedThread(const ScopedThread &) = delete;
  ScopedThread &operator=(const ScopedThread &) = delete;

private:
  std::function<void()> Stop;
  std::thread T; ///< Declared last: starts after Stop is set.
};

/// The \p Q quantile (0..1) by nearest rank; 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// A timing as the choosing-metrics rule wants it: the median and the
/// highest percentile with at least ten samples beyond it (the maximum
/// when fewer than ten samples exist), with the sample count.
struct Summary {
  double P50 = 0.0;
  double Tail = 0.0;
  std::string TailName; ///< "p99.9", "p99", "p90" or "max".
  size_t Count = 0;
};
Summary summarize(const std::vector<double> &Values);

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Everything one workload run produces.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failure descriptions, printed to stderr.
  std::vector<std::string> Notes;
  /// Every metric of the run, end-to-end and per-layer alike. run.py
  /// takes the result line's metrics from them by the names
  /// BENCHMARK.json lists.
  std::vector<Metric> Metrics;

  /// Counts one checked operation; a false \p Ok is a failure.
  void check(bool Ok, const std::string &What);
  /// Counts \p N operations of which \p Bad failed.
  void checkMany(uint64_t N, uint64_t Bad, const std::string &What);

  void report(const std::string &Name, double Value, const std::string &Unit);
  /// Reports "<Name>_p50<Suffix>" and "<Name>_<tail><Suffix>" plus the
  /// sample count, e.g. query_p50_ms_high / query_p99_ms_high.
  void reportTiming(const std::string &Name, const std::string &Suffix,
                    const Summary &S, const std::string &Unit);
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One timed call into a layer. Parent 0 is a root; spans of one
/// request share Request.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  const char *Name = "";
  double Start = 0.0;
  double End = 0.0;
};

/// A count recorded at a span boundary (events parsed, string length,
/// profile non-zeros, ...).
struct SpanCount {
  uint64_t Span = 0;
  const char *Name = "";
  double Value = 0.0;
};

/// Process-wide span recorder. Off until setEnabled(true); while off
/// every entry point is a single branch. Spans are buffered per thread
/// without locking and gathered by collect() once the threads that
/// recorded them have been joined.
namespace tracer {
void setEnabled(bool On);
bool enabled();
uint64_t newId();
/// Sets the calling thread's request id and parent span for the spans
/// it opens next.
void setContext(uint64_t Request, uint64_t Parent);
void record(const Span &S);
void count(const char *Name, double Value);
/// Every span and count recorded so far, from every thread.
std::pair<std::vector<Span>, std::vector<SpanCount>> collect();
} // namespace tracer

/// Records a span from construction to destruction, as a child of the
/// thread's current span. A no-op when tracing is off.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Span S;
  uint64_t SavedParent = 0;
};

/// Per span name: self times (duration minus the part of the interval
/// its children cover), in seconds; per count name: values.
struct TraceTables {
  std::map<std::string, std::vector<double>> Self;
  std::map<std::string, std::vector<double>> Counts;

  double medianSelf(const std::string &Name) const;
  double medianCount(const std::string &Name) const;
};

/// Builds the tables and writes every span and count as JSON lines to
/// \p Path (skipped when empty).
TraceTables analyzeTrace(const std::string &Path);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10.0; ///< Length of the measured phase.
  bool Traced = false;
  std::string WorkDir;   ///< Working space for the flat images.
};

Outcome runServeRouted(const RunConfig &C);
Outcome runIngestMixed(const RunConfig &C);
Outcome runClusterKast(const RunConfig &C);

} // namespace kbench

#endif // KAST_PERFBENCH_BENCH_H
