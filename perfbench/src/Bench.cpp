//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace kbench {

static std::chrono::steady_clock::time_point epoch() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return Epoch;
}

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch())
      .count();
}

std::chrono::steady_clock::time_point instant(double Seconds) {
  return epoch() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(Seconds));
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * Values.size()));
  Rank = std::clamp<size_t>(Rank, 1, Values.size()) - 1;
  std::nth_element(Values.begin(), Values.begin() + Rank, Values.end());
  return Values[Rank];
}

Summary summarize(const std::vector<double> &Values) {
  Summary S;
  S.Count = Values.size();
  S.P50 = quantile(Values, 0.5);
  // The highest percentile with at least ten samples beyond it.
  const std::pair<double, const char *> Tails[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  for (const auto &[Q, Name] : Tails)
    if (static_cast<double>(S.Count) * (1.0 - Q) >= 10.0) {
      S.Tail = quantile(Values, Q);
      S.TailName = Name;
      return S;
    }
  S.Tail = quantile(Values, 1.0);
  S.TailName = "max";
  return S;
}

void Outcome::check(bool Ok, const std::string &What) {
  checkMany(1, Ok ? 0 : 1, What);
}

void Outcome::checkMany(uint64_t N, uint64_t Bad, const std::string &What) {
  Attempted += N;
  Failed += Bad;
  if (Bad && Notes.size() < 16)
    Notes.push_back(What + ": " + std::to_string(Bad) + " of " +
                    std::to_string(N) + " failed");
}

void Outcome::report(const std::string &Name, double Value,
                     const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Outcome::reportTiming(const std::string &Name, const std::string &Suffix,
                           const Summary &S, const std::string &Unit) {
  report(Name + "_p50" + Suffix, S.P50, Unit);
  report(Name + "_" + S.TailName + Suffix, S.Tail, Unit);
  report(Name + "_samples" + Suffix, static_cast<double>(S.Count), "count");
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {

struct ThreadBuffer {
  std::vector<Span> Spans;
  std::vector<SpanCount> Counts;
};

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};
std::mutex BuffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> Buffers; // Guarded by BuffersMutex.

thread_local ThreadBuffer *LocalBuffer = nullptr;
thread_local uint64_t CurrentRequest = 0;
thread_local uint64_t CurrentParent = 0;

ThreadBuffer &localBuffer() {
  if (!LocalBuffer) {
    std::lock_guard<std::mutex> Lock(BuffersMutex);
    Buffers.push_back(std::make_unique<ThreadBuffer>());
    LocalBuffer = Buffers.back().get();
  }
  return *LocalBuffer;
}

} // namespace

namespace tracer {

void setEnabled(bool On) { Enabled.store(On); }
bool enabled() { return Enabled.load(std::memory_order_relaxed); }
uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

void setContext(uint64_t Request, uint64_t Parent) {
  CurrentRequest = Request;
  CurrentParent = Parent;
}

void record(const Span &S) {
  if (enabled())
    localBuffer().Spans.push_back(S);
}

void count(const char *Name, double Value) {
  if (enabled())
    localBuffer().Counts.push_back({CurrentParent, Name, Value});
}

std::pair<std::vector<Span>, std::vector<SpanCount>> collect() {
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  std::pair<std::vector<Span>, std::vector<SpanCount>> All;
  for (const auto &B : Buffers) {
    All.first.insert(All.first.end(), B->Spans.begin(), B->Spans.end());
    All.second.insert(All.second.end(), B->Counts.begin(), B->Counts.end());
  }
  return All;
}

} // namespace tracer

ScopedSpan::ScopedSpan(const char *Name) {
  if (!tracer::enabled())
    return;
  S.Id = tracer::newId();
  S.Parent = CurrentParent;
  S.Request = CurrentRequest;
  S.Name = Name;
  SavedParent = CurrentParent;
  CurrentParent = S.Id;
  S.Start = now();
}

ScopedSpan::~ScopedSpan() {
  if (S.Id == 0)
    return;
  S.End = now();
  CurrentParent = SavedParent;
  tracer::record(S);
}

static double medianOf(const std::map<std::string, std::vector<double>> &Table,
                       const std::string &Name) {
  auto It = Table.find(Name);
  return It == Table.end() ? 0.0 : median(It->second);
}

double TraceTables::medianSelf(const std::string &Name) const {
  return medianOf(Self, Name);
}
double TraceTables::medianCount(const std::string &Name) const {
  return medianOf(Counts, Name);
}

TraceTables analyzeTrace(const std::string &Path) {
  auto [Spans, Counts] = tracer::collect();
  TraceTables T;

  // Self time: a span's duration minus the union of its children's
  // intervals clipped to it.
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> Kids;
  for (const Span &S : Spans)
    if (S.Parent)
      Kids[S.Parent].push_back({S.Start, S.End});
  for (const Span &S : Spans) {
    double Covered = 0.0;
    auto It = Kids.find(S.Id);
    if (It != Kids.end()) {
      std::vector<std::pair<double, double>> &Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      double Reach = S.Start;
      for (auto [Lo, Hi] : Iv) {
        Lo = std::max(Lo, Reach);
        Hi = std::min(Hi, S.End);
        if (Hi > Lo) {
          Covered += Hi - Lo;
          Reach = Hi;
        }
      }
    }
    T.Self[S.Name].push_back(S.End - S.Start - Covered);
  }
  for (const SpanCount &C : Counts)
    T.Counts[C.Name].push_back(C.Value);

  if (!Path.empty()) {
    std::ofstream Out(Path);
    char Line[256];
    for (const Span &S : Spans) {
      std::snprintf(Line, sizeof(Line),
                    "{\"span\":%llu,\"parent\":%llu,\"request\":%llu,"
                    "\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f}\n",
                    static_cast<unsigned long long>(S.Id),
                    static_cast<unsigned long long>(S.Parent),
                    static_cast<unsigned long long>(S.Request), S.Name,
                    S.Start, S.End);
      Out << Line;
    }
    for (const SpanCount &C : Counts) {
      std::snprintf(Line, sizeof(Line),
                    "{\"count\":\"%s\",\"span\":%llu,\"value\":%.9g}\n",
                    C.Name, static_cast<unsigned long long>(C.Span), C.Value);
      Out << Line;
    }
  }
  return T;
}

} // namespace kbench
