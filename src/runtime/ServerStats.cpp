//===- runtime/ServerStats.cpp - Lock-free serving telemetry --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "runtime/ServerStats.h"

#include <cmath>
#include <cstdio>

using namespace kast;

size_t LatencyHistogram::bucketOf(uint64_t Value) {
  // Values below 2^SubBucketBits land in octave 0, addressed linearly
  // (exact buckets for the smallest values).
  if (Value < SubBuckets)
    return static_cast<size_t>(Value);
  // Octave = position of the highest set bit above the sub-bucket
  // range; the SubBucketBits bits just below it pick the sub-bucket.
  const int High = 63 - __builtin_clzll(Value);
  const size_t Octave = static_cast<size_t>(High) - SubBucketBits + 1;
  const size_t Sub =
      static_cast<size_t>(Value >> (High - static_cast<int>(SubBucketBits))) &
      (SubBuckets - 1);
  const size_t B = Octave * SubBuckets + Sub;
  return B < NumBuckets ? B : NumBuckets - 1;
}

double LatencyHistogram::bucketUpper(size_t B) {
  const size_t Octave = B / SubBuckets;
  const size_t Sub = B % SubBuckets;
  if (Octave == 0)
    return static_cast<double>(Sub);
  // First value of the octave is 2^(Octave + SubBucketBits - 1); each
  // sub-bucket spans 2^(Octave - 1) values.
  const double Base = std::ldexp(1.0, static_cast<int>(Octave) +
                                          static_cast<int>(SubBucketBits) - 1);
  const double Width = std::ldexp(1.0, static_cast<int>(Octave) - 1);
  return Base + Width * static_cast<double>(Sub + 1) - 1.0;
}

void LatencyHistogram::record(uint64_t Value) {
  Buckets[bucketOf(Value)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Value, std::memory_order_relaxed);
  uint64_t Prev = MaxSeen.load(std::memory_order_relaxed);
  while (Prev < Value && !MaxSeen.compare_exchange_weak(
                             Prev, Value, std::memory_order_relaxed))
    ;
}

double LatencyHistogram::percentile(double Fraction) const {
  const uint64_t Total = Count.load(std::memory_order_relaxed);
  if (Total == 0)
    return 0.0;
  // Nearest rank of the requested sample, 1-based, clamped into range.
  // Rounding up keeps Fraction of the samples at or below it.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Fraction * static_cast<double>(Total)));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Total)
    Rank = Total;
  uint64_t Seen = 0;
  for (size_t B = 0; B < NumBuckets; ++B) {
    Seen += Buckets[B].load(std::memory_order_relaxed);
    if (Seen >= Rank)
      return bucketUpper(B);
  }
  return bucketUpper(NumBuckets - 1);
}

HistogramSummary LatencyHistogram::summarize() const {
  HistogramSummary S;
  S.Count = Count.load(std::memory_order_relaxed);
  if (S.Count == 0)
    return S;
  S.Mean = static_cast<double>(Sum.load(std::memory_order_relaxed)) /
           static_cast<double>(S.Count);
  S.P50 = percentile(0.50);
  S.P95 = percentile(0.95);
  S.P99 = percentile(0.99);
  S.Max = static_cast<double>(MaxSeen.load(std::memory_order_relaxed));
  return S;
}

ServerStats::Snapshot ServerStats::snapshot() const {
  Snapshot S;
  S.Submitted = Submitted.load(std::memory_order_relaxed);
  S.Rejected = Rejected.load(std::memory_order_relaxed);
  S.RejectedShutdown = RejectedShutdown.load(std::memory_order_relaxed);
  S.Completed = Completed.load(std::memory_order_relaxed);
  S.Batches = Batches.load(std::memory_order_relaxed);
  S.QueueWaitNs = QueueWaitNs.summarize();
  S.ExecuteNs = ExecuteNs.summarize();
  S.TotalNs = TotalNs.summarize();
  S.BatchSize = BatchSize.summarize();
  return S;
}

std::string ServerStats::formatNanos(double Nanos) {
  char Buf[32];
  if (Nanos >= 1e9)
    std::snprintf(Buf, sizeof(Buf), "%.2fs", Nanos / 1e9);
  else if (Nanos >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.2fms", Nanos / 1e6);
  else if (Nanos >= 1e3)
    std::snprintf(Buf, sizeof(Buf), "%.1fus", Nanos / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.0fns", Nanos);
  return Buf;
}
