//===- support/LatencyHistogram.h - Log-bucketed latency histogram -*- C++ -*-//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HDR-histogram-style log-bucketed latency recorder. Values (nanoseconds)
/// index into 2^SubBucketBits linear sub-buckets per power of two, bounding
/// the relative quantile error at 1/2^SubBucketBits (~3.1% here) across the
/// full uint64 range with a fixed ~15KB footprint.
///
/// Recording is a single relaxed atomic increment with no allocation, so
/// one histogram per load-generator thread records on the request path
/// without synchronizing with anything; after the run the per-thread
/// histograms merge into one (mergeFrom) and quantiles are read off the
/// cumulative bucket counts. Relaxed ordering is safe because merge
/// happens after the recording threads join (or for a monitoring thread
/// that tolerates slightly stale counts).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_SUPPORT_LATENCYHISTOGRAM_H
#define SOLERO_SUPPORT_LATENCYHISTOGRAM_H

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>

#include "support/Assert.h"

namespace solero {

/// Fixed-size log-bucketed histogram of uint64 values (nanoseconds by
/// convention). Copyable only when quiescent (copy reads with relaxed
/// loads).
class LatencyHistogram {
public:
  static constexpr unsigned SubBucketBits = 5;
  static constexpr uint64_t SubBucketCount = 1ull << SubBucketBits;
  /// Values below SubBucketCount are exact; above, one octave of
  /// SubBucketCount sub-buckets per possible MSB position (SubBucketBits
  /// through 63), so the top octave (MSB 63) still indexes in range.
  static constexpr std::size_t BucketCount =
      (64 - SubBucketBits + 1) << SubBucketBits;

  LatencyHistogram() = default;

  LatencyHistogram(const LatencyHistogram &Other) { mergeFrom(Other); }
  LatencyHistogram &operator=(const LatencyHistogram &) = delete;

  /// Records one value. Relaxed increment; safe from the owning thread
  /// concurrently with mergeFrom/quantile readers.
  void record(uint64_t ValueNs) {
    Buckets[bucketIndex(ValueNs)].fetch_add(1, std::memory_order_relaxed);
    widen(MaxValue, ValueNs, std::greater<>());
    widen(MinValue, ValueNs, std::less<>());
  }

  /// Adds every count of \p Other into this histogram.
  void mergeFrom(const LatencyHistogram &Other) {
    for (std::size_t I = 0; I < BucketCount; ++I) {
      uint64_t C = Other.Buckets[I].load(std::memory_order_relaxed);
      if (C)
        Buckets[I].fetch_add(C, std::memory_order_relaxed);
    }
    widen(MaxValue, Other.max(), std::greater<>());
    widen(MinValue, Other.MinValue.load(std::memory_order_relaxed),
            std::less<>());
  }

  /// Total recorded values.
  uint64_t count() const {
    uint64_t Total = 0;
    for (const auto &B : Buckets)
      Total += B.load(std::memory_order_relaxed);
    return Total;
  }

  /// The \p Q quantile (0..1) as a bucket-midpoint estimate; 0 when empty.
  /// Exact for values < SubBucketCount, within ~3.1% above. Clamped to
  /// [min(), max()]: a bucket's midpoint can lie above every value recorded
  /// in it (the top bucket) or below every one (the bottom bucket).
  uint64_t quantile(double Q) const {
    SOLERO_CHECK(Q >= 0.0 && Q <= 1.0, "quantile out of range");
    uint64_t Total = count();
    if (Total == 0)
      return 0;
    // Rank of the q-th value, 1-based, matching the "nearest rank" oracle.
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
    if (Rank == 0)
      Rank = 1;
    uint64_t Seen = 0;
    for (std::size_t I = 0; I < BucketCount; ++I) {
      Seen += Buckets[I].load(std::memory_order_relaxed);
      if (Seen >= Rank)
        return std::clamp(bucketMidpoint(I), min(), max());
    }
    return MaxValue.load(std::memory_order_relaxed);
  }

  /// Largest recorded value (exact, not bucketed).
  uint64_t max() const { return MaxValue.load(std::memory_order_relaxed); }

  /// Smallest recorded value (exact, not bucketed); 0 when empty.
  uint64_t min() const {
    uint64_t Min = MinValue.load(std::memory_order_relaxed);
    return Min == NoValue ? 0 : Min;
  }

  /// Mean of the bucket-midpoint estimates; 0 when empty.
  double mean() const {
    uint64_t Total = 0;
    double Sum = 0;
    for (std::size_t I = 0; I < BucketCount; ++I) {
      uint64_t C = Buckets[I].load(std::memory_order_relaxed);
      if (!C)
        continue;
      Total += C;
      Sum += static_cast<double>(C) * static_cast<double>(bucketMidpoint(I));
    }
    return Total ? Sum / static_cast<double>(Total) : 0.0;
  }

  /// Resets every bucket to zero (not thread-safe against recorders).
  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    MaxValue.store(0, std::memory_order_relaxed);
    MinValue.store(NoValue, std::memory_order_relaxed);
  }

  /// Bucket index of \p Value: identity below SubBucketCount, else octave
  /// of the MSB plus the SubBucketBits bits below it.
  static std::size_t bucketIndex(uint64_t Value) {
    if (Value < SubBucketCount)
      return static_cast<std::size_t>(Value);
    unsigned Msb = 63u - static_cast<unsigned>(std::countl_zero(Value));
    unsigned Shift = Msb - SubBucketBits;
    uint64_t Sub = (Value >> Shift) & (SubBucketCount - 1);
    return ((static_cast<std::size_t>(Msb) - SubBucketBits + 1)
            << SubBucketBits) +
           static_cast<std::size_t>(Sub);
  }

  /// Inclusive lower bound of bucket \p Index.
  static uint64_t bucketLowerBound(std::size_t Index) {
    if (Index < SubBucketCount)
      return Index;
    std::size_t Octave = Index >> SubBucketBits;
    uint64_t Sub = Index & (SubBucketCount - 1);
    unsigned Shift = static_cast<unsigned>(Octave - 1);
    return (SubBucketCount | Sub) << Shift;
  }

  /// Midpoint of bucket \p Index (the quantile estimate).
  static uint64_t bucketMidpoint(std::size_t Index) {
    if (Index < SubBucketCount)
      return Index;
    std::size_t Octave = Index >> SubBucketBits;
    uint64_t Width = 1ull << (Octave - 1);
    return bucketLowerBound(Index) + Width / 2;
  }

private:
  /// MinValue before the first record: above every value, so the first
  /// record lowers it.
  static constexpr uint64_t NoValue = ~0ull;

  /// Widens \p Bound out to \p V when V lies beyond it in \p Beyond's order.
  template <typename Cmp>
  static void widen(std::atomic<uint64_t> &Bound, uint64_t V, Cmp Beyond) {
    uint64_t Cur = Bound.load(std::memory_order_relaxed);
    while (Beyond(V, Cur) &&
           !Bound.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  std::array<std::atomic<uint64_t>, BucketCount> Buckets{};
  std::atomic<uint64_t> MaxValue{0};
  std::atomic<uint64_t> MinValue{NoValue};
};

} // namespace solero

#endif // SOLERO_SUPPORT_LATENCYHISTOGRAM_H
