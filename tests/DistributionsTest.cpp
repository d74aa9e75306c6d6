//===- tests/DistributionsTest.cpp - Sampler and histogram tests ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Statistical tests for the KV-service load-generator building blocks:
/// the Zipfian/Poisson samplers (support/Distributions.h), the log-bucketed
/// latency histogram against a sorted-vector oracle
/// (support/LatencyHistogram.h), and the thread-pinning helper
/// (support/NumaTopology.h).
///
//===----------------------------------------------------------------------===//

#include "support/Distributions.h"
#include "support/LatencyHistogram.h"
#include "support/NumaTopology.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

using namespace solero;

namespace {

/// Chi-squared statistic of observed counts against the sampler's own
/// analytic cell probabilities.
double chiSquared(const std::vector<uint64_t> &Observed,
                  const std::vector<double> &Expected) {
  double Chi = 0;
  for (std::size_t I = 0; I < Observed.size(); ++I) {
    double Diff = static_cast<double>(Observed[I]) - Expected[I];
    Chi += Diff * Diff / Expected[I];
  }
  return Chi;
}

} // namespace

TEST(Distributions, ZipfianIsDeterministicFromTheSeed) {
  ZipfianSampler Z(1024, 0.99);
  Xoshiro256StarStar A(42), B(42);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_EQ(Z.next(A), Z.next(B));
    uint64_t R = Z.next(A);
    EXPECT_EQ(R, Z.next(B));
    EXPECT_LT(R, Z.rankCount());
  }
}

TEST(Distributions, ZipfianMatchesAnalyticProbabilities) {
  constexpr uint64_t N = 100;
  constexpr uint64_t Samples = 100000;
  ZipfianSampler Z(N, 0.99);
  Xoshiro256StarStar Rng(7);

  std::vector<uint64_t> Counts(N, 0);
  for (uint64_t I = 0; I < Samples; ++I)
    ++Counts[Z.next(Rng)];

  // Coarse cells (head ranks individually, tail grouped by octave) keep
  // every expected count large, so the statistic is insensitive to the
  // known small bias of the inversion approximation.
  const std::vector<std::pair<uint64_t, uint64_t>> Cells = {
      {0, 1}, {1, 2}, {2, 3}, {3, 8}, {8, 16}, {16, 32}, {32, 64}, {64, N}};
  std::vector<uint64_t> Observed;
  std::vector<double> Expected;
  for (auto [Lo, Hi] : Cells) {
    uint64_t O = 0;
    double P = 0;
    for (uint64_t R = Lo; R < Hi; ++R) {
      O += Counts[R];
      P += Z.probabilityOfRank(R);
    }
    Observed.push_back(O);
    Expected.push_back(P * static_cast<double>(Samples));
  }
  // Analytic probabilities must sum to one.
  double Total = 0;
  for (uint64_t R = 0; R < N; ++R)
    Total += Z.probabilityOfRank(R);
  EXPECT_NEAR(Total, 1.0, 1e-9);
  // The inversion is an approximation: it is exact for ranks 0-1 and
  // carries a known systematic bias just past the spline boundary (about
  // +14% at rank 2 for theta 0.99), settling to a few percent in the tail.
  // Per-cell relative error bounds catch a wrong exponent or a broken
  // inversion without flagging that documented bias.
  for (std::size_t I = 0; I < Observed.size(); ++I) {
    double Rel = (static_cast<double>(Observed[I]) - Expected[I]) /
                 Expected[I];
    EXPECT_LT(std::abs(Rel), 0.16)
        << "cell " << I << " off by " << Rel * 100 << "%";
  }
  // Chi-squared as a coarse shape tripwire: the approximation bias alone
  // measures ~230 here; a uniform or inverted sampler measures in the tens
  // of thousands.
  EXPECT_LT(chiSquared(Observed, Expected), 500.0)
      << "zipfian sample frequencies diverge from 1/(r+1)^theta";
  // The head must dominate: rank 0 draws far more than a uniform share.
  EXPECT_GT(Observed[0], Samples / N * 5);
}

TEST(Distributions, ScrambledZipfianPreservesTheHotMass) {
  constexpr uint64_t N = 4096;
  constexpr uint64_t Samples = 200000;
  ZipfianSampler Z(N, 0.99);
  Xoshiro256StarStar Rng(11);

  std::map<uint64_t, uint64_t> Counts;
  for (uint64_t I = 0; I < Samples; ++I) {
    uint64_t K = Z.nextScrambled(Rng);
    ASSERT_LT(K, N);
    ++Counts[K];
  }
  // The hottest scrambled key carries rank 0's probability mass, but its
  // identity is decorrelated from 0.
  uint64_t HotKey = 0, HotCount = 0;
  for (auto [K, C] : Counts)
    if (C > HotCount) {
      HotKey = K;
      HotCount = C;
    }
  double HotFrac = static_cast<double>(HotCount) / Samples;
  EXPECT_NEAR(HotFrac, Z.probabilityOfRank(0), 0.02);
  // SplitMix64 of 0 is a fixed, well-known value; what matters here is
  // only that the hot key is not the raw rank.
  EXPECT_NE(HotKey, 0u);

  Xoshiro256StarStar A(5), B(5);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Z.nextScrambled(A), Z.nextScrambled(B));
}

TEST(Distributions, PoissonGapsAverageToTheConfiguredRate) {
  constexpr double Rate = 50000.0; // 20us mean gap
  PoissonProcess P(Rate);
  EXPECT_NEAR(P.meanGapNs(), 20000.0, 1e-6);

  Xoshiro256StarStar Rng(3);
  constexpr uint64_t Samples = 200000;
  double Sum = 0;
  for (uint64_t I = 0; I < Samples; ++I) {
    uint64_t Gap = P.nextGapNs(Rng);
    ASSERT_GE(Gap, 1u);
    Sum += static_cast<double>(Gap);
  }
  // Mean of 200K exponential draws concentrates within ~1% (stddev of the
  // mean is mean/sqrt(n) ~ 0.22%).
  EXPECT_NEAR(Sum / static_cast<double>(Samples), 20000.0, 400.0);

  Xoshiro256StarStar A(9), B(9);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(P.nextGapNs(A), P.nextGapNs(B));
}

TEST(LatencyHistogram, BucketGeometryInvariantsHold) {
  // Values below the sub-bucket count are recorded exactly.
  for (uint64_t V = 0; V < LatencyHistogram::SubBucketCount; ++V) {
    EXPECT_EQ(LatencyHistogram::bucketIndex(V), V);
    EXPECT_EQ(LatencyHistogram::bucketMidpoint(V), V);
  }
  // Above: every value falls inside its bucket's bounds and the midpoint
  // is within the promised ~3.1% relative error.
  Xoshiro256StarStar Rng(17);
  for (int I = 0; I < 20000; ++I) {
    uint64_t V = Rng.next() >> (Rng.next() % 40); // spread over magnitudes
    std::size_t Idx = LatencyHistogram::bucketIndex(V);
    ASSERT_LT(Idx, LatencyHistogram::BucketCount);
    uint64_t Lo = LatencyHistogram::bucketLowerBound(Idx);
    EXPECT_LE(Lo, V);
    if (Idx + 1 < LatencyHistogram::BucketCount &&
        LatencyHistogram::bucketLowerBound(Idx + 1) > Lo) {
      EXPECT_LT(V, LatencyHistogram::bucketLowerBound(Idx + 1));
    }
    uint64_t Mid = LatencyHistogram::bucketMidpoint(Idx);
    double Err = std::abs(static_cast<double>(Mid) - static_cast<double>(V));
    EXPECT_LE(Err, static_cast<double>(V) / 16.0 + 1.0)
        << "value " << V << " bucket " << Idx;
  }
}

TEST(LatencyHistogram, QuantilesMatchTheSortedVectorOracle) {
  LatencyHistogram H;
  std::vector<uint64_t> Values;
  Xoshiro256StarStar Rng(23);
  PoissonProcess P(200000.0); // heavy-tailed-ish positive values
  for (int I = 0; I < 50000; ++I) {
    uint64_t V = P.nextGapNs(Rng) + (Rng.nextPercent(1) ? 1000000 : 0);
    Values.push_back(V);
    H.record(V);
  }
  std::sort(Values.begin(), Values.end());
  EXPECT_EQ(H.count(), Values.size());
  EXPECT_EQ(H.max(), Values.back());

  for (double Q : {0.50, 0.90, 0.99, 0.999}) {
    uint64_t Rank =
        static_cast<uint64_t>(Q * static_cast<double>(Values.size()));
    if (Rank == 0)
      Rank = 1;
    double Oracle = static_cast<double>(Values[Rank - 1]);
    double Est = static_cast<double>(H.quantile(Q));
    EXPECT_NEAR(Est, Oracle, Oracle * 0.04 + 1.0)
        << "q=" << Q << " oracle=" << Oracle << " est=" << Est;
  }
}

TEST(LatencyHistogram, PerThreadHistogramsMergeLosslessly) {
  constexpr int Threads = 4;
  constexpr int PerThread = 20000;
  std::vector<LatencyHistogram> Parts(Threads);
  LatencyHistogram Whole;

  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256StarStar Rng(100 + static_cast<uint64_t>(T));
      for (int I = 0; I < PerThread; ++I)
        Parts[static_cast<std::size_t>(T)].record(Rng.next() % 1000000);
    });
  for (auto &T : Ts)
    T.join();

  LatencyHistogram Merged;
  for (const LatencyHistogram &Part : Parts)
    Merged.mergeFrom(Part);
  // Rebuild the same stream serially: merge must be exactly the sum.
  for (int T = 0; T < Threads; ++T) {
    Xoshiro256StarStar Rng(100 + static_cast<uint64_t>(T));
    for (int I = 0; I < PerThread; ++I)
      Whole.record(Rng.next() % 1000000);
  }
  EXPECT_EQ(Merged.count(),
            static_cast<uint64_t>(Threads) * static_cast<uint64_t>(PerThread));
  EXPECT_EQ(Merged.max(), Whole.max());
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_EQ(Merged.quantile(Q), Whole.quantile(Q));

  Merged.reset();
  EXPECT_EQ(Merged.count(), 0u);
  EXPECT_EQ(Merged.quantile(0.99), 0u);
}

TEST(NumaTopology, PinningReportsAtLeastOneCpuAndPinsOnLinux) {
  unsigned N = NumaTopology::cpuCount();
  ASSERT_GE(N, 1u);
  // Out-of-range pinning must fail cleanly, not crash.
  EXPECT_FALSE(NumaTopology::pinCurrentThreadToCpu(1u << 30));
  // Pin in a scratch thread so the test runner's own affinity is untouched.
  std::thread T([&] {
#if defined(__linux__)
    EXPECT_TRUE(NumaTopology::pinCurrentThreadToCpu(N - 1));
#else
    (void)NumaTopology::pinCurrentThreadToCpu(N - 1);
#endif
  });
  T.join();
}
