//===- tests/SupportTest.cpp - Support library unit tests -----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/Backoff.h"
#include "support/Barrier.h"
#include "support/CliParser.h"
#include "support/LatencyHistogram.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, SplitMix64KnownVector) {
  // Reference values for seed 1234567 from the published SplitMix64 code.
  SplitMix64 R(1234567);
  EXPECT_EQ(R.next(), 6457827717110365317ULL);
  EXPECT_EQ(R.next(), 3203168211198807973ULL);
}

TEST(Rng, XoshiroBoundedStaysInRange) {
  Xoshiro256StarStar R(7);
  for (int I = 0; I < 10000; ++I) {
    EXPECT_LT(R.nextBounded(17), 17u);
    EXPECT_LT(R.nextBounded(1), 1u);
  }
}

TEST(Rng, XoshiroPercentIsRoughlyCalibrated) {
  Xoshiro256StarStar R(99);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    Hits += R.nextPercent(5) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.05, 0.01);
}

TEST(Rng, XoshiroDoubleInUnitInterval) {
  Xoshiro256StarStar R(3);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Stats, RunningStatsBasics) {
  RunningStats S;
  for (double X : {1.0, 2.0, 3.0, 4.0})
    S.add(X);
  EXPECT_EQ(S.count(), 4u);
  EXPECT_DOUBLE_EQ(S.mean(), 2.5);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 4.0);
  EXPECT_NEAR(S.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> V = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.25), 20.0);
}

TEST(Stats, QuantileSingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
}

TEST(Backoff, ExpBackoffDoublesAndSaturates) {
  ExpBackoff B(/*MinSpins=*/4, /*MaxSpins=*/32);
  EXPECT_EQ(B.currentSpins(), 4);
  B.pause();
  EXPECT_EQ(B.currentSpins(), 8);
  B.pause();
  EXPECT_EQ(B.currentSpins(), 16);
  B.pause();
  EXPECT_EQ(B.currentSpins(), 32);
  B.pause(); // clamped at MaxSpins, never overshoots
  EXPECT_EQ(B.currentSpins(), 32);
}

TEST(Backoff, ExpBackoffResetReturnsToMin) {
  ExpBackoff B(8, 1024);
  for (int I = 0; I < 20; ++I)
    B.pause();
  EXPECT_EQ(B.currentSpins(), 1024);
  B.reset();
  EXPECT_EQ(B.currentSpins(), 8);
}

TEST(Backoff, ExpBackoffSanitizesDegenerateBounds) {
  ExpBackoff Zero(0, 0); // both clamp to at least one spin
  EXPECT_EQ(Zero.currentSpins(), 1);
  Zero.pause();
  EXPECT_EQ(Zero.currentSpins(), 1);

  ExpBackoff Inverted(64, 2); // Max below Min clamps to Min
  EXPECT_EQ(Inverted.currentSpins(), 64);
  Inverted.pause();
  EXPECT_EQ(Inverted.currentSpins(), 64);
}

TEST(Stats, SafeRatioHandlesZeroDenominator) {
  EXPECT_DOUBLE_EQ(safeRatio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(safeRatio(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(safeRatio(7, 0), 0.0);
}

TEST(CliParser, ParsesAllForms) {
  const char *Argv[] = {"prog",        "--threads=8",  "--name=hashmap",
                        "--verbose",   "positional",   "--ratio=0.5",
                        "--list=1,2,4"};
  CliParser P(7, const_cast<char **>(Argv));
  EXPECT_EQ(P.getInt("threads", 1), 8);
  EXPECT_EQ(P.getString("name", ""), "hashmap");
  EXPECT_TRUE(P.getBool("verbose", false));
  EXPECT_FALSE(P.getBool("quiet", false));
  EXPECT_DOUBLE_EQ(P.getDouble("ratio", 0.0), 0.5);
  ASSERT_EQ(P.positional().size(), 1u);
  EXPECT_EQ(P.positional()[0], "positional");
  std::vector<int> L = P.getIntList("list", {});
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[2], 4);
}

TEST(CliParser, DefaultsWhenAbsent) {
  const char *Argv[] = {"prog"};
  CliParser P(1, const_cast<char **>(Argv));
  EXPECT_EQ(P.getInt("threads", 4), 4);
  std::vector<int> L = P.getIntList("threads", {1, 2});
  EXPECT_EQ(L.size(), 2u);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::percent(0.1234, 1), "12.3%");
}

TEST(Barrier, ReleasesAllParticipants) {
  constexpr int N = 4;
  SpinBarrier B(N);
  std::atomic<int> Phase0{0}, Phase1{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I < N; ++I)
    Ts.emplace_back([&] {
      Phase0.fetch_add(1);
      B.arriveAndWait();
      // Everyone must have finished phase 0 before any thread passes.
      EXPECT_EQ(Phase0.load(), N);
      Phase1.fetch_add(1);
      B.arriveAndWait(); // reusable
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Phase1.load(), N);
}

TEST(LatencyHistogram, QuantileNeverExceedsMax) {
  // A bucket midpoint can lie above every value in the bucket. One value
  // of 4884.8 us sits in the bucket whose midpoint is 4915.2 us; the
  // quantile must report the recorded maximum instead.
  LatencyHistogram One;
  One.record(4'884'800);
  EXPECT_EQ(One.quantile(0.999), 4'884'800u);
  EXPECT_EQ(One.quantile(0.5), 4'884'800u);

  LatencyHistogram H;
  Xoshiro256StarStar R(42);
  for (int I = 0; I < 10000; ++I)
    H.record(1000 + R.nextBounded(5'000'000));
  for (int Q = 0; Q <= 1000; ++Q)
    EXPECT_LE(H.quantile(Q / 1000.0), H.max()) << "q=" << Q / 1000.0;
}

TEST(LatencyHistogram, QuantileNeverFallsBelowMin) {
  // A bucket midpoint can also lie below every value in the bucket: a lone
  // 1007 sits in [992, 1008), whose midpoint is 1000.
  LatencyHistogram One;
  EXPECT_EQ(One.min(), 0u);
  One.record(1007);
  EXPECT_EQ(One.min(), 1007u);
  EXPECT_EQ(One.quantile(0.0), 1007u);
  EXPECT_EQ(One.quantile(0.5), 1007u);

  // The exact min survives a merge (copy) and is cleared by reset.
  LatencyHistogram H;
  H.record(5000);
  H.mergeFrom(One);
  EXPECT_EQ(LatencyHistogram(H).min(), 1007u);
  EXPECT_EQ(H.quantile(0.0), 1007u);
  H.reset();
  EXPECT_EQ(H.min(), 0u);
  H.record(2000);
  EXPECT_EQ(H.min(), 2000u);

  Xoshiro256StarStar R(43);
  LatencyHistogram Many;
  for (int I = 0; I < 10000; ++I)
    Many.record(1000 + R.nextBounded(5'000'000));
  for (int Q = 0; Q <= 1000; ++Q) {
    uint64_t V = Many.quantile(Q / 1000.0);
    EXPECT_GE(V, Many.min()) << "q=" << Q / 1000.0;
    EXPECT_LE(V, Many.max()) << "q=" << Q / 1000.0;
  }
}
