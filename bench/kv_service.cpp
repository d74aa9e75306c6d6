//===- bench/kv_service.cpp - Open-loop sharded KV service bench ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The service-shaped evaluation the figure benchmarks cannot provide: a
/// sharded KV store (kv/ShardedKvStore.h) guarded by each policy of the
/// lock portfolio, driven by an *open-loop* load generator — Poisson
/// arrivals at a configured offered rate, Zipfian key popularity, a mixed
/// GET/PUT/DELETE/SCAN op stream, optional burst phases — with per-thread
/// log-bucketed latency histograms. Each request is charged from its
/// scheduled arrival time, so queueing delay shows up in the percentiles
/// instead of silently throttling the arrival rate the way closed-loop
/// harnesses do (the BRAVO paper's argument for tail-latency evaluation).
///
/// Per policy the bench steps the offered load geometrically until p99
/// blows past the SLO (or completions fall behind arrivals) and reports
/// the last sustainable rate as the saturation throughput.
///
///   kv_service                         # full sweep, all five policies
///   kv_service --quick                 # CI smoke (tiny rates/windows)
///   kv_service --policies=Lock,SOLERO  # subset
///   kv_service --rate=30000 --slo-us=2000 --burst-factor=4
///   kv_service --json=BENCH_kv.json    # machine-readable rows
///   kv_service --checkpoint=kv.img     # write adaptive lock state after
///                                      # the sweeps (warm image, §16)
///   kv_service --restore=kv.img        # rehydrate each policy's per-shard
///                                      # lock state before its sweep
///
/// `--chaos` switches to the resilience soak (DESIGN.md §17): a fixed-rate
/// open-loop run under a seeded ChaosDirector fault campaign, with
/// deadline cancellation, token-bucket GET retries, priority load
/// shedding, the stuck-speculation watchdog, and the ShardedKv torture
/// oracles (exclusion, pair conservation, churn bitmap, leak) asserted at
/// the end. Exit code is nonzero on any oracle violation.
///
///   kv_service --chaos --seed=7 --duration-ms=5000 --json=BENCH_chaos.json
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "image/Image.h"
#include "image/Resources.h"
#include "kv/ShardedKvStore.h"
#include "resilience/Deadline.h"
#include "resilience/RetryBudget.h"
#include "resilience/ShedController.h"
#include "resilience/Watchdog.h"
#include "stress/ChaosDirector.h"
#include "support/Backoff.h"
#include "support/Distributions.h"
#include "support/LatencyHistogram.h"
#include "support/NumaTopology.h"
#include "support/Stats.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace solero;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spins/sleeps until \p TargetNs. Coarse sleep for long gaps, yield for
/// medium ones (the 1-vCPU container needs other workers to run), relax
/// for the final stretch.
void waitUntil(uint64_t TargetNs) {
  for (;;) {
    uint64_t Now = nowNs();
    if (Now >= TargetNs)
      return;
    uint64_t Gap = TargetNs - Now;
    if (Gap > 300000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(Gap - 150000));
    else if (Gap > 10000)
      osYield();
    else
      cpuRelax();
  }
}

struct KvBenchParams {
  unsigned Shards = 16;
  uint64_t Keys = 1 << 16;
  double Zipf = 0.99;
  unsigned PutPct = 3;
  unsigned DelPct = 1;
  unsigned ScanPct = 1; // GET is the remainder
  int Threads = 4;
  uint64_t DurationNs = 400ull * 1000 * 1000;
  bool Pin = true;
  uint64_t Seed = 0x5eed;
  double BurstFactor = 1.0; // >1 enables burst phases
  uint64_t BurstPeriodNs = 200ull * 1000 * 1000;
  uint64_t BurstLenNs = 50ull * 1000 * 1000;
};

struct LoadResult {
  BenchResult Bench; ///< Ops = completed, OpsPerSec = achieved
  double OfferedPerSec = 0;
  uint64_t P50Ns = 0, P99Ns = 0, P999Ns = 0, MaxNs = 0;
  double HitRatio = 0;
  uint64_t SkippedArrivals = 0; ///< shed by the bounded catch-up burst
};

/// One open-loop measurement of \p Store at \p OfferedPerSec total.
template <typename Store>
LoadResult runOpenLoop(Store &Store_, const KvBenchParams &P,
                       const ZipfianSampler &Zipf, double OfferedPerSec) {
  const int Threads = P.Threads;
  const PoissonProcess Arrivals(OfferedPerSec / Threads);
  std::vector<LatencyHistogram> Hists(static_cast<std::size_t>(Threads));
  std::vector<uint64_t> Completed(static_cast<std::size_t>(Threads), 0);
  std::vector<uint64_t> Hits(static_cast<std::size_t>(Threads), 0);
  std::vector<uint64_t> Gets(static_cast<std::size_t>(Threads), 0);
  std::vector<uint64_t> Skips(static_cast<std::size_t>(Threads), 0);
  SpinBarrier Start(static_cast<uint32_t>(Threads) + 1);
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();

  std::vector<std::thread> Workers;
  Workers.reserve(static_cast<std::size_t>(Threads));
  std::atomic<uint64_t> StartNs{0};
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      if (P.Pin)
        NumaTopology::pinCurrentThreadToCpu(static_cast<unsigned>(T) %
                                            NumaTopology::cpuCount());
      Xoshiro256StarStar Rng(P.Seed * 0x9e3779b97f4a7c15ULL +
                             static_cast<uint64_t>(T) + 1);
      LatencyHistogram &Hist = Hists[static_cast<std::size_t>(T)];
      Start.arriveAndWait();
      const uint64_t Begin = StartNs.load(std::memory_order_acquire);
      const uint64_t End = Begin + P.DurationNs;
      ArrivalSchedule Sched(Arrivals, Begin, Rng);
      uint64_t Done = 0, Hit = 0, Get = 0;
      for (;;) {
        // Bounded catch-up: a stalled worker issues at most the last
        // CatchUpBurstMax arrivals late and *counts* the rest as skipped
        // (never silently re-anchors the schedule).
        Sched.boundBacklog(nowNs(), Rng);
        const uint64_t Next = Sched.nextArrivalNs();
        if (Next >= End)
          break;
        if (nowNs() < Next)
          waitUntil(Next);
        // Dispatch one request. Latency is charged from the scheduled
        // arrival: a thread running behind pays its backlog in the tail.
        unsigned Roll = static_cast<unsigned>(Rng.nextBounded(100));
        if (Roll < P.PutPct) {
          Store_.put(Zipf.nextScrambled(Rng), Rng.next() >> 1);
        } else if (Roll < P.PutPct + P.DelPct) {
          Store_.remove(Zipf.nextScrambled(Rng));
        } else if (Roll < P.PutPct + P.DelPct + P.ScanPct) {
          // The scan reads atomics, so it cannot be optimized away.
          auto St = Store_.scanShard(static_cast<unsigned>(
              Rng.nextBounded(Store_.shardCount())));
          (void)St;
        } else {
          ++Get;
          if (Store_.get(Zipf.nextScrambled(Rng)).has_value())
            ++Hit;
        }
        uint64_t DoneAt = nowNs();
        Hist.record(DoneAt > Next ? DoneAt - Next : 1);
        ++Done;
        // Burst phases compress the arrival gaps by BurstFactor.
        bool Burst = P.BurstFactor > 1.0 &&
                     (Next - Begin) % P.BurstPeriodNs < P.BurstLenNs;
        Sched.advance(Rng, Burst ? P.BurstFactor : 1.0);
      }
      Completed[static_cast<std::size_t>(T)] = Done;
      Hits[static_cast<std::size_t>(T)] = Hit;
      Gets[static_cast<std::size_t>(T)] = Get;
      Skips[static_cast<std::size_t>(T)] = Sched.skippedArrivals();
    });

  StartNs.store(nowNs(), std::memory_order_release);
  Start.arriveAndWait();
  for (auto &W : Workers)
    W.join();
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();

  LoadResult R;
  R.OfferedPerSec = OfferedPerSec;
  LatencyHistogram Merged;
  uint64_t TotalGets = 0, TotalHits = 0;
  for (int T = 0; T < Threads; ++T) {
    Merged.mergeFrom(Hists[static_cast<std::size_t>(T)]);
    R.Bench.Ops += Completed[static_cast<std::size_t>(T)];
    TotalHits += Hits[static_cast<std::size_t>(T)];
    TotalGets += Gets[static_cast<std::size_t>(T)];
    R.SkippedArrivals += Skips[static_cast<std::size_t>(T)];
  }
  R.Bench.Seconds = static_cast<double>(P.DurationNs) * 1e-9;
  R.Bench.OpsPerSec = R.Bench.Seconds > 0
                          ? static_cast<double>(R.Bench.Ops) / R.Bench.Seconds
                          : 0.0; // --duration-ms=0 must not emit inf/nan
  R.Bench.Delta = countersDelta(Before, After);
  R.P50Ns = Merged.quantile(0.50);
  R.P99Ns = Merged.quantile(0.99);
  R.P999Ns = Merged.quantile(0.999);
  R.MaxNs = Merged.max();
  R.HitRatio = safeRatio(TotalHits, TotalGets);
  return R;
}

struct SweepParams {
  double BaseRate = 30000;
  double Factor = 1.6;
  int Steps = 7;
  uint64_t SloNs = 2000ull * 1000; // p99 SLO
};

double usOf(uint64_t Ns) { return static_cast<double>(Ns) * 1e-3; }

/// Runs one policy: prefill once, then step the offered load until the
/// SLO breaks. Emits one JSON row per step plus a saturation summary row.
template <typename Policy>
void runPolicy(BenchEnv &Env, JsonReport &Json, const KvBenchParams &P,
               const SweepParams &Sweep, const ZipfianSampler &Zipf,
               image::ImageBuilder *Ckpt, const image::LoadedImage *Warm) {
  kv::KvStoreConfig C;
  C.Shards = P.Shards;
  C.InitialShardCapacity = 64;
  kv::ShardedKvStore<Policy> Store(*Env.Ctx, C);
  SplitMix64 Fill(P.Seed);
  for (uint64_t K = 0; K < P.Keys; ++K)
    Store.put(K, Fill.next() >> 1);

  std::printf("\n--- %s ---\n", Policy::name());
  // Rehydrate the per-shard adaptive lock state (SOLERO controllers,
  // BRAVO bias) from the warm image before the sweep; a missing or
  // mismatched blob just means this policy sweeps cold.
  const std::string BlobName = std::string("kv.") + Policy::name();
  if (Warm && Warm->loaded()) {
    const std::vector<uint8_t> *Blob = Warm->blob(BlobName);
    bool Restored = false;
    if (Blob) {
      image::ImageReader R(*Blob);
      Restored = image::restoreKvLockState(R, Store);
    }
    std::printf("warm image: %s %s\n", BlobName.c_str(),
                Restored ? "restored (per-shard lock state rehydrated)"
                         : (Blob ? "rejected; sweeping cold"
                                 : "not present; sweeping cold"));
  }
  TablePrinter T({"offered/s", "achieved/s", "p50 us", "p99 us", "p999 us",
                  "max us", "rmw/op", "hit%", "verdict"});
  double Rate = Sweep.BaseRate;
  LoadResult Sat;
  bool Saturated = false;
  for (int Step = 0; Step < Sweep.Steps; ++Step) {
    LoadResult R = runOpenLoop(Store, P, Zipf, Rate);
    bool MetSlo = R.P99Ns <= Sweep.SloNs &&
                  R.Bench.OpsPerSec >= 0.9 * R.OfferedPerSec;
    T.addRow({TablePrinter::num(R.OfferedPerSec, 0),
              TablePrinter::num(R.Bench.OpsPerSec, 0),
              TablePrinter::num(usOf(R.P50Ns), 1),
              TablePrinter::num(usOf(R.P99Ns), 1),
              TablePrinter::num(usOf(R.P999Ns), 1),
              TablePrinter::num(usOf(R.MaxNs), 1),
              TablePrinter::num(R.Bench.rmwPerOp(), 2),
              TablePrinter::percent(R.HitRatio, 1),
              MetSlo ? "ok" : "SATURATED"});
    Json.add("sweep", Policy::name(), P.Threads, R.Bench,
             {{"offered_per_sec", R.OfferedPerSec},
              {"p50_us", usOf(R.P50Ns)},
              {"p99_us", usOf(R.P99Ns)},
              {"p999_us", usOf(R.P999Ns)},
              {"max_us", usOf(R.MaxNs)},
              {"hit_ratio", R.HitRatio},
              {"skipped_arrivals", static_cast<double>(R.SkippedArrivals)}});
    if (!MetSlo) {
      Saturated = true;
      break;
    }
    Sat = R;
    Rate *= Sweep.Factor;
  }
  T.print();
  double SatRate = Sat.Bench.OpsPerSec;
  std::printf("%s saturation: %s ops/s within p99 SLO of %s us%s "
              "(GET-path rmw/op %.2f, %llu shard resizes)\n",
              Policy::name(), TablePrinter::num(SatRate, 0).c_str(),
              TablePrinter::num(usOf(Sweep.SloNs), 0).c_str(),
              Saturated ? "" : " [sweep exhausted, raise --sweep-steps]",
              Sat.Bench.rmwPerOp(),
              static_cast<unsigned long long>(Store.totalResizes()));
  Json.add("saturation", Policy::name(), P.Threads, Sat.Bench,
           {{"sat_ops_per_sec", SatRate},
            {"slo_us", usOf(Sweep.SloNs)},
            {"p99_us", usOf(Sat.P99Ns)}});
  // All workers are joined (quiescent), so the controllers can be
  // snapshotted into the warm image for the next run.
  if (Ckpt)
    Ckpt->addBlob(BlobName, image::snapshotKvLockState(Store));
}

//===----------------------------------------------------------------------===//
// Chaos soak (--chaos): overload resilience under a seeded fault campaign
//===----------------------------------------------------------------------===//

struct ChaosSoakParams {
  double RatePerSec = 15000;           ///< fixed offered rate (no sweep)
  uint64_t DeadlineNs = 20'000'000;    ///< per-request budget from arrival
  uint64_t DegradedSloNs = 60'000'000; ///< admitted-p99 bound under faults
  uint64_t WindowNs = 50'000'000;      ///< shed monitor window
  double RetryPerSec = 200;            ///< per-worker retry token rate
  double RetryBurst = 20;
  uint64_t CatchUpBurstMax = 512; ///< arrival backlog bound (mean gaps)
  stress::ChaosConfig Chaos;
  resilience::ShedConfig Shed;
  resilience::WatchdogConfig Wd;
};

// Chaos key namespaces, disjoint from the Zipfian prefill range and from
// TortureRunner's 1<<48 pair base so oracles never collide.
constexpr uint64_t ChaosPairKeyBase = 1ull << 47;
constexpr uint64_t ChaosChurnKeyBase = 1ull << 40;
constexpr unsigned ChaosChurnPerThread = 256;

uint64_t chaosPairKeyA(unsigned S) { return ChaosPairKeyBase | (2ull * S); }
uint64_t chaosPairKeyB(unsigned S) {
  return ChaosPairKeyBase | (2ull * S + 1);
}
uint64_t chaosChurnKey(int T, unsigned I) {
  return ChaosChurnKeyBase | (static_cast<uint64_t>(T) << 20) | I;
}

struct ChaosWorkerResult {
  uint64_t Done = 0; ///< admitted, in-deadline, dispatched requests
  uint64_t ShedCount = 0;
  uint64_t Timeouts = 0; ///< cancelled before touching a shard
  uint64_t Retries = 0;  ///< granted + scheduled retries
  uint64_t RetryDenied = 0;
  uint64_t RetryDropped = 0;
  uint64_t Violations = 0; ///< inline oracle hits (exclusion, pair read, scan)
  uint64_t Skipped = 0;    ///< arrivals shed by the bounded catch-up
  std::vector<uint64_t> PairBumps; ///< per-shard pair writes by this worker
  std::vector<uint64_t> ChurnBits; ///< live-key bitmap (owner-exclusive)
};

/// One fixed-rate soak of \p Policy under the seeded fault campaign.
/// Returns the number of oracle violations (0 is the acceptance bar).
template <typename Policy>
uint64_t runChaosSoak(BenchEnv &Env, JsonReport &Json, const KvBenchParams &P,
                      const ZipfianSampler &Zipf, const ChaosSoakParams &CS) {
  kv::KvStoreConfig C;
  C.Shards = P.Shards;
  C.InitialShardCapacity = 64;
  kv::ShardedKvStore<Policy> Store(*Env.Ctx, C);
  SplitMix64 Fill(P.Seed);
  for (uint64_t K = 0; K < P.Keys; ++K)
    Store.put(K, Fill.next() >> 1);
  const unsigned ShardCount = Store.shardCount();
  // Seed the per-shard invariant pair A==B==0 and the exclusion tokens.
  for (unsigned S = 0; S < ShardCount; ++S)
    Store.writeShard(S, [&](auto &Tab) {
      Tab.put(chaosPairKeyA(S), 0);
      Tab.put(chaosPairKeyB(S), 0);
    });
  std::unique_ptr<std::atomic<uint32_t>[]> PairToken(
      new std::atomic<uint32_t>[ShardCount]);
  for (unsigned S = 0; S < ShardCount; ++S)
    PairToken[S].store(0, std::memory_order_relaxed);

  // The watchdog guards every shard's speculation state for the policies
  // that have any (the others still get the stall detector).
  resilience::SpeculationWatchdog Wd(CS.Wd);
  for (unsigned S = 0; S < ShardCount; ++S) {
    if constexpr (std::is_same_v<Policy, SoleroPolicy> ||
                  std::is_same_v<Policy, AdaptiveSoleroPolicy>)
      Wd.watchController(&Store.shardPolicy(S).protocol().controller());
    else if constexpr (std::is_same_v<Policy, BravoRwPolicy>)
      Wd.watchBravo(&Store.shardPolicy(S).protocol());
  }

  stress::ChaosConfig CC = CS.Chaos;
  CC.Shards = ShardCount;
  CC.DurationNs = P.DurationNs;
  stress::ChaosDirector Director(CC);
  std::atomic<uint64_t> CorruptAttempts{0}, CorruptRejected{0};
  Director.setCorruptRestoreHook([&] {
    // A corrupted warm-image restore attempted while traffic runs: the
    // image layer must reject it (sticky-failure reader -> false) and
    // leave the live lock state untouched. A crash here fails the soak.
    SplitMix64 G(P.Seed ^ (CorruptAttempts.load(std::memory_order_relaxed) +
                           0xBADC0DEull));
    std::vector<uint8_t> Garbage(256);
    for (auto &B : Garbage)
      B = static_cast<uint8_t>(G.next());
    image::ImageReader R(Garbage);
    CorruptAttempts.fetch_add(1, std::memory_order_relaxed);
    if (!image::restoreKvLockState(R, Store))
      CorruptRejected.fetch_add(1, std::memory_order_relaxed);
  });

  std::printf("\n--- %s (chaos soak) ---\n%s", Policy::name(),
              Director.scheduleString().c_str());

  const int Threads = P.Threads;
  resilience::ShedController Shed(CS.Shed);
  // Double-buffered per-thread window histograms: workers record into the
  // selected bank, the monitor flips the selector and reads/resets the
  // retired bank (LatencyHistogram's relaxed atomics make the brief
  // overlap a counting blur, not a race).
  std::vector<LatencyHistogram> Banks[2]{
      std::vector<LatencyHistogram>(static_cast<std::size_t>(Threads)),
      std::vector<LatencyHistogram>(static_cast<std::size_t>(Threads))};
  std::atomic<uint32_t> BankSel{0};
  std::vector<LatencyHistogram> Admitted(static_cast<std::size_t>(Threads));
  std::unique_ptr<std::atomic<uint64_t>[]> Lag(
      new std::atomic<uint64_t>[static_cast<std::size_t>(Threads)]);
  for (int T = 0; T < Threads; ++T)
    Lag[T].store(0, std::memory_order_relaxed);

  std::atomic<bool> MonitorRun{true};
  std::thread Monitor([&] {
    while (MonitorRun.load(std::memory_order_acquire)) {
      uint64_t WindowEnd = nowNs() + CS.WindowNs;
      while (MonitorRun.load(std::memory_order_acquire) &&
             nowNs() < WindowEnd)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      uint32_t Old = BankSel.load(std::memory_order_relaxed);
      BankSel.store(Old ^ 1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      LatencyHistogram Win;
      for (auto &H : Banks[Old]) {
        Win.mergeFrom(H);
        H.reset();
      }
      uint64_t Backlog = 0;
      for (int T = 0; T < Threads; ++T) {
        uint64_t L = Lag[T].load(std::memory_order_relaxed);
        if (L > Backlog)
          Backlog = L;
      }
      Shed.onWindow(Win.count() ? Win.quantile(0.99) : 0, Backlog);
    }
  });

  const PoissonProcess Arrivals(CS.RatePerSec / Threads);
  std::vector<ChaosWorkerResult> Results(static_cast<std::size_t>(Threads));
  SpinBarrier Start(static_cast<uint32_t>(Threads) + 1);
  std::atomic<uint64_t> StartNs{0};
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();

  std::vector<std::thread> Workers;
  Workers.reserve(static_cast<std::size_t>(Threads));
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      if (P.Pin)
        NumaTopology::pinCurrentThreadToCpu(static_cast<unsigned>(T) %
                                            NumaTopology::cpuCount());
      const uint32_t Slot = ThreadRegistry::current().slot();
      Xoshiro256StarStar Rng(P.Seed * 0x9e3779b97f4a7c15ULL +
                             static_cast<uint64_t>(T) + 101);
      ChaosWorkerResult &R = Results[static_cast<std::size_t>(T)];
      R.PairBumps.assign(ShardCount, 0);
      R.ChurnBits.assign((ChaosChurnPerThread + 63) / 64, 0);
      resilience::RetryBudget Budget(CS.RetryPerSec, CS.RetryBurst, nowNs());
      // The jittered sequence is drawn in "spins" and spent here as
      // microseconds of retry delay: same bounded-exponential shape, a
      // unit the retry path can actually wait.
      ExpBackoff Backoff(64, 8192, JitterMode::FullJitter,
                         P.Seed + static_cast<uint64_t>(T));
      struct RetryEntry {
        uint64_t Key;
        uint64_t AtNs;
        resilience::Deadline D;
      };
      std::deque<RetryEntry> RetryQ;
      constexpr std::size_t RetryQueueCap = 64;

      // The deadline clock sees the injected skew; the latency accounting
      // (charged from scheduled arrivals on the real clock) does not.
      auto SkewedNow = [&] {
        int64_t Skew = Director.clockSkewNs();
        uint64_t Now = nowNs();
        if (Skew >= 0)
          return Now + static_cast<uint64_t>(Skew);
        uint64_t Back = static_cast<uint64_t>(-Skew);
        return Now > Back ? Now - Back : 0;
      };

      auto RecordAdmitted = [&](uint64_t ChargeFromNs) {
        uint64_t DoneAt = nowNs();
        uint64_t Lat = DoneAt > ChargeFromNs ? DoneAt - ChargeFromNs : 1;
        Admitted[static_cast<std::size_t>(T)].record(Lat);
        Banks[BankSel.load(std::memory_order_acquire)]
             [static_cast<std::size_t>(T)]
                 .record(Lat);
        ++R.Done;
      };

      // GET against \p Key as one watched, slow-shard-delayed dispatch.
      auto DispatchGet = [&](uint64_t Key, uint64_t ChargeFromNs) {
        unsigned S = Store.shardOf(Key);
        Wd.opBegin(Slot, nowNs());
        uint64_t Delay = Director.shardDelayNs(S);
        if (Delay)
          waitUntil(nowNs() + Delay);
        (void)Store.get(Key);
        Wd.opEnd(Slot);
        RecordAdmitted(ChargeFromNs);
      };

      auto DrainRetries = [&] {
        while (!RetryQ.empty() && RetryQ.front().AtNs <= nowNs()) {
          RetryEntry E = RetryQ.front();
          RetryQ.pop_front();
          if (E.D.expired(SkewedNow())) {
            ++R.Timeouts; // the retry itself missed its fresh deadline
            continue;
          }
          DispatchGet(E.Key, E.AtNs);
          Backoff.reset(); // a served retry resets the backoff run
        }
      };

      Start.arriveAndWait();
      const uint64_t Begin = StartNs.load(std::memory_order_acquire);
      const uint64_t End = Begin + P.DurationNs;
      ArrivalSchedule Sched(Arrivals, Begin, Rng, CS.CatchUpBurstMax);
      for (;;) {
        DrainRetries();
        Sched.boundBacklog(nowNs(), Rng);
        const uint64_t Next = Sched.nextArrivalNs();
        if (Next >= End)
          break;
        uint64_t Now = nowNs();
        Lag[T].store(Now > Next ? Now - Next : 0,
                     std::memory_order_relaxed);
        if (Now < Next)
          waitUntil(Next);
        Sched.advance(Rng);

        // Draw the op: mutations (pair bump + churn) 8%, scans 4%,
        // point GETs the rest.
        unsigned Roll = static_cast<unsigned>(Rng.nextBounded(100));
        resilience::OpPriority Pri =
            Roll < 8 ? resilience::OpPriority::Mutate
                     : (Roll < 12 ? resilience::OpPriority::Scan
                                  : resilience::OpPriority::Get);
        if (!Shed.admit(Pri)) {
          ++R.ShedCount;
          continue;
        }
        resilience::Deadline D =
            resilience::Deadline::fromScheduled(Next, CS.DeadlineNs);
        if (D.expired(SkewedNow())) {
          // Cancelled before touching a shard, so a retry can never
          // double-apply. Only idempotent GETs are worth re-offering,
          // and only within the token budget (no retry storms).
          ++R.Timeouts;
          if (Pri == resilience::OpPriority::Get) {
            if (RetryQ.size() >= RetryQueueCap)
              ++R.RetryDropped;
            else if (!Budget.tryAcquire(nowNs()))
              ++R.RetryDenied;
            else {
              uint64_t WaitNs =
                  static_cast<uint64_t>(Backoff.nextSpins()) * 1000;
              uint64_t At = nowNs() + WaitNs;
              RetryQ.push_back(
                  {Zipf.nextScrambled(Rng), At,
                   resilience::Deadline::fromScheduled(At, CS.DeadlineNs)});
              ++R.Retries;
            }
          }
          continue;
        }

        if (Roll < 2) {
          // Pair bump: exclusive-writer oracle. The token would be seen
          // nonzero by a second writer only if mutual exclusion broke.
          unsigned S = static_cast<unsigned>(Rng.nextBounded(ShardCount));
          Wd.opBegin(Slot, nowNs());
          uint64_t Delay = Director.shardDelayNs(S);
          if (Delay)
            waitUntil(nowNs() + Delay);
          Store.writeShard(S, [&](auto &Tab) {
            if (PairToken[S].exchange(1, std::memory_order_acq_rel) != 0)
              ++R.Violations;
            auto A = Tab.get(chaosPairKeyA(S));
            uint64_t V = (A.Found ? A.Value : 0) + 1;
            Tab.put(chaosPairKeyA(S), V);
            Tab.put(chaosPairKeyB(S), V);
            PairToken[S].store(0, std::memory_order_release);
          });
          ++R.PairBumps[S];
          Wd.opEnd(Slot);
          RecordAdmitted(Next);
        } else if (Roll < 6) {
          // Churn PUT on an owner-exclusive key; bitmap is the oracle.
          unsigned I =
              static_cast<unsigned>(Rng.nextBounded(ChaosChurnPerThread));
          uint64_t Key = chaosChurnKey(T, I);
          Wd.opBegin(Slot, nowNs());
          uint64_t Delay = Director.shardDelayNs(Store.shardOf(Key));
          if (Delay)
            waitUntil(nowNs() + Delay);
          Store.put(Key, Rng.next() >> 1);
          Wd.opEnd(Slot);
          R.ChurnBits[I / 64] |= 1ull << (I % 64);
          RecordAdmitted(Next);
        } else if (Roll < 8) {
          // Churn DELETE.
          unsigned I =
              static_cast<unsigned>(Rng.nextBounded(ChaosChurnPerThread));
          uint64_t Key = chaosChurnKey(T, I);
          Wd.opBegin(Slot, nowNs());
          uint64_t Delay = Director.shardDelayNs(Store.shardOf(Key));
          if (Delay)
            waitUntil(nowNs() + Delay);
          Store.remove(Key);
          Wd.opEnd(Slot);
          R.ChurnBits[I / 64] &= ~(1ull << (I % 64));
          RecordAdmitted(Next);
        } else if (Roll < 12) {
          // Scan + pair-read oracle: one read section must see A == B,
          // and its scan must count exactly the shard's live entries.
          // The verdict is the closure's return value so policies that
          // re-execute failed read attempts (SeqLock) stay side-effect
          // free until validation succeeds.
          unsigned S = static_cast<unsigned>(Rng.nextBounded(ShardCount));
          Wd.opBegin(Slot, nowNs());
          uint64_t Delay = Director.shardDelayNs(S);
          if (Delay)
            waitUntil(nowNs() + Delay);
          uint64_t Bad =
              Store.readShard(S, [&](const auto &Tab, auto &G) -> uint64_t {
                (void)G;
                auto A = Tab.get(chaosPairKeyA(S));
                auto B = Tab.get(chaosPairKeyB(S));
                uint64_t Torn =
                    (A.Found && B.Found && A.Value == B.Value) ? 0 : 1;
                uint64_t Miscounted =
                    Tab.scan().LiveEntries != Tab.liveCount() ? 1 : 0;
                return Torn + Miscounted;
              });
          Wd.opEnd(Slot);
          R.Violations += Bad;
          RecordAdmitted(Next);
        } else {
          DispatchGet(Zipf.nextScrambled(Rng), Next);
        }
      }
      // Past End: pending retries are abandoned (counted as dropped).
      R.RetryDropped += RetryQ.size();
      R.Skipped = Sched.skippedArrivals();
      Lag[T].store(0, std::memory_order_relaxed);
    });

  Wd.start();
  uint64_t Begin = nowNs();
  StartNs.store(Begin, std::memory_order_release);
  Director.start(Begin);
  Start.arriveAndWait();
  for (auto &W : Workers)
    W.join();
  Director.stop();
  MonitorRun.store(false, std::memory_order_release);
  Monitor.join();
  Wd.stop();
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();

  // --- End-of-run oracles (quiescent, so every check is exact) -----------
  uint64_t Violations = 0;
  auto Violation = [&](const char *Fmt, unsigned long long A,
                       unsigned long long B) {
    std::fprintf(stderr, "chaos ORACLE VIOLATION: ");
    std::fprintf(stderr, Fmt, A, B);
    std::fprintf(stderr, "\n");
    ++Violations;
  };
  for (const auto &R : Results)
    Violations += R.Violations;
  std::vector<uint64_t> Bumps(ShardCount, 0);
  for (const auto &R : Results)
    for (unsigned S = 0; S < ShardCount; ++S)
      Bumps[S] += R.PairBumps[S];
  for (unsigned S = 0; S < ShardCount; ++S) {
    if (PairToken[S].load(std::memory_order_relaxed) != 0)
      Violation("shard %llu exclusion token still held (%llu)", S,
                PairToken[S].load(std::memory_order_relaxed));
    uint64_t BadPair = Store.readShard(
        S, [&](const auto &Tab, auto &G) -> uint64_t {
          (void)G;
          auto A = Tab.get(chaosPairKeyA(S));
          auto B = Tab.get(chaosPairKeyB(S));
          if (!A.Found || !B.Found || A.Value != B.Value)
            return 1;
          return A.Value == Bumps[S] ? 0 : 2;
        });
    if (BadPair == 1)
      Violation("shard %llu pair keys torn or missing (code %llu)", S,
                BadPair);
    else if (BadPair == 2)
      Violation("shard %llu pair count != %llu writes (lost update)", S,
                Bumps[S]);
  }
  uint64_t ChurnLive = 0;
  for (int T = 0; T < Threads; ++T) {
    const auto &R = Results[static_cast<std::size_t>(T)];
    for (unsigned I = 0; I < ChaosChurnPerThread; ++I) {
      bool Bit = (R.ChurnBits[I / 64] >> (I % 64)) & 1;
      ChurnLive += Bit ? 1 : 0;
      bool Present = Store.get(chaosChurnKey(T, I)).has_value();
      if (Bit != Present)
        Violation("churn key (worker %llu, idx %llu) bitmap mismatch",
                  static_cast<unsigned long long>(T), I);
    }
  }
  uint64_t Expected = P.Keys + 2ull * ShardCount + ChurnLive;
  if (Store.size() != Expected)
    Violation("size conservation: store has %llu entries, expected %llu",
              Store.size(), Expected);
  if (!Store.quiesce())
    Violation("leak oracle: pool live cells != live entries (%llu/%llu)", 0,
              0);

  // --- Report ------------------------------------------------------------
  ChaosWorkerResult Sum;
  LatencyHistogram All;
  for (int T = 0; T < Threads; ++T) {
    const auto &R = Results[static_cast<std::size_t>(T)];
    Sum.Done += R.Done;
    Sum.ShedCount += R.ShedCount;
    Sum.Timeouts += R.Timeouts;
    Sum.Retries += R.Retries;
    Sum.RetryDenied += R.RetryDenied;
    Sum.RetryDropped += R.RetryDropped;
    Sum.Skipped += R.Skipped;
    All.mergeFrom(Admitted[static_cast<std::size_t>(T)]);
  }
  resilience::SpeculationWatchdog::Stats WS = Wd.stats();
  uint64_t P99 = All.quantile(0.99);
  bool SloMet = P99 <= CS.DegradedSloNs;
  for (const auto &Diag : Wd.diagnostics())
    std::printf("%s\n", Diag.render().c_str());
  std::printf(
      "admitted %llu (p50 %.1f us, p99 %.1f us, max %.1f us) | shed %llu "
      "timeout %llu retry %llu (denied %llu dropped %llu) skipped %llu\n"
      "faults applied %llu | corrupt restores rejected %llu/%llu | shed "
      "level %u (ups %llu downs %llu, %llu/%llu degraded windows)\n"
      "watchdog: polls %llu stalls %llu storms %llu rev-storms %llu -> "
      "forced disables %llu, forced revocations %llu\n"
      "degraded-mode SLO %.0f us: %s | oracle violations: %llu\n",
      static_cast<unsigned long long>(Sum.Done), usOf(All.quantile(0.50)),
      usOf(P99), usOf(All.max()),
      static_cast<unsigned long long>(Sum.ShedCount),
      static_cast<unsigned long long>(Sum.Timeouts),
      static_cast<unsigned long long>(Sum.Retries),
      static_cast<unsigned long long>(Sum.RetryDenied),
      static_cast<unsigned long long>(Sum.RetryDropped),
      static_cast<unsigned long long>(Sum.Skipped),
      static_cast<unsigned long long>(Director.faultsApplied()),
      static_cast<unsigned long long>(
          CorruptRejected.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          CorruptAttempts.load(std::memory_order_relaxed)),
      Shed.level(), static_cast<unsigned long long>(Shed.levelUps()),
      static_cast<unsigned long long>(Shed.levelDowns()),
      static_cast<unsigned long long>(Shed.degradedWindows()),
      static_cast<unsigned long long>(Shed.windows()),
      static_cast<unsigned long long>(WS.Polls),
      static_cast<unsigned long long>(WS.StallsDetected),
      static_cast<unsigned long long>(WS.FailureStorms),
      static_cast<unsigned long long>(WS.RevocationStorms),
      static_cast<unsigned long long>(WS.ForcedDisables),
      static_cast<unsigned long long>(WS.ForcedRevocations),
      usOf(CS.DegradedSloNs), SloMet ? "met" : "MISSED",
      static_cast<unsigned long long>(Violations));
  if (CorruptRejected.load(std::memory_order_relaxed) !=
      CorruptAttempts.load(std::memory_order_relaxed))
    Violation("corrupt warm-image restore was accepted (%llu of %llu)",
              CorruptAttempts.load(std::memory_order_relaxed) -
                  CorruptRejected.load(std::memory_order_relaxed),
              CorruptAttempts.load(std::memory_order_relaxed));

  BenchResult BR;
  BR.Ops = Sum.Done;
  BR.Seconds = static_cast<double>(P.DurationNs) * 1e-9;
  BR.OpsPerSec =
      BR.Seconds > 0 ? static_cast<double>(BR.Ops) / BR.Seconds : 0.0;
  BR.Delta = countersDelta(Before, After);
  Json.add("chaos", Policy::name(), P.Threads, BR,
           {{"offered_per_sec", CS.RatePerSec},
            {"admitted_p50_us", usOf(All.quantile(0.50))},
            {"admitted_p99_us", usOf(P99)},
            {"admitted_max_us", usOf(All.max())},
            {"deadline_us", usOf(CS.DeadlineNs)},
            {"degraded_slo_us", usOf(CS.DegradedSloNs)},
            {"degraded_slo_met", SloMet ? 1.0 : 0.0},
            {"shed", static_cast<double>(Sum.ShedCount)},
            {"timeouts", static_cast<double>(Sum.Timeouts)},
            {"retries", static_cast<double>(Sum.Retries)},
            {"retry_denied", static_cast<double>(Sum.RetryDenied)},
            {"retry_dropped", static_cast<double>(Sum.RetryDropped)},
            {"skipped_arrivals", static_cast<double>(Sum.Skipped)},
            {"shed_level_ups", static_cast<double>(Shed.levelUps())},
            {"shed_level_downs", static_cast<double>(Shed.levelDowns())},
            {"degraded_windows", static_cast<double>(Shed.degradedWindows())},
            {"faults_applied", static_cast<double>(Director.faultsApplied())},
            {"corrupt_restores_rejected",
             static_cast<double>(
                 CorruptRejected.load(std::memory_order_relaxed))},
            {"wd_stalls", static_cast<double>(WS.StallsDetected)},
            {"wd_failure_storms", static_cast<double>(WS.FailureStorms)},
            {"wd_revocation_storms",
             static_cast<double>(WS.RevocationStorms)},
            {"wd_forced_disables", static_cast<double>(WS.ForcedDisables)},
            {"wd_forced_revocations",
             static_cast<double>(WS.ForcedRevocations)},
            {"oracle_violations", static_cast<double>(Violations)}});
  return Violations;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  printBanner(
      "KV service", "sharded store under open-loop Poisson/Zipfian load",
      "beyond the paper: service-style tail-latency evaluation (ROADMAP "
      "item 1);\nread-side elision/bias should hold p99 and saturation "
      "above the plain Lock.");

  KvBenchParams P;
  P.Shards = static_cast<unsigned>(Env.Args.getInt("shards", 16));
  P.Keys = static_cast<uint64_t>(
      Env.Args.getInt("keys", Env.Quick ? 4096 : 1 << 16));
  P.Zipf = Env.Args.getDouble("zipf", 0.99);
  P.PutPct = static_cast<unsigned>(Env.Args.getInt("put", 3));
  P.DelPct = static_cast<unsigned>(Env.Args.getInt("del", 1));
  P.ScanPct = static_cast<unsigned>(Env.Args.getInt("scan", 1));
  P.Threads = static_cast<int>(Env.Args.getInt("threads", Env.Quick ? 2 : 4));
  P.DurationNs = static_cast<uint64_t>(Env.Args.getInt(
                     "duration-ms", Env.Quick ? 60 : 400)) *
                 1000000ull;
  P.Pin = Env.Args.getBool("pin", true);
  P.Seed = Env.Seed;
  P.BurstFactor = Env.Args.getDouble("burst-factor", 1.0);
  P.BurstPeriodNs = static_cast<uint64_t>(
                        Env.Args.getInt("burst-period-ms", 200)) *
                    1000000ull;
  P.BurstLenNs =
      static_cast<uint64_t>(Env.Args.getInt("burst-len-ms", 50)) * 1000000ull;
  SOLERO_CHECK(P.PutPct + P.DelPct + P.ScanPct <= 100,
               "op mix exceeds 100 percent");

  SweepParams Sweep;
  Sweep.BaseRate = Env.Args.getDouble("rate", Env.Quick ? 4000 : 30000);
  Sweep.Factor = Env.Args.getDouble("sweep-factor", 1.6);
  Sweep.Steps = static_cast<int>(
      Env.Args.getInt("sweep-steps", Env.Quick ? 2 : 7));
  Sweep.SloNs = static_cast<uint64_t>(Env.Args.getInt(
                    "slo-us", Env.Quick ? 50000 : 2000)) *
                1000ull;

  std::printf("shards=%u keys=%llu zipf=%.2f mix=GET %u%% / PUT %u%% / "
              "DEL %u%% / SCAN %u%% threads=%d\nwindow=%llums "
              "burst-factor=%.1f pin=%d sweep: %g ops/s x%.2f, %d steps, "
              "p99 SLO %llu us\n",
              P.Shards, static_cast<unsigned long long>(P.Keys), P.Zipf,
              100 - P.PutPct - P.DelPct - P.ScanPct, P.PutPct, P.DelPct,
              P.ScanPct, P.Threads,
              static_cast<unsigned long long>(P.DurationNs / 1000000),
              P.BurstFactor, P.Pin ? 1 : 0, Sweep.BaseRate, Sweep.Factor,
              Sweep.Steps,
              static_cast<unsigned long long>(Sweep.SloNs / 1000));

  const bool ChaosMode =
      Env.Args.has("chaos") && Env.Args.getBool("chaos", true);
  const ZipfianSampler Zipf(P.Keys, P.Zipf);
  // The chaos soak defaults to the two adaptive-speculation stacks (the
  // states the watchdog guards); the sweep keeps its portfolio default.
  std::string Policies = Env.Args.getString(
      "policies",
      ChaosMode ? "Adaptive-SOLERO,BravoRW" : "Lock,RWLock,BravoRW,SOLERO,SeqLock");
  JsonReport Json("kv_service");
  // Exact comma-token match ("Lock" must not select RWLock or SeqLock).
  auto Wants = [&](const char *Name) {
    std::size_t Pos = 0;
    while (Pos <= Policies.size()) {
      std::size_t Comma = Policies.find(',', Pos);
      if (Comma == std::string::npos)
        Comma = Policies.size();
      if (Policies.compare(Pos, Comma - Pos, Name) == 0 ||
          Policies.compare(Pos, Comma - Pos, "all") == 0)
        return true;
      Pos = Comma + 1;
    }
    return false;
  };
  if (ChaosMode) {
    KvBenchParams CP = P;
    if (!Env.Args.has("duration-ms")) // a fault campaign needs room
      CP.DurationNs = (Env.Quick ? 1500ull : 5000ull) * 1000000ull;
    ChaosSoakParams CS;
    CS.RatePerSec = Env.Args.getDouble("rate", Env.Quick ? 3000 : 15000);
    CS.DeadlineNs = static_cast<uint64_t>(Env.Args.getInt(
                        "deadline-us", Env.Quick ? 50000 : 20000)) *
                    1000ull;
    CS.DegradedSloNs =
        static_cast<uint64_t>(Env.Args.getInt(
            "degraded-slo-us",
            static_cast<int64_t>(3 * CS.DeadlineNs / 1000))) *
        1000ull;
    CS.WindowNs = static_cast<uint64_t>(
                      Env.Args.getInt("shed-window-ms", 50)) *
                  1000000ull;
    CS.RetryPerSec = Env.Args.getDouble("retry-rate", 200);
    CS.RetryBurst = Env.Args.getDouble("retry-burst", 20);
    CS.Chaos.Seed = Env.Seed;
    CS.Chaos.MeanGapNs = static_cast<uint64_t>(
                             Env.Args.getInt("chaos-gap-ms", 150)) *
                         1000000ull;
    CS.Chaos.MinEventNs = static_cast<uint64_t>(
                              Env.Args.getInt("chaos-min-ms", 30)) *
                          1000000ull;
    CS.Chaos.MaxEventNs = static_cast<uint64_t>(
                              Env.Args.getInt("chaos-max-ms", 100)) *
                          1000000ull;
    CS.Chaos.SlowShardDelayNs = static_cast<uint64_t>(Env.Args.getInt(
                                    "slow-shard-us", 200)) *
                                1000ull;
    CS.Chaos.KindMask = static_cast<uint32_t>(
        Env.Args.getInt("chaos-kinds", 0xffffffff));
    // Shed before deadlines blow: breach at half the request budget.
    CS.Shed.SloP99Ns = CS.DeadlineNs / 2;
    CS.Shed.BacklogBreachNs = CS.DeadlineNs;
    CS.Wd.StallBoundNs = static_cast<uint64_t>(Env.Args.getInt(
                             "stall-bound-ms", 100)) *
                         1000000ull;
    std::printf("chaos: deadline %llu us, degraded SLO %llu us, rate %g/s, "
                "shed window %llu ms, retry %.0f/s burst %.0f\n",
                static_cast<unsigned long long>(CS.DeadlineNs / 1000),
                static_cast<unsigned long long>(CS.DegradedSloNs / 1000),
                CS.RatePerSec,
                static_cast<unsigned long long>(CS.WindowNs / 1000000),
                CS.RetryPerSec, CS.RetryBurst);

    uint64_t Violations = 0;
    if (Wants("Lock"))
      Violations += runChaosSoak<TasukiPolicy>(Env, Json, CP, Zipf, CS);
    if (Wants("RWLock"))
      Violations += runChaosSoak<RwPolicy>(Env, Json, CP, Zipf, CS);
    if (Wants("BravoRW"))
      Violations += runChaosSoak<BravoRwPolicy>(Env, Json, CP, Zipf, CS);
    if (Wants("SOLERO"))
      Violations += runChaosSoak<SoleroPolicy>(Env, Json, CP, Zipf, CS);
    if (Wants("Adaptive-SOLERO"))
      Violations +=
          runChaosSoak<AdaptiveSoleroPolicy>(Env, Json, CP, Zipf, CS);
    if (Wants("SeqLock"))
      Violations += runChaosSoak<SeqLockPolicy>(Env, Json, CP, Zipf, CS);
    bool JsonOk = Json.write(Env.JsonPath);
    std::printf("\nchaos verdict: %llu oracle violation(s)%s\n",
                static_cast<unsigned long long>(Violations),
                Violations ? " [FAIL]" : " [ok]");
    return (Violations == 0 && JsonOk) ? 0 : 1;
  }

  const std::string CkptPath = Env.Args.getString("checkpoint", "");
  const std::string RestPath = Env.Args.getString("restore", "");
  image::ImageBuilder Builder;
  image::ImageBuilder *Ckpt = CkptPath.empty() ? nullptr : &Builder;
  image::LoadedImage Warm;
  image::Diagnostic LoadDiag;
  if (!RestPath.empty()) {
    Warm = image::LoadedImage::fromFile(RestPath, LoadDiag);
    if (!LoadDiag.ok()) // degrade to a cold run, never crash
      std::printf("warm image: %s\n", LoadDiag.render().c_str());
  }
  const image::LoadedImage *WarmP = Warm.loaded() ? &Warm : nullptr;

  if (Wants("Lock"))
    runPolicy<TasukiPolicy>(Env, Json, P, Sweep, Zipf, Ckpt, WarmP);
  if (Wants("RWLock"))
    runPolicy<RwPolicy>(Env, Json, P, Sweep, Zipf, Ckpt, WarmP);
  if (Wants("BravoRW"))
    runPolicy<BravoRwPolicy>(Env, Json, P, Sweep, Zipf, Ckpt, WarmP);
  if (Wants("SOLERO"))
    runPolicy<SoleroPolicy>(Env, Json, P, Sweep, Zipf, Ckpt, WarmP);
  if (Wants("Adaptive-SOLERO")) // off the default list; carries the
    runPolicy<AdaptiveSoleroPolicy>(Env, Json, P, Sweep, Zipf, Ckpt,
                                    WarmP); // richest controller state
  if (Wants("SeqLock"))
    runPolicy<SeqLockPolicy>(Env, Json, P, Sweep, Zipf, Ckpt, WarmP);

  if (Ckpt) {
    image::Diagnostic D;
    if (Builder.writeFile(CkptPath, D))
      std::printf("\ncheckpoint: wrote warm image (%zu policy blobs) to %s\n",
                  Builder.blobCount(), CkptPath.c_str());
    else
      std::fprintf(stderr, "checkpoint: %s\n", D.render().c_str());
  }

  return Json.write(Env.JsonPath) ? 0 : 1;
}
