//===- perfbench/src/KvOpenLoop.cpp - kv-open-loop ----------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Open loop over a ShardedKvStore<SoleroPolicy> (16 shards, 64K keys
/// prefilled, scrambled Zipf 0.99, GET 95 / PUT 3 / DELETE 1 / SCAN 1).
///
/// One seeded Poisson schedule per window is shared by the 3 workers: an
/// idle worker claims the next arrival, spins (never sleeps) until it is
/// due and serves it, so the service is an M/G/3 queue and a preempted
/// worker delays only the request it holds. Latency is charged from the
/// scheduled time. Each window starts with an empty queue and its
/// percentiles are computed alone; a phase reports the median over its
/// windows, which keeps one preempted window from deciding the number.
///
/// Per request the worker records
///   queue wait   scheduled -> claimed (0 when a worker was already idle);
///   generator lag dispatch lateness of a request an idle worker claimed
///                early and spun for (the generator's own error);
///   service      dispatch -> done of the store call;
///   latency      scheduled -> done.
/// A ladder step is invalid when its generator lag p99 exceeds its GET
/// service p99; an invalid step never counts as meeting the SLO.
///
/// Capacity windows interleaved with the others measure the closed-loop
/// throughput (ops_per_s): a burst of requests, all due at once, drawn
/// from the same stream and served by the same three workers as fast as
/// they go, on CPUs they had to themselves (see CpuShare).
///
/// The traced run traces every other heavy window (1 request in 8), so
/// the span metrics describe heavy traffic only; the other windows run
/// untraced as in the plain run.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <thread>

#include "kv/ShardedKvStore.h"
#include "support/Backoff.h"
#include "support/CacheLine.h"
#include "support/Distributions.h"
#include "support/Rng.h"
#include "workloads/Harness.h"
#include "workloads/LockPolicies.h"

namespace perfbench {
namespace {

using Store = solero::kv::ShardedKvStore<solero::SoleroPolicy>;

constexpr int Workers = 3;
constexpr unsigned Shards = 16;
constexpr uint64_t Keys = 64 * 1024; // ~5 MB: beyond the 2 MB L2, inside L3
constexpr double ZipfTheta = 0.99;
constexpr uint64_t WindowNs = 100'000'000;
constexpr uint64_t TraceSampleMask = 7; // trace 1 request in 8

// Offered rates, chosen from measurements on a 4-vCPU Xeon VM (README.md).
// A GET is ~0.25 us of service but a SCAN holds a worker for ~85 us, so a
// GET waits only when all three workers are busy, nearly always with
// scans, and then for a scan's residual (tens of us). GET latency is thus
// bimodal, and its p99 is stable only where the chance of waiting is far
// from 1%: about 0.02% at light (p99 = service tail plus dispatch) and
// about 5% at heavy (p99 = the wait behind scans). Near 400k/s that chance
// crosses 1% and the p99 swung between 25 and 37 us from run to run.
constexpr double LightRate = 100e3;
constexpr double HeavyRate = 700e3;
// The max_rate_at_slo ladder: 1.12x steps bracketing the rate where the
// GET p99 crosses the limit (~500k/s), all below the knee: the workers
// saturate between 1.3M/s and 1.9M/s depending on the host's load.
constexpr std::array<double, 8> Ladder = {350e3, 393e3, 442e3, 497e3,
                                          558e3, 627e3, 705e3, 792e3};
// GET p99 limit: 50 us, ~200x the GET service time. It admits a short wait
// behind a scan but not a growing backlog or a preemption (ms). A limit
// in the knee (200 us was tried) makes max_rate_at_slo follow the
// saturation point, which moved between 1.1M/s and 1.8M/s from run to
// run with the host's load; below the knee it moves ~1.8x as much as the
// host speed does.
constexpr double GetP99LimitNs = 50e3;
// A window whose last request completes more than this after its due time
// did not keep up: the backlog was still growing when arrivals stopped.
constexpr uint64_t KeepUpNs = 1'000'000;
// Requests not dispatched this long after the window's end are abandoned
// and counted as failed (never reached on a stable step).
constexpr uint64_t AbandonNs = 2'000'000'000;
// Requests in one capacity window: ~70 ms at the ~1.5M/s the three
// workers sustain on this mix.
constexpr std::size_t CapacityRequests = 100'000;

enum OpKind : uint8_t { Get, Put, Del, Scan, OpKinds };
enum Class { GetC, UpdateC, ScanC, Classes };
Class classOf(uint8_t Op) {
  return Op == Get ? GetC : Op == Scan ? ScanC : UpdateC;
}

struct Arrival {
  uint64_t DueNs; ///< offset from the window start
  uint32_t Key;
  uint8_t Op;
};

/// The run's one seeded request stream: arrival gaps, op mix and keys.
class Generator {
public:
  explicit Generator(uint64_t Seed)
      : Rng(Seed ^ 0x6b766f70656e6c70ULL), Zipf(Keys, ZipfTheta) {}

  /// One window's Poisson arrivals at \p Rate, or with a zero rate a
  /// capacity burst of CapacityRequests requests all due at once.
  std::vector<Arrival> window(double Rate) {
    std::vector<Arrival> A;
    if (Rate == 0) {
      A.reserve(CapacityRequests);
      while (A.size() < CapacityRequests)
        draw(A, 0);
      return A;
    }
    solero::PoissonProcess P(Rate);
    A.reserve(static_cast<std::size_t>(Rate * 1.2e-9 * WindowNs));
    for (uint64_t T = P.nextGapNs(Rng); T < WindowNs; T += P.nextGapNs(Rng))
      draw(A, T);
    return A;
  }
  uint64_t digest() const { return D.value(); }
  const std::array<uint64_t, OpKinds> &counts() const { return Counts; }

private:
  void draw(std::vector<Arrival> &A, uint64_t DueNs) {
    uint64_t Mix = Rng.nextBounded(100);
    uint8_t Op = Mix < 95 ? Get : Mix < 98 ? Put : Mix < 99 ? Del : Scan;
    uint32_t Key = static_cast<uint32_t>(Zipf.nextScrambled(Rng));
    A.push_back({DueNs, Key, Op});
    D.add(DueNs);
    D.add(Key | (uint64_t(Op) << 32));
    ++Counts[Op];
  }

  solero::Xoshiro256StarStar Rng;
  solero::ZipfianSampler Zipf;
  StreamDigest D;
  std::array<uint64_t, OpKinds> Counts{};
};

struct Phase {
  const char *Name;
  double Rate; ///< 0 for the closed-loop capacity phase
  int PerRound; ///< windows per round
};

/// The phases a run measures. Heavy carries most of the latency metrics,
/// so it gets three windows per round, and capacity two. The traced run
/// measures the same phases and traces every other heavy window.
std::vector<Phase> phases() {
  std::vector<Phase> P = {
      {"light", LightRate, 1}, {"heavy", HeavyRate, 3}, {"capacity", 0, 2}};
  for (double R : Ladder)
    P.push_back({"ladder", R, 1});
  return P;
}

/// The order windows run in, as phase indices: rounds over every phase,
/// reversed every other round, so host noise that comes and goes during a
/// run lands on all phases alike. Fixed by --seconds, so the same seed and
/// seconds give the same schedule.
std::vector<std::size_t> windowOrder(const Options &O,
                                     const std::vector<Phase> &P) {
  std::size_t PerRound = 0;
  for (const Phase &X : P)
    PerRound += static_cast<std::size_t>(X.PerRound);
  const std::size_t Windows = static_cast<std::size_t>(
      O.Seconds / (static_cast<double>(WindowNs) * 1.15e-9));
  const std::size_t Rounds = std::max<std::size_t>(4, Windows / PerRound);
  std::vector<std::size_t> Order;
  for (std::size_t R = 0; R < Rounds; ++R)
    for (std::size_t K = 0; K < P.size(); ++K) {
      const std::size_t I = R % 2 ? P.size() - 1 - K : K;
      Order.insert(Order.end(), static_cast<std::size_t>(P[I].PerRound), I);
    }
  return Order;
}

uint64_t planDigest(const Options &O, uint64_t Seed) {
  Generator G(Seed);
  const std::vector<Phase> P = phases();
  for (std::size_t I : windowOrder(O, P))
    G.window(P[I].Rate);
  return G.digest();
}

/// Request counts of a window or a run.
struct Counts {
  std::array<uint64_t, OpKinds> Served{};
  uint64_t Hits = 0, TagMisses = 0, ScanMismatches = 0, Unserved = 0;
  int64_t NetInserts = 0;
  uint64_t TracedGets = 0, BodyRuns = 0;

  uint64_t served() const {
    uint64_t N = 0;
    for (uint64_t S : Served)
      N += S;
    return N;
  }
  void add(const Counts &O) {
    for (int K = 0; K < OpKinds; ++K)
      Served[K] += O.Served[K];
    Hits += O.Hits;
    TagMisses += O.TagMisses;
    ScanMismatches += O.ScanMismatches;
    Unserved += O.Unserved;
    NetInserts += O.NetInserts;
    TracedGets += O.TracedGets;
    BodyRuns += O.BodyRuns;
  }
};

/// Per-request timings, by request class.
struct Recorder {
  std::array<Samples, Classes> Lat, Svc;
  Samples QueueWait, GenLag;

  void reserve(std::size_t Arrivals) {
    for (auto *S : {&Lat[GetC], &Svc[GetC], &QueueWait, &GenLag})
      S->reserve(Arrivals);
    for (Class C : {UpdateC, ScanC}) {
      Lat[C].reserve(Arrivals / 16);
      Svc[C].reserve(Arrivals / 16);
    }
  }
  void append(const Recorder &O) {
    for (int C = 0; C < Classes; ++C) {
      Lat[C].append(O.Lat[C]);
      Svc[C].append(O.Svc[C]);
    }
    QueueWait.append(O.QueueWait);
    GenLag.append(O.GenLag);
  }
};

struct alignas(solero::CacheLineSize) WorkerStats {
  Recorder Rec;
  Counts Cnt;
  uint64_t LastDone = 0;
};

/// One window's percentiles (ns), computed from that window alone.
struct WindowSummary {
  double OpsPerSec; ///< capacity windows only
  double GetMid, GetP50, GetP99, UpdateP99, ScanP99;
  double SvcGetP50, SvcGetP99, SvcUpdateP99, SvcScanP99;
  double QueueP99, LagP99;
  bool KeptUp, Traced;
};

/// Median over windows of one summary field.
double med(const std::vector<WindowSummary> &Ws, double WindowSummary::*F,
           bool Traced) {
  std::vector<double> V;
  for (const WindowSummary &W : Ws)
    if (W.Traced == Traced)
      V.push_back(W.*F);
  return median(V);
}

struct SpanIds {
  uint16_t Request, PinEnter, PinExit, Read, Probe, Write, Scan;
};

class Server {
public:
  Server(Store &S, Tracer *Tr) : S(S), Tr(Tr) {
    if (!Tr)
      return;
    for (int W = 0; W < Workers; ++W)
      Tr->lane(static_cast<std::size_t>(W));
    Ids = {Tr->name("kv.request"),  Tr->name("mm.pin.enter"),
           Tr->name("mm.pin.exit"), Tr->name("core.read"),
           Tr->name("kv.probe"),    Tr->name("core.write"),
           Tr->name("kv.scan")};
  }

  /// Serves one window's arrivals; adds its counts to \p Total and its
  /// latencies to \p Pool. A capacity burst (\p Closed) records no
  /// latencies, only its throughput.
  WindowSummary run(const std::vector<Arrival> &A, bool Traced, bool Closed,
                    Counts &Total, std::array<Samples, Classes> &Pool) {
    std::vector<std::unique_ptr<WorkerStats>> Stats;
    for (int W = 0; W < Workers; ++W) {
      Stats.push_back(std::make_unique<WorkerStats>());
      Stats.back()->Rec.reserve(A.size() / Workers * 2);
    }
    alignas(solero::CacheLineSize) std::atomic<std::size_t> Next{0};
    alignas(solero::CacheLineSize) std::atomic<uint64_t> Start{0};
    std::atomic<int> Ready{0};
    std::vector<std::thread> Threads;
    for (int W = 0; W < Workers; ++W)
      Threads.emplace_back([&, W] {
        WorkerStats &St = *Stats[static_cast<std::size_t>(W)];
        Lane *L = Traced ? &Tr->lane(static_cast<std::size_t>(W)) : nullptr;
        Ready.fetch_add(1, std::memory_order_acq_rel);
        uint64_t T0;
        while ((T0 = Start.load(std::memory_order_acquire)) == 0)
          std::this_thread::yield();
        const uint64_t Abandon = T0 + WindowNs + AbandonNs;
        for (;;) {
          std::size_t I = Next.fetch_add(1, std::memory_order_relaxed);
          if (I >= A.size())
            break;
          const Arrival &Ar = A[I];
          const uint64_t Due = T0 + Ar.DueNs;
          uint64_t Dispatch = nowNs();
          if (Dispatch > Abandon)
            break;
          if (Dispatch < Due) {
            while ((Dispatch = nowNs()) < Due)
              solero::cpuRelax();
            St.Rec.GenLag.record(Dispatch - Due);
            St.Rec.QueueWait.record(0);
          } else if (!Closed) {
            St.Rec.QueueWait.record(Dispatch - Due);
          }
          if (L && (I & TraceSampleMask) == 0)
            serveTraced(*L, St, Ar, (WindowSeq << 32) | I);
          else
            serve(St, Ar, I);
          const uint64_t Done = nowNs();
          if (!Closed) {
            const Class C = classOf(Ar.Op);
            St.Rec.Lat[C].record(Done - Due);
            St.Rec.Svc[C].record(Done - Dispatch);
          }
          ++St.Cnt.Served[Ar.Op];
          St.LastDone = Done;
        }
      });
    while (Ready.load(std::memory_order_acquire) < Workers)
      std::this_thread::yield();
    const uint64_t T0 = nowNs() + 200'000;
    Start.store(T0, std::memory_order_release);
    for (auto &T : Threads)
      T.join();

    Recorder Rec;
    Counts Cnt;
    uint64_t LastDone = 0;
    for (const auto &St : Stats) {
      Rec.append(St->Rec);
      Cnt.add(St->Cnt);
      LastDone = std::max(LastDone, St->LastDone);
    }
    Cnt.Unserved = A.size() - Cnt.served();
    WindowSummary WS{};
    if (Closed && LastDone > T0)
      WS.OpsPerSec = static_cast<double>(Cnt.served()) * 1e9 /
                     static_cast<double>(LastDone - T0);
    WS.GetMid = Rec.Lat[GetC].midMean();
    WS.GetP50 = Rec.Lat[GetC].quantile(0.5);
    WS.GetP99 = Rec.Lat[GetC].quantile(0.99);
    WS.UpdateP99 = Rec.Lat[UpdateC].quantile(0.99);
    WS.ScanP99 = Rec.Lat[ScanC].quantile(0.99);
    WS.SvcGetP50 = Rec.Svc[GetC].quantile(0.5);
    WS.SvcGetP99 = Rec.Svc[GetC].quantile(0.99);
    WS.SvcUpdateP99 = Rec.Svc[UpdateC].quantile(0.99);
    WS.SvcScanP99 = Rec.Svc[ScanC].quantile(0.99);
    WS.QueueP99 = Rec.QueueWait.quantile(0.99);
    WS.LagP99 = Rec.GenLag.quantile(0.99);
    WS.KeptUp = Cnt.Unserved == 0 &&
                (Closed || A.empty() ||
                 LastDone <= T0 + A.back().DueNs + KeepUpNs);
    WS.Traced = Traced;
    ++WindowSeq;
    Total.add(Cnt);
    for (int C = 0; C < Classes; ++C)
      Pool[C].append(Rec.Lat[C]);
    return WS;
  }

private:
  void serve(WorkerStats &St, const Arrival &Ar, uint64_t Seq) {
    switch (Ar.Op) {
    case Get: {
      std::optional<uint64_t> V = S.get(Ar.Key);
      if (V) {
        ++St.Cnt.Hits;
        St.Cnt.TagMisses += !tagMatches(Ar.Key, *V);
      }
      break;
    }
    case Put:
      St.Cnt.NetInserts += S.put(Ar.Key, taggedValue(Ar.Key, Seq));
      break;
    case Del:
      St.Cnt.NetInserts -= S.remove(Ar.Key);
      break;
    case Scan:
      scan(St, Ar.Key);
      break;
    }
  }

  /// SCAN as one read section that also reads the shard's live count: in
  /// a validated section the two agree (the scan-consistency oracle).
  void scan(WorkerStats &St, uint32_t Key) {
    auto [Scanned, Live] = S.readShard(
        S.shardOf(Key), [](const solero::kv::ShardTable &T,
                           solero::ReadGuard &) {
          return std::pair<uint64_t, uint64_t>(T.scan().LiveEntries,
                                               T.liveCount());
        });
    St.Cnt.ScanMismatches += Scanned != Live;
  }

  /// The same request with spans around each call into a layer. A GET
  /// goes through readShard so the probe itself can be spanned; the extra
  /// outer epoch pin makes the store's own pin a nested (depth-only) one.
  void serveTraced(Lane &L, WorkerStats &St, const Arrival &Ar,
                   uint64_t Req) {
    const uint32_t Root = L.open(Ids.Request, NoParent, Req);
    switch (Ar.Op) {
    case Get: {
      uint32_t P = L.open(Ids.PinEnter, Root, Req);
      std::optional<solero::EpochReclaimer::Pin> Pin(std::in_place, S.epoch());
      L.close(P);
      uint32_t Rd = L.open(Ids.Read, Root, Req);
      solero::kv::ShardTable::Lookup R = S.readShard(
          S.shardOf(Ar.Key),
          [&](const solero::kv::ShardTable &T, solero::ReadGuard &) {
            uint32_t B = L.open(Ids.Probe, Rd, Req);
            ++St.Cnt.BodyRuns;
            solero::kv::ShardTable::Lookup X = T.get(Ar.Key);
            L.close(B);
            return X;
          });
      L.close(Rd);
      uint32_t E = L.open(Ids.PinExit, Root, Req);
      Pin.reset();
      L.close(E);
      ++St.Cnt.TracedGets;
      if (R.Found) {
        ++St.Cnt.Hits;
        St.Cnt.TagMisses += !tagMatches(Ar.Key, R.Value);
      }
      break;
    }
    case Put:
    case Del: {
      uint32_t W = L.open(Ids.Write, Root, Req);
      serve(St, Ar, Req);
      L.close(W);
      break;
    }
    case Scan: {
      uint32_t Sc = L.open(Ids.Scan, Root, Req);
      scan(St, Ar.Key);
      L.close(Sc);
      break;
    }
    }
    L.close(Root);
  }

  Store &S;
  Tracer *Tr;
  SpanIds Ids{};
  uint64_t WindowSeq = 0; ///< high half of a traced request's id
};

std::unique_ptr<Store> buildStore(solero::RuntimeContext &Ctx) {
  solero::kv::KvStoreConfig C;
  C.Shards = Shards;
  auto S = std::make_unique<Store>(Ctx, C);
  for (uint64_t K = 0; K < Keys; ++K)
    S->put(K, taggedValue(K, 0));
  return S;
}

} // namespace

Result runKvOpenLoop(const Options &O) {
  Result R;
  solero::RuntimeContext Ctx;

  // --- Setup: store construction and prefill ------------------------------
  // The store measured is the first one. Another is built, timed and
  // dropped after every tenth window, so the median setup_s samples the
  // whole run rather than its first milliseconds.
  std::vector<double> SetupS;
  auto build = [&] {
    uint64_t T0 = nowNs();
    std::unique_ptr<Store> S = buildStore(Ctx);
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    return S;
  };
  std::unique_ptr<Store> S = build();

  // --- Determinism self-check over the whole window plan -----------------
  // The schedule served below must be the one planned here (checked after
  // the windows), and another seed must plan another one.
  const uint64_t Digest = planDigest(O, O.Seed);
  if (planDigest(O, O.Seed + 1) == Digest)
    R.violation("a different seed produced the same schedule");

  // --- Windows -------------------------------------------------------------
  Tracer Tr;
  Server Srv(*S, O.Trace ? &Tr : nullptr);
  Generator G(O.Seed);
  const uint64_t Resizes0 = S->totalResizes();
  const uint64_t Epoch0 = S->epoch().globalEpoch();
  // Counter deltas cover the windows only, not the scratch stores' prefill.
  solero::ProtocolCounters D;
  Counts Total;
  const std::vector<Phase> Ph = phases();
  constexpr std::size_t LightPhase = 0, HeavyPhase = 1, CapacityPhase = 2;
  std::vector<std::vector<WindowSummary>> Ws(Ph.size());
  std::vector<std::array<Samples, Classes>> Pool(Ph.size());
  std::size_t Window = 0, HeavyWindow = 0;
  for (std::size_t I : windowOrder(O, Ph)) {
    std::vector<Arrival> A = G.window(Ph[I].Rate);
    const bool Traced =
        O.Trace && I == HeavyPhase && HeavyWindow++ % 2 == 1;
    const solero::ProtocolCounters C0 =
        solero::ThreadRegistry::instance().totalCounters();
    if (Traced)
      Tr.beginWindow();
    R.Speed.sample();
    const CpuShare Share;
    Ws[I].push_back(
        Srv.run(A, Traced, I == CapacityPhase, Total, Pool[I]));
    Ws[I].back().OpsPerSec /= Share.left();
    if (Traced)
      Tr.endWindow();
    D += solero::countersDelta(
        C0, solero::ThreadRegistry::instance().totalCounters());
    if (++Window % 10 == 0)
      build();
  }
  if (G.digest() != Digest)
    R.violation("the schedule served differs from the one the seed plans");

  // --- Oracles ---------------------------------------------------------------
  const uint64_t Served = Total.served();
  R.Attempted = Served + Total.Unserved;
  R.Failed = Total.TagMisses + Total.ScanMismatches + Total.Unserved;
  if (Total.TagMisses)
    R.violation(std::to_string(Total.TagMisses) +
                " GET hits returned a value tagged for another key");
  if (Total.ScanMismatches)
    R.violation(std::to_string(Total.ScanMismatches) +
                " scans disagreed with the shard's live count");
  if (Total.Unserved)
    R.violation(std::to_string(Total.Unserved) +
                " arrivals were not served within the run");
  const int64_t Expected = static_cast<int64_t>(Keys) + Total.NetInserts;
  if (static_cast<int64_t>(S->size()) != Expected)
    R.violation("store holds " + std::to_string(S->size()) +
                " entries, prefill plus net inserts is " +
                std::to_string(Expected));
  if (!S->quiesce())
    R.violation("quiesce found leaked or double-freed pool cells");
  for (uint64_t K = 0; K < Keys; ++K) {
    std::optional<uint64_t> V = S->get(K);
    if (V && !tagMatches(K, *V))
      R.violation("key " + std::to_string(K) + " holds a mistagged value");
  }

  // --- Report ----------------------------------------------------------------
  const auto &Cnt = G.counts();
  note("digest %016llx; generated get=%llu put=%llu delete=%llu scan=%llu",
       static_cast<unsigned long long>(Digest),
       static_cast<unsigned long long>(Cnt[Get]),
       static_cast<unsigned long long>(Cnt[Put]),
       static_cast<unsigned long long>(Cnt[Del]),
       static_cast<unsigned long long>(Cnt[Scan]));
  note("served get=%llu put=%llu delete=%llu scan=%llu unserved=%llu",
       static_cast<unsigned long long>(Total.Served[Get]),
       static_cast<unsigned long long>(Total.Served[Put]),
       static_cast<unsigned long long>(Total.Served[Del]),
       static_cast<unsigned long long>(Total.Served[Scan]),
       static_cast<unsigned long long>(Total.Unserved));

  // A step meets the SLO when it is valid (generator lag p99 within the
  // GET service p99), most of its windows kept up, and its median-window
  // GET p99 is within the limit. An invalid step never meets it.
  // max_rate_at_slo is the highest ladder rate that meets it, 0 when none
  // does.
  double MaxRate = 0;
  const char *ClassNames[Classes] = {"get", "update", "scan"};
  for (std::size_t I = 0; I < Ph.size(); ++I) {
    const Phase &P = Ph[I];
    const std::vector<WindowSummary> &W = Ws[I];
    if (I == CapacityPhase) {
      note("%-6s %2d windows of %zu requests: median %.4g ops/s", P.Name,
           static_cast<int>(W.size()), CapacityRequests,
           med(W, &WindowSummary::OpsPerSec, false));
      continue;
    }
    const double P99 = med(W, &WindowSummary::GetP99, false);
    const double Lag = med(W, &WindowSummary::LagP99, false);
    const double Svc = med(W, &WindowSummary::SvcGetP99, false);
    int KeptUp = 0;
    for (const WindowSummary &X : W)
      KeptUp += X.KeptUp;
    const bool Valid = Lag <= Svc;
    const bool Meets = Valid && 2 * KeptUp >= static_cast<int>(W.size()) &&
                       P99 > 0 && P99 <= GetP99LimitNs;
    if (Meets && std::string(P.Name) == "ladder")
      MaxRate = std::max(MaxRate, P.Rate);
    note("%-6s %7.0f/s %2d windows: GET p50 %.3f us p99 %.3f us, update "
         "p99 %.3f us, scan p99 %.3f us, GET svc p99 %.3f us, queue p99 %.3f "
         "us, gen lag p99 %.3f us, kept up %d/%d%s%s",
         P.Name, P.Rate, static_cast<int>(W.size()),
         med(W, &WindowSummary::GetP50, false) / 1e3, P99 / 1e3,
         med(W, &WindowSummary::UpdateP99, false) / 1e3,
         med(W, &WindowSummary::ScanP99, false) / 1e3, Svc / 1e3,
         med(W, &WindowSummary::QueueP99, false) / 1e3, Lag / 1e3, KeptUp,
         static_cast<int>(W.size()), Valid ? "" : " INVALID",
         Meets ? " meets SLO" : "");
    for (int C = 0; C < Classes; ++C)
      note("       pooled %-6s latency %s", ClassNames[C],
           Pool[I][C].describe(1e3, "us").c_str());
  }
  note("max_rate_at_slo %.0f/s (highest ladder step meeting the limit)",
       MaxRate);

  const std::vector<WindowSummary> &Light = Ws[LightPhase],
                                   &Heavy = Ws[HeavyPhase];
  if (!O.Trace) {
    R.add("setup_s", median(SetupS), "s");
    R.add("ops_per_s", med(Ws[CapacityPhase], &WindowSummary::OpsPerSec, false),
          "1/s");
    // GETs are 95% of the requests; the interquartile mean of their
    // heavy-load latency from the scheduled time is the service's typical
    // latency.
    R.add("latency_us", med(Heavy, &WindowSummary::GetMid, false) / 1e3, "us");
    return R;
  }

  // --- Per-layer metrics (traced run: traced heavy windows) -----------------
  // The open loop's tails and capacity come from the untraced windows. They
  // are reported here, not gated as end-to-end metrics, because they
  // amplify host speed drift beyond the bounds of the gated metrics. A
  // heavy GET waits behind scans, and the wait grows like (rate x scan
  // time)^1.3 times the scan time: a 10% drift between two sets of runs
  // moved the tails by ~28%. The rate where the GET p99 crosses the limit
  // moves ~1.8x as much as the host speed (a fitted crossing had a spread
  // of 0.30 over ten runs), and max_rate_at_slo moves in whole ladder steps.
  R.add("kv.max_rate_at_slo", MaxRate, "1/s");
  // The light GET p50 is a metric, its p99 is not: the p99 sits on the tail
  // of the fast mode (cache-missing GETs), and host noise moved it between
  // 1.1 and 12 us from run to run. It is printed above.
  R.add("kv.get_p50_us.light", med(Light, &WindowSummary::GetP50, false) / 1e3,
        "us");
  R.add("kv.get_p99_us.heavy", med(Heavy, &WindowSummary::GetP99, false) / 1e3,
        "us");
  R.add("kv.update_p99_us.heavy",
        med(Heavy, &WindowSummary::UpdateP99, false) / 1e3, "us");
  R.add("kv.scan_p99_us.heavy",
        med(Heavy, &WindowSummary::ScanP99, false) / 1e3, "us");
  R.add("kv.get_service_ns.p50", med(Heavy, &WindowSummary::SvcGetP50, true),
        "ns");
  R.add("kv.get_service_ns.p99", med(Heavy, &WindowSummary::SvcGetP99, true),
        "ns");
  R.add("kv.update_service_ns.p99",
        med(Heavy, &WindowSummary::SvcUpdateP99, true), "ns");
  R.add("kv.scan_service_us.p99",
        med(Heavy, &WindowSummary::SvcScanP99, true) / 1e3, "us");
  R.add("kv.queue_wait_us.p99", med(Heavy, &WindowSummary::QueueP99, true) / 1e3,
        "us");
  R.add("kv.probe_ns", Tr.duration("kv.probe"), "ns");
  R.add("kv.body_runs_per_get",
        solero::safeRatio(Total.BodyRuns, Total.TracedGets), "1/op");
  R.add("kv.resizes", static_cast<double>(S->totalResizes() - Resizes0),
        "count");
  R.add("kv.hit_ratio", solero::safeRatio(Total.Hits, Total.Served[Get]),
        "ratio");
  R.add("gen.lag_p99_us", med(Heavy, &WindowSummary::LagP99, true) / 1e3, "us");
  R.add("gen.skipped", static_cast<double>(Total.Unserved), "count");
  R.add("mm.pin_ns", Tr.duration("mm.pin.enter") + Tr.duration("mm.pin.exit"),
        "ns");
  R.add("mm.epoch_advances",
        static_cast<double>(S->epoch().globalEpoch() - Epoch0) / 2, "count");
  R.add("core.read_overhead_ns", Tr.selfTime("core.read"), "ns");
  R.add("core.write_section_ns", Tr.duration("core.write"), "ns");
  addPolicyCounters(R, D, Served);
  addRuntimeCounters(R, D, Served);
  const double PlainP50 = med(Heavy, &WindowSummary::GetP50, false);
  const double TracedP50 = med(Heavy, &WindowSummary::GetP50, true);
  R.add("trace.overhead",
        PlainP50 > 0 ? TracedP50 / PlainP50 - 1.0 : 0.0, "ratio");
  note("trace: heavy GET p50 %.3f us untraced, %.3f us traced", PlainP50 / 1e3,
       TracedP50 / 1e3);
  writeTrace(O, Tr);
  return R;
}

} // namespace perfbench
