//===- perfbench/src/MapWorkloads.cpp - map-readonly / map-contended ---===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Closed loop, 4 client threads, one shared SynchronizedMap over a 1K-key
/// JavaHashMap guarded by one lock policy (SOLERO, Adaptive-SOLERO or
/// BravoRW; each is a workload of its own), a uniform key per op and
/// WritePercent puts that overwrite existing keys. The run is a series of
/// 100 ms windows; ops_per_s is the median window throughput on CPUs the
/// clients had to themselves (see CpuShare), so neither a lucky window nor
/// the hypervisor's share of the vCPUs decides it, and latency_us the mean
/// op latency it implies.
/// By Little's law, a closed loop of N clients that issue the next op as
/// soon as the last is done holds its ops for N / throughput on average.
///
/// Client thread T is pinned to CPU T, the same in every window.
///
/// The traced run alternates traced and untraced windows. A traced window
/// samples 1 op in 64 per thread: a Policy::read or Policy::write span
/// around the section and a collections.* span around the map call inside
/// it (one per body execution, so a retried speculation shows as several
/// children). Every traced window is summarised on its own and the span
/// metrics are medians over windows.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <array>

#include "collections/JavaHashMap.h"
#include "collections/SynchronizedMap.h"
#include "support/CacheLine.h"
#include "support/Rng.h"
#include "workloads/Harness.h"
#include "workloads/LockPolicies.h"

namespace perfbench {
namespace {

using solero::ProtocolCounters;
using HashMapT = solero::JavaHashMap<int64_t, int64_t>;

constexpr int Threads = 4;
constexpr int64_t Keys = 1024; // the paper's 1K entries: fits in L1/L2
constexpr uint64_t SampleMask = 63;
constexpr auto Window = std::chrono::milliseconds(100);
constexpr auto Warmup = std::chrono::milliseconds(10);
constexpr uint64_t DigestOpsPerThread = 1u << 16;

/// One thread's request stream. The first DigestOpsPerThread requests
/// drawn are digested, so a run can check that its clients consumed the
/// stream the seed plans.
class MapStream {
public:
  struct Req {
    int64_t Key;
    bool Write;
    uint64_t Low; ///< low half of the value a put stores
  };
  MapStream(uint64_t Seed, int Thread, unsigned WritePercent)
      : Rng(Seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(Thread)),
        WritePercent(WritePercent) {}
  Req next() {
    Req R;
    R.Key = static_cast<int64_t>(Rng.nextBounded(Keys));
    R.Write = WritePercent != 0 && Rng.nextPercent(WritePercent);
    R.Low = R.Write ? Rng.next() : 0;
    if (Drawn < DigestOpsPerThread) {
      ++Drawn;
      D.add(static_cast<uint64_t>(R.Key) | (uint64_t(R.Write) << 32));
      D.add(R.Low);
    }
    return R;
  }
  /// The digest of the first digested() requests drawn.
  uint64_t digest() const { return D.value(); }
  uint64_t digested() const { return Drawn; }

private:
  solero::Xoshiro256StarStar Rng;
  unsigned WritePercent;
  uint64_t Drawn = 0;
  StreamDigest D;
};

/// The digest the seed plans: every client stream's first requests.
uint64_t planDigest(uint64_t Seed, unsigned WritePercent) {
  StreamDigest D;
  for (int T = 0; T < Threads; ++T) {
    MapStream S(Seed, T, WritePercent);
    for (uint64_t I = 0; I < DigestOpsPerThread; ++I)
      S.next();
    D.add(S.digest());
  }
  return D.value();
}

struct ClientState {
  explicit ClientState(MapStream S) : Stream(S) {}
  MapStream Stream;
  uint64_t Gets = 0, Puts = 0, Misses = 0, Sampled = 0;
};

/// The span names the traced ops record.
struct SpanNames {
  uint16_t Read, Write, Get, Put;
};

/// The map, the client streams and the counters of one policy's run.
template <typename Policy> class PolicyRun {
public:
  using Sync = solero::SynchronizedMap<HashMapT, Policy>;
  static constexpr bool Core = !std::is_same_v<Policy, solero::BravoRwPolicy>;

  PolicyRun(solero::RuntimeContext &Ctx, const Options &O,
            unsigned WritePercent)
      : Map(Ctx) {
    for (int K = 0; K < Keys; ++K)
      Map.put(K, static_cast<int64_t>(taggedValue(static_cast<uint64_t>(K),
                                                  static_cast<uint64_t>(K))));
    for (int T = 0; T < Threads; ++T)
      Clients.push_back({ClientState(MapStream(O.Seed, T, WritePercent))});
  }

  /// The layer the policy's sections belong to: core for the SOLERO
  /// family, locks for BravoRW.
  static std::string layer() { return Core ? "core." : "locks."; }

  /// Binds the traced run's lanes (one per client thread) and span names.
  void attachTracer(Tracer &Tr) {
    Names = {Tr.name(layer() + "read"), Tr.name(layer() + "write"),
             Tr.name("collections.get"), Tr.name("collections.put")};
    for (int T = 0; T < Threads; ++T)
      Lanes[static_cast<std::size_t>(T)] =
          &Tr.lane(static_cast<std::size_t>(T));
  }

  uint64_t revocations() {
    if constexpr (std::is_same_v<Policy, solero::BravoRwPolicy>)
      return Map.policy().protocol().revocations();
    return 0;
  }

  solero::BenchResult window(bool Traced) {
    solero::HarnessOptions H;
    H.Window = Window;
    H.Warmup = Warmup;
    H.Trials = 1;
    if (Traced)
      return solero::runThroughput(Threads, H, [this](int T) {
        static thread_local const bool Pinned = pinClient(T);
        (void)Pinned;
        op<true>(T);
      });
    return solero::runThroughput(Threads, H, [this](int T) {
      static thread_local const bool Pinned = pinClient(T);
      (void)Pinned;
      op<false>(T);
    });
  }

  /// Whether every client consumed the stream the seed plans for it, as
  /// far as its digest reaches.
  bool consumedPlanned(uint64_t Seed, unsigned WritePercent) const {
    for (int T = 0; T < Threads; ++T) {
      const MapStream &Used = Clients[static_cast<std::size_t>(T)]->Stream;
      MapStream Plan(Seed, T, WritePercent);
      for (uint64_t I = 0; I < Used.digested(); ++I)
        Plan.next();
      if (Plan.digest() != Used.digest())
        return false;
    }
    return true;
  }

  bool verify() {
    if (Map.size() != static_cast<std::size_t>(Keys))
      return false;
    for (int64_t K = 0; K < Keys; ++K) {
      auto V = Map.get(K);
      if (!V || !tagMatches(static_cast<uint64_t>(K),
                            static_cast<uint64_t>(*V)))
        return false;
    }
    return true;
  }

  uint64_t gets() const { return sum(&ClientState::Gets); }
  uint64_t puts() const { return sum(&ClientState::Puts); }
  uint64_t misses() const { return sum(&ClientState::Misses); }

private:
  struct Flat {
    int64_t Value;
    bool Has;
  };

  uint64_t sum(uint64_t ClientState::*F) const {
    uint64_t S = 0;
    for (const auto &C : Clients)
      S += (*C).*F;
    return S;
  }

  template <bool Traced> void op(int T) {
    ClientState &C = *Clients[static_cast<std::size_t>(T)];
    MapStream::Req R = C.Stream.next();
    if (Traced && (++C.Sampled & SampleMask) == 0)
      tracedOp(*Lanes[static_cast<std::size_t>(T)], C, R,
               C.Sampled | (uint64_t(T) << 56));
    else
      plainOp(C, R);
  }

  void plainOp(ClientState &C, const MapStream::Req &R) {
    const uint64_t Key = static_cast<uint64_t>(R.Key);
    if (R.Write) {
      ++C.Puts;
      if (Map.put(R.Key, static_cast<int64_t>(taggedValue(Key, R.Low))))
        ++C.Misses; // a put must overwrite: every key stays present
      return;
    }
    ++C.Gets;
    auto V = Map.get(R.Key);
    if (!V || !tagMatches(Key, static_cast<uint64_t>(*V)))
      ++C.Misses;
  }

  void tracedOp(Lane &L, ClientState &C, const MapStream::Req &R,
                uint64_t Req) {
    const uint64_t Key = static_cast<uint64_t>(R.Key);
    if (R.Write) {
      ++C.Puts;
      uint32_t W = L.open(Names.Write, NoParent, Req);
      bool Inserted = Map.writeSection([&](HashMapT &M) {
        uint32_t B = L.open(Names.Put, W, Req);
        bool New = M.put(R.Key, static_cast<int64_t>(taggedValue(Key, R.Low)));
        L.close(B);
        return New;
      });
      L.close(W);
      if (Inserted)
        ++C.Misses;
      return;
    }
    ++C.Gets;
    uint32_t Rd = L.open(Names.Read, NoParent, Req);
    Flat F = Map.readSection([&](HashMapT &M, solero::ReadGuard &) {
      uint32_t B = L.open(Names.Get, Rd, Req);
      auto V = M.get(R.Key);
      L.close(B);
      return Flat{V ? *V : 0, V.has_value()};
    });
    L.close(Rd);
    if (!F.Has || !tagMatches(Key, static_cast<uint64_t>(F.Value)))
      ++C.Misses;
  }

  Sync Map;
  std::vector<solero::CacheLinePadded<ClientState>> Clients;
  std::array<Lane *, Threads> Lanes{};
  SpanNames Names{};
};

template <typename Policy>
Result runMap(const Options &O, unsigned WritePercent) {
  using Run = PolicyRun<Policy>;
  Result R;
  solero::RuntimeContext Ctx;

  // --- Determinism self-check (completed after the windows) --------------
  const uint64_t Digest = planDigest(O.Seed, WritePercent);
  if (planDigest(O.Seed + 1, WritePercent) == Digest)
    R.violation("a different seed produced the same request stream");
  note("digest %016llx (first %llu ops of each of %d client streams)",
       static_cast<unsigned long long>(Digest),
       static_cast<unsigned long long>(DigestOpsPerThread), Threads);

  // --- Setup: construct and prefill the map ------------------------------
  // The map measured is the first one. Another is built, timed and dropped
  // before every window, so the median setup_s samples the whole run
  // rather than its first milliseconds.
  std::vector<double> SetupS;
  auto build = [&] {
    uint64_t T0 = nowNs();
    auto M = std::make_unique<Run>(Ctx, O, WritePercent);
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    return M;
  };
  std::unique_ptr<Run> P = build();
  Tracer Tr;
  if (O.Trace)
    P->attachTracer(Tr);

  // --- Windows (traced and untraced alternate in the traced run) ---------
  const int Windows = std::max(
      6, static_cast<int>(O.Seconds /
                          std::chrono::duration<double>(
                              Window + Warmup + std::chrono::milliseconds(3))
                              .count()));
  std::vector<double> Plain, TracedOps, Shares;
  ProtocolCounters Delta;
  uint64_t Ops = 0, Revocations = 0;
  for (int W = 0; W < Windows; ++W) {
    build();
    R.Speed.sample();
    const bool Traced = O.Trace && W % 2 == 1;
    const uint64_t Rev0 = P->revocations();
    if (Traced)
      Tr.beginWindow();
    const CpuShare Share;
    solero::BenchResult B = P->window(Traced);
    const double Got = Share.left();
    if (Traced)
      Tr.endWindow();
    Revocations += P->revocations() - Rev0;
    (Traced ? TracedOps : Plain).push_back(B.OpsPerSec / Got);
    if (!Traced)
      Shares.push_back(Got);
    Delta += B.Delta;
    Ops += B.Ops;
  }

  // --- Oracles and accounting --------------------------------------------
  const std::string Name = Policy::name();
  R.Attempted = P->gets() + P->puts();
  R.Failed = P->misses();
  if (P->misses())
    R.violation(Name + ": " + std::to_string(P->misses()) +
                " gets missed, returned a mistagged value, or puts inserted");
  if (!P->verify())
    R.violation(Name + ": map lost a key or holds a mistagged value");
  if (!P->consumedPlanned(O.Seed, WritePercent))
    R.violation(Name +
                ": clients consumed another request stream than the seed's");
  note("%s: %d untraced windows, ops/s on dedicated CPUs p10 %.4g p50 %.4g "
       "p90 %.4g, CPU share p50 %.3f, attempted get=%llu put=%llu",
       Name.c_str(), static_cast<int>(Plain.size()),
       solero::quantile(Plain, 0.1), median(Plain),
       solero::quantile(Plain, 0.9), median(Shares),
       static_cast<unsigned long long>(P->gets()),
       static_cast<unsigned long long>(P->puts()));

  if (!O.Trace) {
    R.add("setup_s", median(SetupS), "s");
    R.add("ops_per_s", median(Plain), "1/s");
    R.add("latency_us", closedLoopLatencyUs(Threads, median(Plain)), "us");
    return R;
  }

  // --- Per-layer metrics (traced run) -------------------------------------
  R.add(Run::layer() + "read_overhead_ns", Tr.selfTime(Run::layer() + "read"),
        "ns");
  if (WritePercent)
    R.add(Run::layer() + "write_section_ns",
          Tr.duration(Run::layer() + "write"), "ns");
  addPolicyCounters(R, Delta, Ops);
  R.add("locks.bravo_revocations", static_cast<double>(Revocations), "count");
  addRuntimeCounters(R, Delta, Ops);
  R.add("collections.get_ns", Tr.duration("collections.get"), "ns");
  if (WritePercent)
    R.add("collections.put_ns", Tr.duration("collections.put"), "ns");
  const double PlainOps = median(Plain), Traced = median(TracedOps);
  R.add("trace.overhead", PlainOps > 0 ? 1.0 - Traced / PlainOps : 0.0,
        "ratio");
  note("trace: median %.4g ops/s untraced, %.4g traced", PlainOps, Traced);
  writeTrace(O, Tr);
  return R;
}

} // namespace

Result runMapWorkload(const Options &O, unsigned WritePercent,
                      MapPolicy Policy) {
  switch (Policy) {
  case MapPolicy::Solero:
    return runMap<solero::SoleroPolicy>(O, WritePercent);
  case MapPolicy::Adaptive:
    return runMap<solero::AdaptiveSoleroPolicy>(O, WritePercent);
  case MapPolicy::Bravo:
    return runMap<solero::BravoRwPolicy>(O, WritePercent);
  }
  return Result{};
}

} // namespace perfbench
