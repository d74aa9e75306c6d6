//===- perfbench/src/GuestConfig.cpp - guest-config ---------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Closed loop, 4 threads invoking the CSIR config guest
/// (bench/GuestPrograms.h): 95% readConfig, 5% writeConfig on one shared
/// guest object, on the threaded-dispatch interpreter with SOLERO elision.
///
/// Before measuring, a cold engine profiles the mix single-threaded,
/// reclassifies and is checkpointed into a warm image. setup_s is what a
/// restarting process then pays: translating the module (the Interpreter
/// constructor) plus decoding and restoring the image. The measured engine
/// is the first restored one; client thread T is pinned to CPU T.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <array>

#include "GuestPrograms.h"
#include "image/Checkpoint.h"
#include "image/Resources.h"
#include "jit/Interpreter.h"
#include "support/CacheLine.h"
#include "support/Rng.h"
#include "workloads/Harness.h"

namespace perfbench {
namespace {

using solero::jit::Value;

constexpr int Threads = 4;
constexpr unsigned WritePercent = 5;
constexpr uint64_t SampleMask = 63;
constexpr auto Window = std::chrono::milliseconds(100);
constexpr auto Warmup = std::chrono::milliseconds(10);
constexpr int CheckpointReps = 9;
constexpr uint64_t ColdOps = 20000;
constexpr uint64_t DigestOpsPerThread = 1u << 16;

/// One thread's transaction stream: write or read, and the value written.
/// The first DigestOpsPerThread transactions drawn are digested, so a run
/// can check that its clients consumed the stream the seed plans.
class TxStream {
public:
  explicit TxStream(uint64_t Seed, int Thread)
      : Rng(Seed * 0xd1b54a32d192ed03ULL + static_cast<uint64_t>(Thread)) {}
  /// Returns the value to write, or -1 for a read.
  int64_t next() {
    const int64_t W = Rng.nextPercent(WritePercent)
                          ? static_cast<int64_t>(Rng.nextBounded(1u << 20))
                          : -1;
    if (Drawn < DigestOpsPerThread) {
      ++Drawn;
      D.add(static_cast<uint64_t>(W));
    }
    return W;
  }
  /// The digest of the first digested() transactions drawn.
  uint64_t digest() const { return D.value(); }
  uint64_t digested() const { return Drawn; }

private:
  solero::Xoshiro256StarStar Rng;
  uint64_t Drawn = 0;
  StreamDigest D;
};

/// The digest the seed plans: every client stream's first transactions.
uint64_t planDigest(uint64_t Seed) {
  StreamDigest D;
  for (int T = 0; T < Threads; ++T) {
    TxStream S(Seed, T);
    for (uint64_t I = 0; I < DigestOpsPerThread; ++I)
      S.next();
    D.add(S.digest());
  }
  return D.value();
}

struct Client {
  explicit Client(TxStream S) : Stream(S) {}
  TxStream Stream;
  uint64_t Reads = 0, Writes = 0, Misses = 0, Sampled = 0;
};

class Engine {
public:
  Engine(solero::jit::Interpreter &I, uint64_t Seed, Tracer *Tr)
      : I(I), ReadId(I.module().methodId("readConfig")),
        WriteId(I.module().methodId("writeConfig")),
        Obj(I.allocateObject()) {
    for (int T = 0; T < Threads; ++T)
      Clients.push_back({Client(TxStream(Seed, T))});
    if (Tr) {
      ReadSpan = Tr->name("jit.invoke.read");
      WriteSpan = Tr->name("jit.invoke.write");
      for (int T = 0; T < Threads; ++T)
        Lanes[static_cast<std::size_t>(T)] =
            &Tr->lane(static_cast<std::size_t>(T));
    }
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
        tx<true>(T);
      });
    return solero::runThroughput(Threads, H, [this](int T) {
      static thread_local const bool Pinned = pinClient(T);
      (void)Pinned;
      tx<false>(T);
    });
  }

  /// Whether every client consumed the stream the seed plans for it, as
  /// far as its digest reaches.
  bool consumedPlanned(uint64_t Seed) const {
    for (int T = 0; T < Threads; ++T) {
      const TxStream &Used = Clients[static_cast<std::size_t>(T)]->Stream;
      TxStream Plan(Seed, T);
      for (uint64_t I = 0; I < Used.digested(); ++I)
        Plan.next();
      if (Plan.digest() != Used.digest())
        return false;
    }
    return true;
  }

  uint64_t sum(uint64_t Client::*F) const {
    uint64_t S = 0;
    for (const auto &C : Clients)
      S += (*C).*F;
    return S;
  }

private:
  template <bool Traced> void tx(int T) {
    Client &C = *Clients[static_cast<std::size_t>(T)];
    const int64_t W = C.Stream.next();
    if (Traced && (++C.Sampled & SampleMask) == 0) {
      Lane &L = *Lanes[static_cast<std::size_t>(T)];
      const uint32_t Span = L.open(W >= 0 ? WriteSpan : ReadSpan, NoParent,
                                   C.Sampled | (uint64_t(T) << 56));
      run(C, W);
      L.close(Span);
    } else {
      run(C, W);
    }
  }

  void run(Client &C, int64_t W) {
    if (W >= 0) {
      ++C.Writes;
      I.invoke(WriteId, {Value::ofRef(Obj), Value::ofInt(W)});
    } else {
      ++C.Reads;
      // writeConfig keeps F0+F1+F2+F3 at 0, so every read must sum to 0.
      C.Misses += I.invoke(ReadId, {Value::ofRef(Obj)}).asInt() != 0;
    }
  }

  solero::jit::Interpreter &I;
  uint32_t ReadId, WriteId;
  solero::jit::GuestObject *Obj;
  std::vector<solero::CacheLinePadded<Client>> Clients;
  std::array<Lane *, Threads> Lanes{};
  uint16_t ReadSpan = 0, WriteSpan = 0;
};

} // namespace

Result runGuestConfig(const Options &O) {
  namespace jit = solero::jit;
  namespace image = solero::image;
  Result R;
  solero::RuntimeContext Ctx;

  const uint64_t Digest = planDigest(O.Seed);
  if (planDigest(O.Seed + 1) == Digest)
    R.violation("a different seed produced the same transaction stream");
  note("digest %016llx (first %llu transactions of each of %d streams)",
       static_cast<unsigned long long>(Digest),
       static_cast<unsigned long long>(DigestOpsPerThread), Threads);

  // --- Cold engine: profile, reclassify, checkpoint ------------------------
  jit::Interpreter::Options ColdOpts;
  ColdOpts.CollectProfile = true;
  jit::Interpreter Cold(Ctx, solero::bench::buildConfigGuest(), ColdOpts);
  {
    jit::GuestObject *Obj = Cold.allocateObject();
    TxStream S(O.Seed, Threads);
    for (uint64_t K = 0; K < ColdOps; ++K) {
      int64_t W = S.next();
      if (W >= 0)
        Cold.invoke("writeConfig", {Value::ofRef(Obj), Value::ofInt(W)});
      else
        Cold.invoke("readConfig", {Value::ofRef(Obj)});
    }
    Cold.reclassifyWithProfile();
    Cold.endProfiling();
  }
  image::InterpreterWarmState ColdWarm("jit.warm", Cold);
  image::CheckpointContext Ckpt;
  Ckpt.registerResource(&ColdWarm);
  std::vector<uint8_t> Image;
  std::vector<double> CheckpointUs;
  for (int Rep = 0; Rep < CheckpointReps; ++Rep) {
    uint64_t T0 = nowNs();
    Image = Ckpt.checkpointBytes();
    CheckpointUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
  }

  // --- Setup: translate a fresh engine and restore the image --------------
  // The engine measured is the first one. Another is set up, timed and
  // dropped before every window, so the median setup_s samples the whole
  // run rather than its first milliseconds.
  std::vector<double> SetupS, TranslateUs, RestoreUs;
  auto setup = [&] {
    jit::Module M = solero::bench::buildConfigGuest();
    uint64_t T0 = nowNs();
    auto I = std::make_unique<jit::Interpreter>(Ctx, std::move(M),
                                                jit::Interpreter::Options());
    uint64_t T1 = nowNs();
    image::InterpreterWarmState Warm("jit.warm", *I);
    image::CheckpointContext Rest;
    Rest.registerResource(&Warm);
    image::RestoreReport Rep = Rest.restoreBytes(Image);
    uint64_t T2 = nowNs();
    if (!Rep.allWarm(Rest.resourceCount()))
      R.violation("warm image did not restore: " + Rep.summary());
    TranslateUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
    RestoreUs.push_back(static_cast<double>(T2 - T1) * 1e-3);
    SetupS.push_back(static_cast<double>(T2 - T0) * 1e-9);
    return I;
  };
  std::unique_ptr<jit::Interpreter> Engine0 = setup();

  // --- Windows (traced and untraced alternate in the traced run) -----------
  Tracer Tr;
  Engine E(*Engine0, O.Seed, O.Trace ? &Tr : nullptr);
  const int Modes = O.Trace ? 2 : 1;
  const int Windows = std::max(
      6, static_cast<int>(O.Seconds /
                          std::chrono::duration<double>(
                              Window + Warmup + std::chrono::milliseconds(3))
                              .count()));
  std::vector<double> Plain, Traced, Shares;
  solero::ProtocolCounters D;
  uint64_t Ops = 0;
  for (int W = 0; W < Windows; ++W) {
    setup();
    R.Speed.sample();
    const bool T = Modes == 2 && W % 2 == 1;
    if (T)
      Tr.beginWindow();
    const CpuShare Share;
    solero::BenchResult B = E.window(T);
    const double Got = Share.left();
    if (T)
      Tr.endWindow();
    (T ? Traced : Plain).push_back(B.OpsPerSec / Got);
    if (!T)
      Shares.push_back(Got);
    D += B.Delta;
    Ops += B.Ops;
  }

  const uint64_t Reads = E.sum(&Client::Reads), Writes = E.sum(&Client::Writes);
  const uint64_t Misses = E.sum(&Client::Misses);
  R.Attempted = Reads + Writes;
  R.Failed = Misses;
  if (Misses)
    R.violation(std::to_string(Misses) + " readConfig calls returned nonzero");
  if (!E.consumedPlanned(O.Seed))
    R.violation("clients consumed another transaction stream than the seed's");
  note("%d untraced windows, median %.4g tx/s on dedicated CPUs, CPU share "
       "p50 %.3f, attempted readConfig=%llu writeConfig=%llu, image %zu bytes",
       static_cast<int>(Plain.size()), median(Plain), median(Shares),
       static_cast<unsigned long long>(Reads),
       static_cast<unsigned long long>(Writes), Image.size());

  if (!O.Trace) {
    R.add("setup_s", median(SetupS), "s");
    R.add("ops_per_s", median(Plain), "1/s");
    R.add("latency_us", closedLoopLatencyUs(Threads, median(Plain)), "us");
    return R;
  }
  R.add("jit.invoke_ns.read", Tr.duration("jit.invoke.read"), "ns");
  R.add("jit.invoke_ns.write", Tr.duration("jit.invoke.write"), "ns");
  R.add("jit.elide_per_tx", solero::safeRatio(D.ElisionSuccesses, Ops), "1/tx");
  // Per transaction, locks.rmw_per_op and core.failure_ratio are the
  // guest's RMWs per transaction and elision failure ratio.
  addPolicyCounters(R, D, Ops);
  addRuntimeCounters(R, D, Ops);
  R.add("jit.translate_us", median(TranslateUs), "us");
  R.add("image.checkpoint_us", median(CheckpointUs), "us");
  R.add("image.restore_us", median(RestoreUs), "us");
  R.add("image.bytes", static_cast<double>(Image.size()), "bytes");
  const double P = median(Plain), T = median(Traced);
  R.add("trace.overhead", P > 0 ? 1.0 - T / P : 0.0, "ratio");
  note("trace: median %.4g tx/s untraced, %.4g traced", P, T);
  writeTrace(O, Tr);
  return R;
}

} // namespace perfbench
