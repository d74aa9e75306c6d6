//===- bench/micro_primitives.cpp - google-benchmark micro suite ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark microbenchmarks of the lock primitives themselves:
/// per-protocol enter/exit latency on the uncontended fast paths, the
/// plain seqlock, epoch pins, and the read-only elision engine. These are
/// the building blocks behind Figure 10. Also the KV shard SCAN kernel,
/// the largest layer of a KV request's time.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/ElisionController.h"
#include "core/SoleroLock.h"
#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"
#include "kv/ShardTable.h"
#include "locks/BravoRwLock.h"
#include "locks/ReadWriteLock.h"
#include "support/Backoff.h"
#include "locks/SeqLock.h"
#include "locks/TasukiLock.h"
#include "mm/EpochReclaimer.h"
#include "runtime/SharedField.h"

using namespace solero;

namespace {

RuntimeContext &ctx() {
  static RuntimeContext Ctx;
  return Ctx;
}

void BM_TasukiEnterExit(benchmark::State &State) {
  TasukiLock L(ctx());
  ObjectHeader H;
  for (auto _ : State) {
    L.enter(H);
    L.exit(H);
  }
}
BENCHMARK(BM_TasukiEnterExit);

void BM_TasukiRecursiveEnterExit(benchmark::State &State) {
  TasukiLock L(ctx());
  ObjectHeader H;
  L.enter(H);
  for (auto _ : State) {
    L.enter(H);
    L.exit(H);
  }
  L.exit(H);
}
BENCHMARK(BM_TasukiRecursiveEnterExit);

void BM_SoleroWriteSection(benchmark::State &State) {
  SoleroLock L(ctx());
  ObjectHeader H;
  for (auto _ : State)
    L.synchronizedWrite(H, [] {});
}
BENCHMARK(BM_SoleroWriteSection);

void BM_SoleroElidedReadSection(benchmark::State &State) {
  SoleroLock L(ctx());
  ObjectHeader H;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.synchronizedReadOnly(H, [](ReadGuard &) { return 0; }));
}
BENCHMARK(BM_SoleroElidedReadSection);

void BM_SoleroWeakBarrierReadSection(benchmark::State &State) {
  SoleroConfig Cfg;
  Cfg.Barriers = BarrierMode::Weak;
  SoleroLock L(ctx(), Cfg);
  ObjectHeader H;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.synchronizedReadOnly(H, [](ReadGuard &) { return 0; }));
}
BENCHMARK(BM_SoleroWeakBarrierReadSection);

void BM_SoleroUnelidedReadSection(benchmark::State &State) {
  SoleroConfig Cfg;
  Cfg.ElideReadOnly = false;
  SoleroLock L(ctx(), Cfg);
  ObjectHeader H;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.synchronizedReadOnly(H, [](ReadGuard &) { return 0; }));
}
BENCHMARK(BM_SoleroUnelidedReadSection);

void BM_SoleroAdaptiveElidedReadSection(benchmark::State &State) {
  // Uncontended adaptive lock: stays in Elide forever; the delta vs
  // BM_SoleroElidedReadSection is the controller's bookkeeping cost.
  SoleroConfig Cfg;
  Cfg.Adaptive.Enabled = true;
  SoleroLock L(ctx(), Cfg);
  ObjectHeader H;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.synchronizedReadOnly(H, [](ReadGuard &) { return 0; }));
}
BENCHMARK(BM_SoleroAdaptiveElidedReadSection);

void BM_SoleroAdaptiveDisabledReadSection(benchmark::State &State) {
  // Controller pinned in Disabled (skip budget too large to expire): the
  // straight-to-acquisition path write-heavy phases pay per read section.
  SoleroConfig Cfg;
  Cfg.Adaptive.Enabled = true;
  Cfg.Adaptive.DisabledSkipMin = 1u << 30;
  Cfg.Adaptive.DisabledSkipMax = 1u << 30;
  SoleroLock L(ctx(), Cfg);
  ObjectHeader H;
  ThreadState &TS = ThreadRegistry::current();
  ElisionController::Decision D{true, 1, ElisionState::Elide};
  while (L.controller().state() != ElisionState::Disabled)
    L.controller().recordOutcome(TS, D, 1, 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.synchronizedReadOnly(H, [](ReadGuard &) { return 0; }));
}
BENCHMARK(BM_SoleroAdaptiveDisabledReadSection);

void BM_ElisionControllerRoundTrip(benchmark::State &State) {
  // beginRead + recordOutcome pair in armed steady-state Elide (one prior
  // failure): the bare controller overhead added to every adaptive read
  // section once there is anything to adapt to. Before arming the pair
  // costs one relaxed load and one thread-local compare.
  AdaptiveElisionConfig Cfg;
  Cfg.Enabled = true;
  ElisionController C(Cfg);
  ThreadState &TS = ThreadRegistry::current();
  C.recordOutcome(TS, {true, 1, ElisionState::Elide}, 1, 1); // arm
  for (auto _ : State) {
    ElisionController::Decision D = C.beginRead(TS);
    C.recordOutcome(TS, D, 1, 0);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ElisionControllerRoundTrip);

void BM_ExpBackoffFirstPause(benchmark::State &State) {
  ExpBackoff B(16, 512);
  for (auto _ : State) {
    B.pause();
    B.reset();
  }
}
BENCHMARK(BM_ExpBackoffFirstPause);

void BM_SoleroReadMostlyNoWrite(benchmark::State &State) {
  SoleroLock L(ctx());
  ObjectHeader H;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.synchronizedReadMostly(H, [](WriteIntent &) { return 0; }));
}
BENCHMARK(BM_SoleroReadMostlyNoWrite);

void BM_SoleroReadMostlyUpgrade(benchmark::State &State) {
  SoleroLock L(ctx());
  ObjectHeader H;
  SharedField<int64_t> D{0};
  for (auto _ : State)
    L.synchronizedReadMostly(H, [&](WriteIntent &W) {
      W.acquireForWrite();
      D.write(D.read() + 1);
      return 0;
    });
}
BENCHMARK(BM_SoleroReadMostlyUpgrade);

// --- Reader-indication isolation ------------------------------------------
// The three mechanisms the fig12 four-way comparison rests on, stripped to
// their indication cost alone: a centralized atomic RMW pair (RWLock's
// model), a BRAVO visible-readers slot store + fence pair, and SOLERO's
// fully elided read entry (BM_SoleroElidedReadSection above).

void BM_ReadIndicateCentralizedRmw(benchmark::State &State) {
  // The j.u.c.-style cost model: one RMW on shared state to arrive, one to
  // depart, both hitting the same cache line from every reader.
  static std::atomic<uint64_t> Central{0};
  for (auto _ : State) {
    Central.fetch_add(1, std::memory_order_acquire);
    Central.fetch_sub(1, std::memory_order_release);
  }
}
BENCHMARK(BM_ReadIndicateCentralizedRmw);

void BM_ReadIndicateBravoSlotStore(benchmark::State &State) {
  // BRAVO's biased publication: plain store into a thread-owned slot, a
  // store-load fence for the Dekker pairing with revocation, and the
  // release store that retires the indication.
  int LockStandIn = 0;
  BravoReaderTable::Slot &S =
      BravoReaderTable::instance().slotFor(&LockStandIn).Published;
  for (auto _ : State) {
    S.store(&LockStandIn, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    benchmark::DoNotOptimize(S.load(std::memory_order_acquire));
    S.store(nullptr, std::memory_order_release);
  }
}
BENCHMARK(BM_ReadIndicateBravoSlotStore);

void BM_BravoRwReadSection(benchmark::State &State) {
  // Full biased read path (publication + hold bookkeeping). First
  // iteration acquires through the slow path and enables the bias.
  BravoRwLock L(ctx());
  for (auto _ : State) {
    L.readLock();
    L.readUnlock();
  }
}
BENCHMARK(BM_BravoRwReadSection);

void BM_BravoRwReadSectionUnbiased(benchmark::State &State) {
  // Bias disabled: the BRAVO layer's pass-through overhead on top of the
  // underlying centralized lock.
  BravoConfig Cfg;
  Cfg.BiasEnabled = false;
  BravoRwLock L(ctx(), Cfg);
  for (auto _ : State) {
    L.readLock();
    L.readUnlock();
  }
}
BENCHMARK(BM_BravoRwReadSectionUnbiased);

void BM_BravoRwWriteSection(benchmark::State &State) {
  // Write path with bias never re-enabled (no readers): after the first
  // revocation this must converge to BM_RwLockWriteSection.
  BravoRwLock L(ctx());
  for (auto _ : State) {
    L.writeLock();
    L.writeUnlock();
  }
}
BENCHMARK(BM_BravoRwWriteSection);

void BM_RwLockReadSection(benchmark::State &State) {
  ReadWriteLock L(ctx());
  for (auto _ : State) {
    L.readLock();
    L.readUnlock();
  }
}
BENCHMARK(BM_RwLockReadSection);

void BM_RwLockWriteSection(benchmark::State &State) {
  ReadWriteLock L(ctx());
  for (auto _ : State) {
    L.writeLock();
    L.writeUnlock();
  }
}
BENCHMARK(BM_RwLockWriteSection);

void BM_PlainSeqLockRead(benchmark::State &State) {
  SeqLock L;
  SharedField<int64_t> D{7};
  for (auto _ : State)
    benchmark::DoNotOptimize(L.readProtected([&] { return D.read(); }));
}
BENCHMARK(BM_PlainSeqLockRead);

void BM_PlainSeqLockWrite(benchmark::State &State) {
  SeqLock L;
  SharedField<int64_t> D{0};
  for (auto _ : State)
    L.writeProtected([&] { D.write(D.read() + 1); });
}
BENCHMARK(BM_PlainSeqLockWrite);

void BM_EpochPinUnpin(benchmark::State &State) {
  EpochReclaimer R;
  for (auto _ : State) {
    R.enter();
    R.exit();
  }
}
BENCHMARK(BM_EpochPinUnpin);

void BM_SpeculationCheckpointIdle(benchmark::State &State) {
  for (auto _ : State)
    speculationCheckpoint();
}
BENCHMARK(BM_SpeculationCheckpointIdle);

void BM_ThreadRegistryCurrent(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(&ThreadRegistry::current());
}
BENCHMARK(BM_ThreadRegistryCurrent);

// --- KV shard SCAN kernel -------------------------------------------------

/// One ShardTable::scan() pass over an 8192-slot shard: the kernel alone,
/// with no lock section and no epoch pin. Each shard is filled to its 70%
/// resize trigger, then all but Arg% of those keys are removed, so in hash
/// order each slot is empty, a tombstone or live. Arg is thus the live
/// share of the occupied slots (90% of all slots cannot be live: put
/// resizes first). Successive passes rotate over 16 such shards, as many
/// as the KV benchmark store has: rescanning one shard would let the
/// branch predictor learn its 8192-slot pattern, which no real scan sees.
/// time_per_slot is the cost of one slot.
void BM_ShardTableScan(benchmark::State &State) {
  constexpr std::size_t Slots = 8192, Shards = 16;
  const uint64_t LivePct = static_cast<uint64_t>(State.range(0));
  const uint64_t Used = Slots * 7 / 10;
  EpochReclaimer Epoch;
  std::vector<std::unique_ptr<kv::ShardTable>> Tables;
  for (std::size_t S = 0; S < Shards; ++S) {
    auto T = std::make_unique<kv::ShardTable>(Epoch, Slots);
    for (uint64_t K = 0; K < Used; ++K)
      T->put(S << 32 | K, K);
    for (uint64_t K = 0; K < Used; ++K)
      if (K % 100 >= LivePct)
        T->remove(S << 32 | K);
    if (T->capacity() != Slots || T->resizeCount() != 0)
      State.SkipWithError("shard resized while filling");
    Tables.push_back(std::move(T));
  }
  std::size_t Next = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Tables[Next]->scan());
    Next = (Next + 1) % Shards;
  }
  State.counters["time_per_slot"] = benchmark::Counter(
      static_cast<double>(Slots),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  Epoch.drainAll(); // retired cells point into the tables' pools
}
BENCHMARK(BM_ShardTableScan)->Arg(10)->Arg(50)->Arg(90);

// --- CSIR execution engine -------------------------------------------------

constexpr int64_t GuestLoopIters = 256;

/// hot(obj, n): i = acc = 0; while (i < n) { acc += obj.F0; ++i } — one of
/// each superinstruction pattern plus a back edge per iteration.
jit::Module buildHotLoop() {
  jit::MethodBuilder B("hot", 2, 4);
  auto Loop = B.newLabel(), Done = B.newLabel();
  B.constant(0).store(2).constant(0).store(3);
  B.bind(Loop);
  B.load(2).load(1).cmpLt().jumpIfZero(Done);
  B.load(3).load(0).getField(0).add().store(3);
  B.load(2).constant(1).add().store(2);
  B.jump(Loop);
  B.bind(Done);
  B.load(3).ret();
  jit::Module M;
  M.addMethod(B.take());
  return M;
}

/// Core dispatch comparison behind the A3 speedup: the same hot guest loop
/// under the pre-decoded threaded engine (Arg 1) vs the re-decoding switch
/// oracle (Arg 0). items/s = guest loop iterations.
void BM_DispatchSwitchVsThreaded(benchmark::State &State) {
  jit::Interpreter::Options Opts;
  Opts.Mode = State.range(0) ? jit::DispatchMode::Threaded
                             : jit::DispatchMode::Reference;
  jit::Interpreter I(ctx(), buildHotLoop(), Opts);
  jit::GuestObject *Obj = I.allocateObject();
  Obj->F[0].write(3);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        I.invoke(0, {jit::Value::ofRef(Obj), jit::Value::ofInt(GuestLoopIters)})
            .asInt());
  State.SetItemsProcessed(State.iterations() * GuestLoopIters);
  State.SetLabel(State.range(0) ? "threaded" : "switch");
}
BENCHMARK(BM_DispatchSwitchVsThreaded)->Arg(0)->Arg(1);

/// Guest call cost: 8 straight-line invokes of a one-add leaf per top-level
/// call. Frames come from the per-invoke arena — the items/s delta against
/// history tracks the zero-allocation call path. items/s = guest invokes.
void BM_InvokeFrameSetup(benchmark::State &State) {
  jit::Module M;
  {
    jit::MethodBuilder B("caller", 1, 1);
    for (int C = 0; C < 8; ++C)
      B.load(0).invoke(1).store(0);
    B.load(0).ret();
    M.addMethod(B.take());
  }
  {
    jit::MethodBuilder B("leaf", 1, 1);
    B.load(0).constant(1).add().ret();
    M.addMethod(B.take());
  }
  jit::Interpreter I(ctx(), std::move(M), jit::Interpreter::Options());
  for (auto _ : State)
    benchmark::DoNotOptimize(I.invoke(0, {jit::Value::ofInt(0)}).asInt());
  State.SetItemsProcessed(State.iterations() * 8);
}
BENCHMARK(BM_InvokeFrameSetup);

/// Budget + checkpoint poll cost at loop back edges: an empty countdown
/// loop is all branch, poll, and checkpoint. items/s = back edges polled.
void BM_CheckpointPollCounter(benchmark::State &State) {
  jit::MethodBuilder B("spin", 1, 1);
  auto Loop = B.newLabel(), Done = B.newLabel();
  B.bind(Loop);
  B.load(0).jumpIfZero(Done);
  B.load(0).constant(-1).add().store(0);
  B.jump(Loop);
  B.bind(Done);
  B.constant(0).ret();
  jit::Module M;
  M.addMethod(B.take());
  jit::Interpreter I(ctx(), std::move(M), jit::Interpreter::Options());
  for (auto _ : State)
    benchmark::DoNotOptimize(
        I.invoke(0, {jit::Value::ofInt(GuestLoopIters)}).asInt());
  State.SetItemsProcessed(State.iterations() * GuestLoopIters);
}
BENCHMARK(BM_CheckpointPollCounter);

} // namespace

BENCHMARK_MAIN();
