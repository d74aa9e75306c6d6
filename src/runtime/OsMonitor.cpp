//===- runtime/OsMonitor.cpp - Fat-mode monitors --------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "runtime/OsMonitor.h"

#include "runtime/MonitorTable.h"
#include "stress/InjectionPoint.h"
#include "support/Assert.h"

using namespace solero;
using namespace solero::lockword;

namespace {

uint64_t convHeldWord(uint64_t TidBits) { return TidBits; }
bool convIsFree(uint64_t V) { return V == 0; }
uint64_t convRestore(uint64_t) { return 0; }

uint64_t soleroHeldWordFor(uint64_t TidBits) { return soleroHeldWord(TidBits); }
bool soleroIsFreeWord(uint64_t V) { return soleroIsFree(V); }
uint64_t soleroRestore(uint64_t FreeV) { return FreeV + CounterUnit; }

} // namespace

const FlatProtocol solero::ConvFlatProtocol = {convHeldWord, convIsFree,
                                               convRestore};
const FlatProtocol solero::SoleroFlatProtocol = {soleroHeldWordFor,
                                                 soleroIsFreeWord,
                                                 soleroRestore};

OsMonitor::ParkResult OsMonitor::acquireOrPark(ObjectHeader &H,
                                               const FlatProtocol &P,
                                               ThreadState &TS,
                                               std::chrono::microseconds Park) {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    uint64_t V = H.word().load(std::memory_order_acquire);
    if (isInflated(V)) {
      if (monitorIndex(V) != Index)
        return ParkResult::Restart;
      if (OwnerTid == 0) {
        OwnerTid = TS.tidBits();
        Recursion = 0;
        return ParkResult::AcquiredFat;
      }
      if (OwnerTid == TS.tidBits()) {
        ++Recursion;
        return ParkResult::AcquiredFat;
      }
      ++Waiters;
      Cv.wait_for(L, Park);
      --Waiters;
      continue;
    }
    if (P.isFree(V)) {
      // Free: acquire by inflating directly. We hold the monitor mutex, so
      // once the word designates this monitor we own the fat lock.
      SOLERO_INJECT(MonitorInflate);
      ++TS.Counters.AtomicRmws;
      uint64_t Expected = V;
      if (H.word().compare_exchange_strong(Expected, inflatedWord(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        OwnerTid = TS.tidBits();
        Recursion = 0;
        RestoreWord = P.restoreWord(V);
        ++TS.Counters.Inflations;
        return ParkResult::AcquiredFat;
      }
      continue;
    }
    // Thin-held by another thread: make sure the FLC bit is visible to the
    // releaser, then park (timed; see header for why).
    if ((V & FlcBit) == 0) {
      SOLERO_INJECT(MonitorFlcSet);
      ++TS.Counters.AtomicRmws;
      uint64_t Expected = V;
      if (!H.word().compare_exchange_strong(Expected, V | FlcBit,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed))
        continue;
    }
    SOLERO_INJECT(MonitorPark);
    ++TS.Counters.FlcWaits;
    ++Waiters;
    Cv.wait_for(L, Park);
    --Waiters;
  }
}

void OsMonitor::fatExit(ObjectHeader &H, ThreadState &TS) {
  {
    std::lock_guard<std::mutex> L(Mu);
    SOLERO_CHECK(OwnerTid == TS.tidBits(), "fatExit by non-owner thread");
    if (Recursion > 0) {
      --Recursion;
      return;
    }
    OwnerTid = 0;
    if (Waiters == 0 && WaitSet == 0) {
      // Nobody is parked or waiting: deflate back to flat mode, publishing
      // the restore word (SOLERO: the counter incremented at inflation,
      // Section 3.2). A non-empty wait set pins the monitor in fat mode —
      // its sleepers must be reachable by future notify calls. seq_cst
      // like every SOLERO release: an elided read on another lock may
      // follow (DESIGN.md §8).
      SOLERO_INJECT(MonitorDeflate);
      H.word().store(RestoreWord, std::memory_order_seq_cst);
      ++TS.Counters.LockWordStores;
      ++TS.Counters.Deflations;
    } else {
      // Still inflated, so no lock-word store releases this hold; the
      // fence stands in for the seq_cst release (DESIGN.md §8).
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
  }
  Cv.notify_all();
}

void OsMonitor::fatWait(ObjectHeader &H, ThreadState &TS,
                        std::chrono::microseconds Park) {
  std::unique_lock<std::mutex> L(Mu);
  SOLERO_CHECK(OwnerTid == TS.tidBits(), "Object.wait by non-owner");
  // Release the lock completely, remembering the recursion depth.
  uint32_t SavedRecursion = Recursion;
  Recursion = 0;
  OwnerTid = 0;
  ++WaitSet;
  Cv.notify_all(); // hand the lock to an entry waiter
  // One possibly-spurious sleep (the Java contract allows spurious
  // wakeups; guests wait in predicate loops).
  WaitCv.wait_for(L, Park);
  --WaitSet;
  // Reacquire before returning.
  while (OwnerTid != 0) {
    ++Waiters;
    Cv.wait_for(L, Park);
    --Waiters;
  }
  OwnerTid = TS.tidBits();
  Recursion = SavedRecursion;
}

void OsMonitor::fatNotify(ThreadState &TS, bool All) {
  std::lock_guard<std::mutex> L(Mu);
  SOLERO_CHECK(OwnerTid == TS.tidBits(), "Object.notify by non-owner");
  if (All)
    WaitCv.notify_all();
  else
    WaitCv.notify_one();
}

uint32_t OsMonitor::waitSetSize() {
  std::lock_guard<std::mutex> L(Mu);
  return WaitSet;
}

void OsMonitor::inflateHeldByOwner(ObjectHeader &H, ThreadState &TS,
                                   uint32_t Rec, uint64_t RestoreW) {
  std::lock_guard<std::mutex> L(Mu);
  SOLERO_CHECK(OwnerTid == 0, "inflate-held: monitor unexpectedly owned");
  OwnerTid = TS.tidBits();
  Recursion = Rec;
  RestoreWord = RestoreW;
  // The caller owns the flat lock, so a blind store cannot lose an update
  // other than a concurrently-set FLC bit; FLC parkers use timed waits and
  // re-examine the (now inflated) word when they wake. Not a release: the
  // caller keeps holding, now through the monitor.
  SOLERO_INJECT(MonitorInflate);
  // atomics-lint: allow(held-state inflation hand-off, not a release)
  H.word().store(inflatedWord(), std::memory_order_release);
  ++TS.Counters.LockWordStores;
  ++TS.Counters.Inflations;
}

bool OsMonitor::isOwner(const ThreadState &TS) {
  std::lock_guard<std::mutex> L(Mu);
  return OwnerTid == TS.tidBits();
}

void OsMonitor::notifyFlatRelease() {
  // Taking the mutex orders this notify after any in-progress park decision.
  { std::lock_guard<std::mutex> L(Mu); }
  Cv.notify_all();
}

AcquireResult solero::contendedAcquire(MonitorTable &Monitors, ObjectHeader &H,
                                       const FlatProtocol &P, ThreadState &TS,
                                       const SpinTiers &Tiers,
                                       std::chrono::microseconds Park) {
  for (;;) {
    // Spin phase: the three-tier scheme of paper Figure 3.
    bool SawFat = false;
    for (int I = 0; I < Tiers.Tier3 && !SawFat; ++I) {
      for (int J = 0; J < Tiers.Tier2; ++J) {
        uint64_t V = H.word().load(std::memory_order_acquire);
        if (P.isFree(V)) {
          ++TS.Counters.AtomicRmws;
          if (H.word().compare_exchange_weak(V, P.heldWordFor(TS.tidBits()),
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed))
            return {AcquireKind::Flat, V};
        } else if (isInflated(V)) {
          SawFat = true;
          break;
        }
        spinTier1(Tiers.Tier1);
      }
      if (!SawFat)
        osYield();
    }
    // Park phase: enter fat mode (inflating if needed).
    OsMonitor &M = Monitors.monitorFor(H);
    if (M.acquireOrPark(H, P, TS, Park) == OsMonitor::ParkResult::AcquiredFat)
      return {AcquireKind::Fat, 0};
    // Restart: the word stopped designating M (deflation race); spin again.
  }
}
