//===- core/SoleroLock.cpp - SOLERO lock elision slow paths ---------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"

using namespace solero;
using namespace solero::lockword;

uint64_t SoleroLock::slowEnterWrite(ObjectHeader &H, ThreadState &TS) {
  uint64_t V = H.word().load(std::memory_order_acquire);
  if (soleroHeldBy(V, TS.tidBits())) {
    // Recursive flat acquisition (+0x8, Figure 8 line 3's inverse
    // direction). fetch_add preserves a concurrently-set FLC bit.
    if (soleroRecursion(V) == SoleroRecMax) {
      // Recursion bits saturated. The paper inflates here; we instead track
      // the excess in a per-thread side table so the counter that v1-based
      // release will publish stays exact (DESIGN.md discusses the
      // deviation). Lock word is unchanged.
      TS.pushRecursionOverflow(H);
      return 0;
    }
    ++TS.Counters.AtomicRmws;
    H.word().fetch_add(SoleroRecUnit, std::memory_order_relaxed);
    return 0;
  }
  // Free, contended, or inflated: the shared three-tier + park machinery
  // (recursive fat entry is handled inside acquireOrPark).
  AcquireResult R = contendedAcquire(Ctx.monitors(), H, SoleroFlatProtocol, TS,
                                     Ctx.config().Tiers,
                                     Ctx.config().ParkMicros);
  return R.Kind == AcquireKind::Flat ? R.V1 : 0;
}

void SoleroLock::slowExitWrite(ObjectHeader &H, ThreadState &TS, uint64_t V1) {
  uint64_t V = H.word().load(std::memory_order_relaxed);
  if (isInflated(V)) {
    Ctx.monitors().byIndex(monitorIndex(V)).fatExit(H, TS);
    return;
  }
  SOLERO_CHECK(soleroHeldBy(V, TS.tidBits()), "exitWrite of a lock not held");
  uint64_t Rec = soleroRecursion(V);
  if (Rec > 0) {
    if (Rec == SoleroRecMax && TS.popRecursionOverflow(H))
      return; // release one side-table level; the word is unchanged
    ++TS.Counters.AtomicRmws;
    H.word().fetch_sub(SoleroRecUnit, std::memory_order_relaxed);
    return;
  }
  // The FLC bit is set (the only remaining fast-path miss): release with
  // the incremented counter, then wake parked contenders (check_flc). The
  // store may clobber an FLC bit set after the load above, but that is
  // harmless here because the notify below is unconditional and ordered
  // after any park decision by the monitor mutex.
  // seq_cst like every SOLERO release (DESIGN.md §8): an XCHG on x86-64.
  SOLERO_INJECT(SoleroSlowExitRelease);
  H.word().store(V1 + CounterUnit, std::memory_order_seq_cst);
  ++TS.Counters.LockWordStores;
  Ctx.monitors().monitorFor(H).notifyFlatRelease();
}

SoleroLock::ReadEntry SoleroLock::slowReadEnter(ObjectHeader &H,
                                                ThreadState &TS) {
  // Figure 8. Invoked when the entry load saw (v & 0x7) != 0.
  const SpinTiers &Tiers = Ctx.config().Tiers;
  for (;;) {
    uint64_t V = entryLoad(H); // a free V returned below is validated
    if (soleroHeldBy(V, TS.tidBits())) {
      // test_recursion: the thread owns the flat lock; take it recursively
      // (obj->lock += 0x8) and run the section non-speculatively.
      if (soleroRecursion(V) == SoleroRecMax) {
        TS.pushRecursionOverflow(H);
        return {0, true};
      }
      ++TS.Counters.AtomicRmws;
      H.word().fetch_add(SoleroRecUnit, std::memory_order_relaxed);
      return {0, true};
    }
    if (isInflated(V)) {
      // Fat mode: acquire through the OS monitor (recursive if owner).
      OsMonitor &M = Ctx.monitors().byIndex(monitorIndex(V));
      if (M.acquireOrPark(H, SoleroFlatProtocol, TS, Ctx.config().ParkMicros) ==
          OsMonitor::ParkResult::AcquiredFat)
        return {0, true};
      continue; // deflated meanwhile; re-examine
    }
    if (soleroIsFree(V))
      return {V, false};
    if ((V & FlcBit) != 0)
      break; // Figure 8 line 11: (v & 0x3) != 0 jumps to INFLATION

    // Thin-held by another thread: wait in the three nested loops for the
    // lock to be released (Figure 8 lines 6-17).
    for (int I = 0; I < Tiers.Tier3; ++I) {
      for (int J = 0; J < Tiers.Tier2; ++J) {
        V = entryLoad(H);
        if (soleroIsFree(V))
          return {V, false};
        if ((V & 0x3) != 0)
          goto Inflation; // inflated or FLC already set
        spinTier1(Tiers.Tier1);
      }
      osYield();
    }
    break; // spin exhausted: inflate
  }

Inflation:
  // The lock stayed contended throughout the nested loops: inflate it.
  // Per Section 3.2, the thread first acquires the flat lock, stores the
  // incremented counter in the OS monitor, and installs the monitor; the
  // slow read exit then releases through the monitor.
  {
    AcquireResult R = contendedAcquire(Ctx.monitors(), H, SoleroFlatProtocol,
                                       TS, Tiers, Ctx.config().ParkMicros);
    if (R.Kind == AcquireKind::Flat) {
      OsMonitor &M = Ctx.monitors().monitorFor(H);
      M.inflateHeldByOwner(H, TS, /*Recursion=*/0,
                           /*RestoreW=*/R.V1 + CounterUnit);
    }
    return {0, true};
  }
}

bool SoleroLock::slowReadExit(ObjectHeader &H, ThreadState &TS, uint64_t V) {
  // Figure 9.
  uint64_t W = H.word().load(std::memory_order_relaxed);
  if (soleroHeldBy(W, TS.tidBits())) {
    uint64_t Rec = soleroRecursion(W);
    if (Rec > 0) {
      // test_recursion: obj->lock -= 0x8.
      if (Rec == SoleroRecMax && TS.popRecursionOverflow(H))
        return true;
      ++TS.Counters.AtomicRmws;
      H.word().fetch_sub(SoleroRecUnit, std::memory_order_relaxed);
      return true;
    }
    // hold_flat_lock: release with v + 0x100, then check_flc. Same
    // lost-wakeup hazard as exitWrite's fast path: an FLC bit set between
    // the load of W and the release would be clobbered by a blind store
    // and its contender never notified. Release via CAS when W is clean;
    // a failure means FLC just arrived, so re-release unconditionally
    // with the bit cleared and notify.
    SOLERO_INJECT(SoleroReadExitRelease);
    if ((W & FlcBit) == 0) {
      uint64_t Expected = W;
      ++TS.Counters.AtomicRmws;
      if (H.word().compare_exchange_strong(Expected, V + CounterUnit,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed))
        return true;
    }
    H.word().store(V + CounterUnit, std::memory_order_seq_cst);
    ++TS.Counters.LockWordStores;
    Ctx.monitors().monitorFor(H).notifyFlatRelease();
    return true;
  }
  if (isInflated(W)) {
    OsMonitor &M = Ctx.monitors().byIndex(monitorIndex(W));
    if (M.isOwner(TS)) {
      M.fatExit(H, TS);
      return true;
    }
  }
  // The lock value changed under a speculative execution; the caller must
  // re-execute (Figure 9 line 13).
  return false;
}

bool SoleroLock::heldByCurrentThread(ObjectHeader &H) {
  ThreadState &TS = ThreadRegistry::current();
  uint64_t V = H.word().load(std::memory_order_acquire);
  if (isInflated(V))
    return Ctx.monitors().byIndex(monitorIndex(V)).isOwner(TS);
  return soleroHeldBy(V, TS.tidBits());
}
