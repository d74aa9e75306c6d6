//===- mm/EpochReclaimer.cpp - Epoch-based deferred reclamation -----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mm/EpochReclaimer.h"

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

using namespace solero;

namespace {

/// Issues a process-wide memory barrier (Linux membarrier). Returns false
/// if the syscall is unavailable; callers then rely on seq_cst pins.
bool heavyBarrier() {
#if defined(__linux__)
  return syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0) == 0;
#else
  return false;
#endif
}

bool registerHeavyBarrier() {
#if defined(__linux__)
  return syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0,
                 0) == 0;
#else
  return false;
#endif
}

/// Process-wide: true once membarrier is registered and usable. Decided on
/// first use; pins pick their ordering accordingly.
bool asymmetricPinsEnabled() {
  static const bool Enabled = registerHeavyBarrier();
  return Enabled;
}

} // namespace

EpochReclaimer::EpochReclaimer() : Asymmetric(asymmetricPinsEnabled()) {}

EpochReclaimer::~EpochReclaimer() { drainAll(); }

void EpochReclaimer::enter() {
  PinCell &P = Pins.mine();
  if (P.Depth++ != 0)
    return; // reentrant pin
  uint64_t E = GlobalEpoch.load(std::memory_order_relaxed);
  if (Asymmetric) {
    // Cheap pin: plain release store. The StoreLoad ordering against this
    // thread's subsequent pointer loads is supplied by the reclaimer's
    // membarrier before it scans reservations (asymmetric fence; the role
    // the JVM's GC safepoint protocol plays in the paper's runtime).
    P.Reservation.store(E | ActiveBit, std::memory_order_release);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return;
  }
  // Portable fallback: the reservation must be globally visible before
  // this thread reads any pointer out of the protected structure.
  P.Reservation.store(E | ActiveBit, std::memory_order_seq_cst);
}

void EpochReclaimer::exit() {
  PinCell &P = Pins.mine();
  SOLERO_CHECK(P.Depth > 0, "EpochReclaimer::exit without matching enter");
  if (--P.Depth != 0)
    return;
  P.Reservation.store(0, std::memory_order_release);
}

void EpochReclaimer::retire(void *Obj, void (*Deleter)(void *, void *),
                            void *Arg) {
  std::lock_guard<std::mutex> G(LimboMu);
  uint64_t E = GlobalEpoch.load(std::memory_order_acquire);
  Limbo[(E / 2) % 3].push_back(Retired{Obj, Deleter, Arg});
  if (++RetireSinceCollect < 256)
    return;
  RetireSinceCollect = 0;
  tryAdvanceLocked();
}

void EpochReclaimer::collect() {
  std::lock_guard<std::mutex> G(LimboMu);
  tryAdvanceLocked();
}

void EpochReclaimer::tryAdvanceLocked() {
  if (Asymmetric && !heavyBarrier())
    return; // cannot order against relaxed pins right now; try later
  uint64_t Cur = GlobalEpoch.load(std::memory_order_acquire);
  // Only slots some thread has registered under can hold a reservation. A
  // thread registering after this bound was read pins after it too, which
  // is no different from pinning just after its slot was scanned.
  for (uint32_t S = 0, N = Pins.usedSlots(); S < N; ++S) {
    uint64_t V = Pins[S].Reservation.load(std::memory_order_acquire);
    if ((V & ActiveBit) != 0 && (V & ~ActiveBit) != Cur)
      return; // a pinned thread lags; cannot advance yet
  }
  uint64_t Next = Cur + 2;
  GlobalEpoch.store(Next, std::memory_order_release);
  // The bucket about to be reused holds retirements at least two full
  // grace periods old; free it.
  std::vector<Retired> Batch;
  Batch.swap(Limbo[(Next / 2) % 3]);
  freeBatch(Batch);
}

void EpochReclaimer::drainAll() {
  for (uint32_t S = 0, N = Pins.usedSlots(); S < N; ++S)
    SOLERO_CHECK(
        (Pins[S].Reservation.load(std::memory_order_acquire) & ActiveBit) == 0,
        "drainAll with a pinned thread");
  std::lock_guard<std::mutex> G(LimboMu);
  for (auto &Bucket : Limbo) {
    std::vector<Retired> Batch;
    Batch.swap(Bucket);
    freeBatch(Batch);
  }
}

std::size_t EpochReclaimer::pendingCount() {
  std::lock_guard<std::mutex> G(LimboMu);
  return Limbo[0].size() + Limbo[1].size() + Limbo[2].size();
}

void EpochReclaimer::freeBatch(std::vector<Retired> &Batch) {
  for (const Retired &R : Batch)
    R.Deleter(R.Obj, R.Arg);
  Batch.clear();
}
