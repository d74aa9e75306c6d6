//===- locks/BravoRwLock.h - BRAVO biased reader-writer lock ----*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BRAVO (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer Locks")
/// layered over the repository's centralized ReadWriteLock. The paper's
/// RWLock baseline pays an atomic RMW on shared state per read acquisition;
/// BRAVO removes that coherence hot spot for read-mostly locks:
///
///   - A process-wide *visible-readers table* holds reader publications.
///     While a lock's `RBias` flag is set, a reader publishes itself with a
///     plain store into a slot it alone owns, executes a store-load fence,
///     rechecks `RBias`, and enters — zero RMWs on shared state and no
///     shared cache line written.
///   - A writer acquires the underlying lock, then *revokes*: it clears
///     `RBias`, fences, and scans the table until no slot still advertises
///     this lock. The Dekker pairing of {publish; fence; recheck} against
///     {clear bias; fence; scan} guarantees the writer either observes the
///     reader's slot or the reader observes the cleared bias and falls back
///     to the underlying read path.
///   - The *adaptive policy* (the flat-path degradation idea from Fissile
///     Locks): each revocation's scan cost is measured and bias stays off
///     for InhibitMultiplier x that duration, so write-heavy locks converge
///     to the plain underlying lock instead of paying a table scan per
///     write.
///
/// Slot placement differs from the original's single global array: the
/// table is partitioned by NUMA node (support/NumaTopology.h), and a
/// thread's slot group is one cache line in the partition of the node it
/// first published from, so reader publication stays node-local. Within
/// the group the slot is keyed by a mixed hash of thread id and lock
/// address. Because a group is written only by its owning thread, the
/// publication can stay a plain store — no CAS even on the slot, which the
/// original BRAVO needs because its hash shares slots between threads.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_LOCKS_BRAVORWLOCK_H
#define SOLERO_LOCKS_BRAVORWLOCK_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "locks/ReadWriteLock.h"
#include "support/CacheLine.h"

namespace solero {

/// BRAVO tuning.
struct BravoConfig {
  /// Enable the biased reader fast path at all; false degenerates to the
  /// underlying lock (the A/B baseline in benches).
  bool BiasEnabled = true;
  /// After a revocation costing C ns, bias stays disabled for
  /// InhibitMultiplier * C ns (the paper's N; it bounds the worst-case
  /// slowdown of write-heavy locks to roughly 1/N).
  uint32_t InhibitMultiplier = 9;
};

/// Process-wide visible-readers table, partitioned by NUMA node.
///
/// Layout: nodeCount() partitions x ThreadRegistry::MaxThreads groups; a
/// group is one cache line of 8 slots owned exclusively by one thread
/// (partition = node at first publication, group index = registry slot).
/// Exclusive ownership is what makes plain-store publication sound: two
/// threads can never race on one slot, and a thread reading two locks that
/// collide within its group simply sends the second to the slow path.
class BravoReaderTable {
public:
  using Slot = std::atomic<const void *>;
  static constexpr unsigned SlotsPerGroup = CacheLineSize / sizeof(Slot);

  static BravoReaderTable &instance();

  /// A thread's slot for one lock, plus the nesting count of the biased
  /// hold the slot publishes. The count lives in thread-local storage
  /// beside the cached group pointer: only the slot is read by revoking
  /// writers, and nothing here is written by any other thread.
  struct ThreadSlot {
    Slot &Published;
    uint32_t &Holds;
  };

  /// The calling thread's slot for \p Lock (the caller checks occupancy;
  /// Holds is meaningful only while Published == Lock). First call from a
  /// thread pins its group to the current NUMA node's partition.
  ThreadSlot slotFor(const void *Lock);

  /// Spin-waits until no slot still advertises \p Lock (writer-side
  /// revocation scan). Returns the number of slots that had to drain.
  uint64_t waitForReadersOf(const void *Lock) const;

  /// Number of slots currently advertising \p Lock (oracle/test helper;
  /// racy by nature).
  uint64_t countReadersOf(const void *Lock) const;

  unsigned partitionCount() const { return Partitions; }

private:
  BravoReaderTable();

  struct alignas(CacheLineSize) Group {
    Slot Slots[SlotsPerGroup];
  };

  unsigned Partitions;
  std::size_t GroupsPerPartition;
  std::unique_ptr<Group[]> Groups;
  /// Per-partition high-water mark of assigned group indices, so the
  /// revocation scan skips never-used groups.
  std::unique_ptr<std::atomic<uint32_t>[]> HighWater;
};

/// A quiesced copy of one BravoRwLock's adaptive state, for warm-image
/// checkpoint/restore (src/image/). The inhibit deadline is serialized as
/// *remaining* nanoseconds: the absolute steady_clock deadline is
/// meaningless in another process (or even later in this one).
struct BravoSnapshot {
  bool RBias = false;
  int64_t InhibitRemainingNs = 0;
  uint64_t Revocations = 0;
};

/// Reentrant reader-writer lock with BRAVO reader bias over ReadWriteLock.
/// Same interface and reentrancy semantics as the underlying lock
/// (including write-to-read downgrade; read-to-write upgrade deadlocks, as
/// it does in java.util.concurrent).
class BravoRwLock {
public:
  explicit BravoRwLock(RuntimeContext &Ctx, BravoConfig Config = BravoConfig());

  BravoRwLock(const BravoRwLock &) = delete;
  BravoRwLock &operator=(const BravoRwLock &) = delete;

  void readLock();
  void readUnlock();
  void writeLock();
  void writeUnlock();

  bool writeHeldByCurrentThread() const {
    return Underlying.writeHeldByCurrentThread();
  }

  /// Read holds visible anywhere: underlying count plus published slots.
  uint32_t readerCount() const;

  /// Current bias state (tests/stats; racy).
  bool readBiased() const { return RBias.load(std::memory_order_relaxed); }
  /// Writer-side bias revocations performed so far.
  uint64_t revocations() const {
    return Revocations.load(std::memory_order_relaxed);
  }

  /// Watchdog recovery hook (src/resilience/Watchdog.h): revokes reader
  /// bias from *outside* the write path and inhibits re-arming for
  /// \p InhibitNs. Unlike the writer's revokeBias() this does NOT drain
  /// published readers — the caller is a monitor thread diagnosing a
  /// stall, and spinning it on the very reader it suspects is stuck
  /// would hang the watchdog too. Mutual exclusion is preserved by a
  /// deferred drain: the flag set here makes the *next* writer (which
  /// must exclude those readers anyway) run the revocation scan even
  /// though it observes RBias already clear. New readers observe the
  /// cleared bias and queue on the underlying lock immediately.
  void forceRevokeBias(int64_t InhibitNs = 50'000'000);

  /// Captures bias/inhibit/revocation state for a warm image. Quiesce
  /// first (no reader or writer in flight) for a consistent capture.
  BravoSnapshot snapshot() const;

  /// Rehydrates from \p S. Requires quiescence; refuses (returns false,
  /// stays cold) while any read hold is visible, since a published biased
  /// reader must never coexist with a restore-time bias flip. Bias is
  /// re-enabled only when this lock's config allows it, and the inhibit
  /// window resumes with the image's remaining duration from *now*.
  bool restore(const BravoSnapshot &S);

  template <typename Fn> decltype(auto) synchronizedWrite(Fn &&F) {
    ThreadState &TS = ThreadRegistry::current();
    ++TS.Counters.WriteEntries;
    writeLock();
    ScopeExit Release([&] { writeUnlock(); });
    return F();
  }

  template <typename Fn> decltype(auto) synchronizedReadOnly(Fn &&F) {
    ThreadState &TS = ThreadRegistry::current();
    ++TS.Counters.ReadOnlyEntries;
    readLock();
    ScopeExit Release([&] { readUnlock(); });
    ReadGuard G(/*Speculative=*/false);
    return F(G);
  }

  static const char *protocolName() { return "BravoRW"; }

private:
  void revokeBias();
  void maybeReenableBias();
  static int64_t nowNs();

  BravoConfig Config;
  ReadWriteLock Underlying;
  std::atomic<bool> RBias{false};
  /// Set by forceRevokeBias(): published biased readers may still be
  /// draining, so the next writer must run the table scan even though it
  /// sees RBias already clear. Consumed (exchange to false) under the
  /// underlying write lock, so at most one writer pays the scan.
  std::atomic<bool> ForcedDrainPending{false};
  /// steady_clock ns deadline before which bias must not be re-enabled.
  std::atomic<int64_t> InhibitUntil{0};
  std::atomic<uint64_t> Revocations{0};
};

} // namespace solero

#endif // SOLERO_LOCKS_BRAVORWLOCK_H
