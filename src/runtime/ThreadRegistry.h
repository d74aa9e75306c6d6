//===- runtime/ThreadRegistry.h - Per-thread runtime state ------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JVM-style per-thread state: a small stable thread id whose bits slot into
/// lock words, the read-record stack walked by asynchronous read validation
/// (paper Section 3.3), the poll flag set by the async event bus, and the
/// per-thread protocol counters behind Table 1 / Figure 15.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_RUNTIME_THREADREGISTRY_H
#define SOLERO_RUNTIME_THREADREGISTRY_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/LockWord.h"
#include "support/Assert.h"
#include "support/CacheLine.h"

namespace solero {

/// A uint64_t statistic cell written by its owner thread and read racily by
/// aggregators. The atomic makes the cross-thread read well-defined (no
/// TSan data race) without RMW cost: increments are a relaxed load + add +
/// relaxed store, which compiles to the same plain `add` instruction a raw
/// uint64_t would on x86/ARM — safe precisely because only the owner
/// thread writes. Aggregators may see a slightly stale value; they already
/// tolerated that by design.
class RelaxedCounter {
public:
  RelaxedCounter() = default;
  RelaxedCounter(uint64_t V) : Cell(V) {}
  RelaxedCounter(const RelaxedCounter &O) : Cell(O.value()) {}
  RelaxedCounter &operator=(const RelaxedCounter &O) {
    Cell.store(O.value(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter &operator=(uint64_t V) {
    Cell.store(V, std::memory_order_relaxed);
    return *this;
  }

  /// Implicit read so counters keep behaving like integers in arithmetic
  /// and comparisons; use value() where overload sets are ambiguous
  /// (std::to_string and friends).
  operator uint64_t() const { return value(); }
  uint64_t value() const { return Cell.load(std::memory_order_relaxed); }

  // Owner-thread-only mutation: deliberately not fetch_add.
  RelaxedCounter &operator++() { return *this += 1; }
  RelaxedCounter &operator+=(uint64_t D) {
    Cell.store(value() + D, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter &operator-=(uint64_t D) {
    Cell.store(value() - D, std::memory_order_relaxed);
    return *this;
  }

private:
  std::atomic<uint64_t> Cell{0};
};

/// Counters maintained per thread with owner-only increments and
/// aggregated on demand (RelaxedCounter makes the racy aggregation reads
/// well-defined). AtomicRmws and LockWordStores are the coherence-traffic
/// proxies discussed in DESIGN.md: the paper attributes the scalability
/// gap to atomic updates of lock variables, so counting them reproduces
/// the scalability *shape* independent of core count.
struct ProtocolCounters {
  RelaxedCounter WriteEntries;     ///< mutual-exclusion / writing CS entries
  RelaxedCounter ReadOnlyEntries;  ///< read-only CS entries
  RelaxedCounter AtomicRmws;       ///< CAS / fetch_add on lock state
  RelaxedCounter LockWordStores;   ///< plain stores to lock state
  RelaxedCounter ElisionAttempts;  ///< speculative executions started
  RelaxedCounter ElisionSuccesses; ///< validated speculative executions
  RelaxedCounter ElisionFailures;  ///< failed validations (Fig. 15 numerator)
  RelaxedCounter Fallbacks;        ///< retries that acquired the lock for real
  RelaxedCounter FaultRetries;     ///< guest exceptions absorbed as failures
  RelaxedCounter AsyncAborts;      ///< aborts raised at async check points
  RelaxedCounter Inflations;
  RelaxedCounter Deflations;
  RelaxedCounter FlcWaits;         ///< parks on the flat-lock-contention path

  // Adaptive elision controller (DESIGN.md "Adaptive elision"). The
  // per-state attempt counters partition ElisionAttempts when the
  // controller is on: Elide-state attempts are the remainder.
  RelaxedCounter ElisionSkips;      ///< read sections bypassing speculation
  RelaxedCounter SpecRetries;       ///< re-attempts after failed speculation
  RelaxedCounter ThrottledAttempts; ///< attempts issued in Throttled state
  RelaxedCounter ReprobeAttempts;   ///< attempts issued in Reprobe state
  RelaxedCounter CtrlThrottles;     ///< Elide -> Throttled transitions
  RelaxedCounter CtrlDisables;      ///< -> Disabled transitions
  RelaxedCounter CtrlReprobes;      ///< Disabled -> Reprobe transitions
  RelaxedCounter CtrlReenables;     ///< -> Elide re-enables

  ProtocolCounters &operator+=(const ProtocolCounters &O) {
    WriteEntries += O.WriteEntries;
    ReadOnlyEntries += O.ReadOnlyEntries;
    AtomicRmws += O.AtomicRmws;
    LockWordStores += O.LockWordStores;
    ElisionAttempts += O.ElisionAttempts;
    ElisionSuccesses += O.ElisionSuccesses;
    ElisionFailures += O.ElisionFailures;
    Fallbacks += O.Fallbacks;
    FaultRetries += O.FaultRetries;
    AsyncAborts += O.AsyncAborts;
    Inflations += O.Inflations;
    Deflations += O.Deflations;
    FlcWaits += O.FlcWaits;
    ElisionSkips += O.ElisionSkips;
    SpecRetries += O.SpecRetries;
    ThrottledAttempts += O.ThrottledAttempts;
    ReprobeAttempts += O.ReprobeAttempts;
    CtrlThrottles += O.CtrlThrottles;
    CtrlDisables += O.CtrlDisables;
    CtrlReprobes += O.CtrlReprobes;
    CtrlReenables += O.CtrlReenables;
    return *this;
  }
};

/// One in-flight speculative read-only section: the monitor object and the
/// lock value observed at entry (the paper's "local lock variable").
struct ReadRecord {
  ObjectHeader *Header = nullptr;
  uint64_t Value = 0;
};

/// Per-OS-thread runtime state. Obtained via ThreadRegistry::current();
/// never shared between threads except for the fields documented as such.
class alignas(CacheLineSize) ThreadState {
public:
  /// Thread id bits pre-shifted into lock word position (bits 8+, nonzero).
  uint64_t tidBits() const { return TidBits; }

  /// Registry slot (0-based), handy as a dense per-thread index.
  uint32_t slot() const { return Slot; }

  // -- Read-record stack (owner thread only) ------------------------------
  /// Fixed-capacity stack: speculation nests lexically, so depth is tiny;
  /// a flat array keeps the elision fast path allocation- and branch-lean.
  static constexpr std::size_t MaxReadDepth = 64;

  std::size_t pushRead(ObjectHeader &H, uint64_t V) {
    SOLERO_CHECK(ReadsDepth < MaxReadDepth, "speculation nested too deeply");
    Reads[ReadsDepth] = ReadRecord{&H, V};
    return ReadsDepth++;
  }
  void popRead() {
    SOLERO_CHECK(ReadsDepth > 0, "popRead on empty record stack");
    --ReadsDepth;
  }
  /// Records [0, readDepth()); walk with readRecord(I).
  const ReadRecord &readRecord(std::size_t I) const { return Reads[I]; }
  std::size_t readDepth() const { return ReadsDepth; }

  // -- SOLERO recursion-overflow side table (owner thread only) -----------
  // Used when a SOLERO flat lock's 5 recursion bits saturate; see
  // core/SoleroLock.h for why SOLERO avoids saturation inflation.
  void pushRecursionOverflow(ObjectHeader &H) { Overflow.push_back(&H); }
  bool popRecursionOverflow(ObjectHeader &H) {
    if (Overflow.empty() || Overflow.back() != &H)
      return false;
    Overflow.pop_back();
    return true;
  }
  bool hasRecursionOverflow(ObjectHeader &H) const {
    return !Overflow.empty() && Overflow.back() == &H;
  }

  // -- ReadWriteLock read holds (owner thread only) -----------------------
  // The per-thread half of locks/ReadWriteLock.h's reentrancy: how many
  // read holds this thread has on each lock. Shaped like the read-record
  // stack (the newest hold on top, searched from there), but it grows
  // instead of aborting, and a hold whose count drops to 0 is erased from
  // wherever it sits, so release order need not be LIFO. Keys are never
  // dereferenced.

  /// Read holds this thread has on \p Lock (0 if none).
  uint32_t readHoldsOn(const void *Lock) const {
    std::size_t I = findReadHold(Lock);
    return I == NoReadHold ? 0 : RwReadHolds[I].Count;
  }
  void addReadHold(const void *Lock) {
    std::size_t I = findReadHold(Lock);
    if (I == NoReadHold)
      RwReadHolds.push_back(RwReadHold{Lock, 1});
    else
      ++RwReadHolds[I].Count;
  }
  /// Drops one hold on \p Lock; false (and no change) if there was none.
  bool dropReadHold(const void *Lock) {
    std::size_t I = findReadHold(Lock);
    if (I == NoReadHold)
      return false;
    if (--RwReadHolds[I].Count == 0)
      RwReadHolds.erase(RwReadHolds.begin() + static_cast<std::ptrdiff_t>(I));
    return true;
  }

  /// Poll flag: written by the async event bus, consumed by this thread at
  /// check points.
  std::atomic<uint32_t> PollFlag{0};

  /// Per-thread protocol counters (owner thread writes; aggregation reads
  /// them racily through RelaxedCounter's atomics). On its own cache line:
  /// PollFlag above is written by *other* threads, and without the
  /// alignment every async-event tick would invalidate the line holding
  /// these hot fast-path counters in the owner's cache.
  alignas(CacheLineSize) ProtocolCounters Counters;

  /// Adaptive-elision thread-local accounting (core/ElisionController.h):
  /// in the Elide state each thread runs its own decayed failure window
  /// here, and in Disabled it draws skip budget in chunks into a local
  /// allowance, so neither per-section fast path performs an atomic RMW.
  /// Keyed by controller address only — the key is never dereferenced, so
  /// a key left behind by a destroyed lock is harmless (the local window
  /// is simply abandoned on mismatch).
  const void *ElisionCtrlKey = nullptr;
  uint32_t LocalElisionAttempts = 0;
  uint32_t LocalElisionFailures = 0;
  uint32_t ElisionSkipAllowance = 0;

private:
  friend class ThreadRegistry;
  uint64_t TidBits = 0;
  uint32_t Slot = 0;
  uint32_t ReadsDepth = 0;
  ReadRecord Reads[MaxReadDepth];
  std::vector<ObjectHeader *> Overflow;

  struct RwReadHold {
    const void *Lock;
    uint32_t Count;
  };
  static constexpr std::size_t NoReadHold = SIZE_MAX;
  std::size_t findReadHold(const void *Lock) const {
    for (std::size_t I = RwReadHolds.size(); I-- > 0;)
      if (RwReadHolds[I].Lock == Lock)
        return I;
    return NoReadHold;
  }
  std::vector<RwReadHold> RwReadHolds;
};

namespace detail {
/// Fast-path cache for ThreadRegistry::current(). Internal. constinit lets
/// other translation units read it directly rather than through a TLS
/// init wrapper (which UBSan reports as a null load).
extern constinit thread_local ThreadState *CurrentThreadState;
} // namespace detail

/// Process-wide registry handing out ThreadStates. A thread registers
/// lazily on first use and unregisters automatically at thread exit; slots
/// (and thus tid bits) are recycled.
class ThreadRegistry {
public:
  /// Hard capacity on concurrently registered threads. Slots are recycled
  /// at thread exit, so this bounds *live* threads, not lifetime threads.
  /// Components that key per-thread arrays by slot() size them from this
  /// constant: the PerThreadSlots arrays (runtime/PerThreadSlots.h) of
  /// EpochReclaimer and SpeculationWatchdog, and the BRAVO visible-readers
  /// table. registerThread() aborts with a diagnostic rather than hand out
  /// a slot those arrays would index out of bounds.
  static constexpr uint32_t MaxThreads = 1024;

  /// The process-wide registry.
  static ThreadRegistry &instance();

  /// The calling thread's state (registers on first call). The fast path
  /// is a single TLS load; lock fast paths call this per critical section.
  static ThreadState &current() {
    ThreadState *TS = detail::CurrentThreadState;
    if (TS)
      return *TS;
    return currentSlow();
  }

  /// Runs \p F once per live registered thread, under the registry lock.
  /// Used by the async event bus and by counter aggregation.
  template <typename Fn> void forEachThread(Fn &&F) {
    std::lock_guard<std::mutex> G(Mu);
    for (ThreadState *TS : Live)
      if (TS)
        F(*TS);
  }

  /// Sum of counters across live threads plus threads that already exited.
  ProtocolCounters totalCounters();

  /// Number of currently registered threads.
  std::size_t liveThreadCount();

  /// One past the highest slot ever handed out (slots below it may be
  /// free again; none above it was ever used). Monotone. A scan of
  /// slot-indexed state may stop here: seq_cst, so a scanner that misses a
  /// registration also precedes, in the seq_cst order, every seq_cst store
  /// the new thread makes after registering.
  uint32_t slotHighWater() const {
    return SlotHighWater.load(std::memory_order_seq_cst);
  }

private:
  ThreadRegistry() = default;
  static ThreadState &currentSlow();
  ThreadState *registerThread();
  void unregisterThread(ThreadState *TS);

  struct Tls;

  std::mutex Mu;
  std::vector<ThreadState *> Live; // indexed by slot; null = free slot
  ProtocolCounters Retired;        // counters of exited threads
  std::atomic<uint32_t> SlotHighWater{0}; // == Live.size(), readable lock-free
};

} // namespace solero

#endif // SOLERO_RUNTIME_THREADREGISTRY_H
