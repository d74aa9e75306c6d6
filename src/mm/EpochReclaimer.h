//===- mm/EpochReclaimer.h - Epoch-based deferred reclamation ---*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic three-epoch EBR. Speculative read-only sections pin the current
/// epoch; writers retire unlinked nodes (and resized tables); retired
/// memory is recycled only after every pinned thread has moved past the
/// retirement epoch. Together with mm/TypeStablePool.h this substitutes for
/// the JVM garbage collector that keeps the paper's speculatively-read
/// objects alive (DESIGN.md, substitution table).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_MM_EPOCHRECLAIMER_H
#define SOLERO_MM_EPOCHRECLAIMER_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/PerThreadSlots.h"
#include "support/Assert.h"

namespace solero {

/// Deferred-reclamation domain. Create one per data structure (or share).
class EpochReclaimer {
public:
  EpochReclaimer();
  ~EpochReclaimer();

  EpochReclaimer(const EpochReclaimer &) = delete;
  EpochReclaimer &operator=(const EpochReclaimer &) = delete;

  /// RAII pin. Readers (speculative or not) hold one while they may follow
  /// pointers into the protected structure. Reentrant.
  class Pin {
  public:
    explicit Pin(EpochReclaimer &R) : R(R) { R.enter(); }
    ~Pin() { R.exit(); }
    Pin(const Pin &) = delete;
    Pin &operator=(const Pin &) = delete;

  private:
    EpochReclaimer &R;
  };

  /// Marks the calling thread as inside a read region. Reentrant.
  void enter();
  /// Leaves the read region (outermost exit unpins).
  void exit();

  /// Defers `Deleter(Obj)` until no pinned thread can still see \p Obj.
  /// Callable with or without being pinned.
  void retire(void *Obj, void (*Deleter)(void *, void *), void *DeleterArg);

  /// Attempts an epoch advance and frees anything that became safe. Called
  /// automatically by retire() at intervals; exposed for tests and for
  /// quiescing in destructors.
  void collect();

  /// Drains everything, asserting no thread is pinned. Used at shutdown.
  void drainAll();

  /// Objects retired but not yet freed.
  std::size_t pendingCount();

  uint64_t globalEpoch() const {
    return GlobalEpoch.load(std::memory_order_acquire);
  }

  /// True when readers pin with a plain release store and the reclaimer
  /// pays for ordering with a process-wide membarrier (Linux). False falls
  /// back to seq_cst pins.
  bool usesAsymmetricPins() const { return Asymmetric; }

private:
  struct Retired {
    void *Obj;
    void (*Deleter)(void *, void *);
    void *Arg;
  };

  static constexpr uint64_t ActiveBit = 1;

  void tryAdvanceLocked();
  void freeBatch(std::vector<Retired> &Batch);

  /// One thread's pin state: the owner writes both fields, the collector
  /// reads only Reservation.
  struct PinCell {
    /// 0 = not pinned, else (epoch | ActiveBit).
    std::atomic<uint64_t> Reservation{0};
    /// Pin nesting depth (owner thread only).
    uint32_t Depth = 0;
  };

  const bool Asymmetric;
  std::atomic<uint64_t> GlobalEpoch{2}; // even, never 0; low bit = active flag
  PerThreadSlots<PinCell> Pins;

  std::mutex LimboMu;
  std::vector<Retired> Limbo[3]; // indexed by (epoch/2) % 3
  std::size_t RetireSinceCollect = 0;
};

} // namespace solero

#endif // SOLERO_MM_EPOCHRECLAIMER_H
