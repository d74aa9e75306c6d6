//===- runtime/PerThreadSlots.h - Padded slot-indexed arrays ----*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one sanctioned shape for state indexed by ThreadRegistry::slot():
/// an array of ThreadRegistry::MaxThreads elements, each on its own cache
/// line. A dense `T[MaxThreads]` puts 16 threads' uint32_t cells on one
/// line, so every owner write invalidates that line in 15 other caches —
/// the false sharing the paper's whole argument is about avoiding
/// (lock-variable writes as the source of coherence traffic). Padding makes
/// an owner-written cell cost only its owner's cache.
///
/// The padding costs 64 bytes per slot (64 KB per array), so per-object
/// state that would otherwise multiply it (per lock, per key) belongs in
/// thread-owned state instead — ThreadState or a thread_local — not here.
/// tools/atomics_lint.py flags `[MaxThreads]` arrays declared any other way.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_RUNTIME_PERTHREADSLOTS_H
#define SOLERO_RUNTIME_PERTHREADSLOTS_H

#include <cstdint>
#include <memory>

#include "runtime/ThreadRegistry.h"
#include "support/CacheLine.h"

namespace solero {

/// ThreadRegistry::MaxThreads cache-line-padded, value-initialized cells of
/// \p T, indexed by registry slot.
template <typename T> class PerThreadSlots {
public:
  PerThreadSlots()
      // atomics-lint: allow(the padded per-thread type itself)
      : Cells(new CacheLinePadded<T>[ThreadRegistry::MaxThreads]) {}

  PerThreadSlots(const PerThreadSlots &) = delete;
  PerThreadSlots &operator=(const PerThreadSlots &) = delete;

  T &operator[](uint32_t Slot) { return *Cells[Slot]; }
  const T &operator[](uint32_t Slot) const { return *Cells[Slot]; }

  /// The calling thread's cell.
  T &mine() { return (*this)[ThreadRegistry::current().slot()]; }

  /// Cells [0, usedSlots()) are the only ones any thread can have written:
  /// scans stop there instead of walking all MaxThreads lines.
  static uint32_t usedSlots() {
    return ThreadRegistry::instance().slotHighWater();
  }

private:
  std::unique_ptr<CacheLinePadded<T>[]> Cells;
};

} // namespace solero

#endif // SOLERO_RUNTIME_PERTHREADSLOTS_H
