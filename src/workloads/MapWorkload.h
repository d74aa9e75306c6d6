//===- workloads/MapWorkload.h - HashMap/TreeMap drivers --------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's HashMap and TreeMap microbenchmarks (Section 4.1): threads
/// access a shared map inside synchronized blocks; a configurable fraction
/// of operations are writes (puts), the rest read-only gets. 1K entries by
/// default. The fine-grained variant of Figure 12(c) uses one map (and one
/// lock) per thread, with each operation touching a uniformly random map.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_WORKLOADS_MAPWORKLOAD_H
#define SOLERO_WORKLOADS_MAPWORKLOAD_H

#include <functional>
#include <memory>
#include <vector>

#include "runtime/ReadGuard.h"
#include "runtime/RuntimeContext.h"
#include "support/Backoff.h"
#include "support/CacheLine.h"
#include "support/Rng.h"

namespace solero {

/// Parameters for a map microbenchmark run.
struct MapWorkloadParams {
  int64_t KeySpace = 1024;   ///< "The number of entries is 1K" (Section 4.1)
  unsigned WritePercent = 0; ///< 0 or 5 in the paper
  int NumMaps = 1;           ///< Figure 12(c): one per thread
  int MaxThreads = 64;       ///< bound for per-thread RNG state
  uint64_t Seed = 0x5eed;
  /// Yield the CPU once inside every read section. On an oversubscribed
  /// host this models the paper's genuinely-overlapping sections: it
  /// forces other runnable threads (including writers) into the reader's
  /// validation window, which is what produces Figure 15's nonzero
  /// speculation-failure ratios (see EXPERIMENTS.md).
  bool YieldInReadSection = false;
  /// Percent of read operations that run getWithNestedWrite instead of a
  /// plain get: the paper §3.2 misclassified-read-only shape, whose nested
  /// lock-write acquisition makes speculation fail deterministically
  /// without lengthening the section. This is the failure dial for the
  /// adaptive-controller sweep: unlike YieldInReadSection it produces
  /// failure ratios that don't depend on scheduler preemption, so it works
  /// the same on a 1-vCPU host as on a multiprocessor.
  unsigned NestedWritePercent = 0;
};

/// Drives get/put traffic against one or more synchronized maps.
/// \p SyncMapT is a SynchronizedMap instantiation.
template <typename SyncMapT> class MapWorkload {
public:
  /// \p MakeMap constructs one synchronized map (binding its lock policy).
  MapWorkload(const MapWorkloadParams &P,
              const std::function<std::unique_ptr<SyncMapT>(int)> &MakeMap)
      : Params(P), PerThread(static_cast<std::size_t>(P.MaxThreads)) {
    for (int I = 0; I < P.NumMaps; ++I)
      Maps.push_back(MakeMap(I));
    for (int T = 0; T < P.MaxThreads; ++T)
      PerThread[static_cast<std::size_t>(T)]->Rng =
          Xoshiro256StarStar(P.Seed + static_cast<uint64_t>(T) * 977);
    prefill();
  }

  /// One benchmark operation for thread \p ThreadIdx: a put with
  /// probability WritePercent, else a read-only get.
  void operator()(int ThreadIdx) {
    auto &State = *PerThread[static_cast<std::size_t>(ThreadIdx)];
    Xoshiro256StarStar &Rng = State.Rng;
    SyncMapT &M =
        *Maps[Params.NumMaps == 1
                  ? 0
                  : Rng.nextBounded(static_cast<uint64_t>(Params.NumMaps))];
    int64_t Key = static_cast<int64_t>(
        Rng.nextBounded(static_cast<uint64_t>(Params.KeySpace)));
    if (Params.WritePercent != 0 && Rng.nextPercent(Params.WritePercent)) {
      M.put(Key, static_cast<int64_t>(Rng.next() >> 1));
      return;
    }
    if (Params.NestedWritePercent != 0 &&
        Rng.nextPercent(Params.NestedWritePercent)) {
      auto V = M.getWithNestedWrite(Key);
      State.Sink += V.has_value() ? *V : 0;
      return;
    }
    if (Params.YieldInReadSection) {
      State.Sink += M.readSection([&](auto &Map, ReadGuard &G) {
        auto V = Map.get(Key);
        osYield(); // widen the section across a scheduling boundary
        G.checkpoint();
        auto W = Map.get(Key);
        return (V ? *V : 0) + (W ? *W : 0);
      });
      return;
    }
    auto V = M.get(Key);
    State.Sink += V.has_value() ? *V : 0;
  }

  /// Verifies every map still holds the full keyspace (puts only overwrite).
  bool verifyFullyPopulated() {
    for (auto &M : Maps)
      for (int64_t K = 0; K < Params.KeySpace; ++K)
        if (!M->get(K).has_value())
          return false;
    return true;
  }

private:
  struct ThreadLocalState {
    Xoshiro256StarStar Rng{0};
    uint64_t Sink = 0; ///< keeps the read value observable; wraps
  };

  void prefill() {
    SplitMix64 Sm(Params.Seed);
    for (auto &M : Maps)
      for (int64_t K = 0; K < Params.KeySpace; ++K)
        M->put(K, static_cast<int64_t>(Sm.next() >> 1));
  }

  MapWorkloadParams Params;
  std::vector<std::unique_ptr<SyncMapT>> Maps;
  std::vector<CacheLinePadded<ThreadLocalState>> PerThread;
};

} // namespace solero

#endif // SOLERO_WORKLOADS_MAPWORKLOAD_H
