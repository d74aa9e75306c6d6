//===- workloads/DaCapoLikeWorkload.h - DaCapo profiles ---------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic stand-ins for the four multithreaded DaCapo 9.10 applications
/// the paper evaluates (h2, tomcat, tradebeans, tradesoap). Figure 16's
/// finding — SOLERO ≈ Lock, regression under 1% — is a function of the
/// application's lock profile, which Table 1 gives us: the fraction of
/// read-only synchronized blocks and the lock frequency. Each profile here
/// reproduces those two observables: operations are critical sections on
/// per-thread tables (DaCapo app threads mostly lock thread-confined
/// objects), read-only with the application's Table-1 probability, with
/// enough non-locking local work between sections to land near the
/// application's locks-per-second rate.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_WORKLOADS_DACAPOLIKEWORKLOAD_H
#define SOLERO_WORKLOADS_DACAPOLIKEWORKLOAD_H

#include <memory>
#include <vector>

#include "collections/JavaHashMap.h"
#include "runtime/ReadGuard.h"
#include "runtime/RuntimeContext.h"
#include "support/CacheLine.h"
#include "support/Rng.h"

namespace solero {

/// One application's lock profile (from paper Table 1).
struct DaCapoProfile {
  const char *Name;
  /// Read-only synchronized blocks, in hundredths of a percent
  /// (e.g. tomcat = 370 for 3.7%).
  unsigned ReadOnlyPerMyriad;
  /// Local (non-locking) work iterations between critical sections; tunes
  /// the lock frequency toward the Table 1 rate.
  int WorkCycles;
  /// Paper Table 1 reference values, echoed in the bench output.
  double PaperLockFreqMillionsPerSec;
  double PaperReadOnlyPercent;
};

/// The four profiles from Table 1.
inline const DaCapoProfile DaCapoProfiles[4] = {
    {"h2", 0, 60, 2.0, 0.0},
    {"tomcat", 370, 12, 7.3, 3.7},
    {"tradebeans", 30, 70, 1.7, 0.3},
    {"tradesoap", 1140, 30, 3.4, 11.4},
};

/// Driver for one profile: per-thread synchronized tables, mixed
/// read-only / writing critical sections at the profile's ratio.
template <typename Policy> class DaCapoLikeWorkload {
public:
  DaCapoLikeWorkload(RuntimeContext &Ctx, const DaCapoProfile &Profile,
                     int MaxThreads = 64, uint64_t Seed = 0xdaca)
      : Profile(Profile) {
    for (int T = 0; T < MaxThreads; ++T) {
      Shards.push_back(std::make_unique<Shard>(Ctx));
      for (int64_t K = 0; K < KeySpace; ++K)
        Shards.back()->Table.put(K, K);
      Shards.back()->State.Rng =
          Xoshiro256StarStar(Seed + static_cast<uint64_t>(T));
    }
  }

  void operator()(int ThreadIdx) {
    Shard &S = *Shards[static_cast<std::size_t>(ThreadIdx)];
    Xoshiro256StarStar &Rng = S.State.Rng;
    // Local, non-locking application work.
    uint64_t Acc = S.State.Sink;
    for (int I = 0; I < Profile.WorkCycles; ++I)
      Acc = Acc * 6364136223846793005ULL + 1442695040888963407ULL;
    S.State.Sink = Acc;

    int64_t Key = static_cast<int64_t>(
        Rng.nextBounded(static_cast<uint64_t>(KeySpace)));
    if (Rng.nextBounded(10000) < Profile.ReadOnlyPerMyriad) {
      S.State.Sink += S.Lock.read([&](ReadGuard &) {
        auto V = S.Table.get(Key);
        return V ? *V : 0;
      });
    } else {
      S.Lock.write([&] { S.Table.put(Key, S.State.Sink); });
    }
  }

  const DaCapoProfile &profile() const { return Profile; }

private:
  static constexpr int64_t KeySpace = 256;

  struct Shard {
    explicit Shard(RuntimeContext &Ctx) : Lock(Ctx) {}
    Policy Lock;
    JavaHashMap<int64_t, int64_t> Table;
    struct {
      Xoshiro256StarStar Rng{0};
      uint64_t Sink = 0; ///< wraps; a signed sum would overflow
    } State;
  };

  DaCapoProfile Profile;
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace solero

#endif // SOLERO_WORKLOADS_DACAPOLIKEWORKLOAD_H
