//===- verify/TasukiModel.cpp - Tasuki flat/inflated lock model -----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Miniature of src/locks/TasukiLock at the granularity of its shared
// accesses. The modeled word packs:
//
//   bit 0    INFL  (inflated: a fat monitor owns the lock word forever)
//   bit 1    FLC   (flat-lock-contention)
//   bits 2-3 owner (tid + 1 while flat-held; 0 when free or inflated)
//
// The flat path is CAS 0 -> held, CS stores, then the release CAS that
// detects a concurrently set FLC bit and falls back to store-0 + notify
// (BlindStoreRelease re-seeds the PR-3 race: the release publishes 0 with
// a blind store from a stale decision, losing the FLC bit and the parked
// contender's wakeup — reported as a model deadlock).
//
// The Tasuki handoff is modeled faithfully: a contender that parked at
// least once inflates the *free* word to INFL with a CAS before
// re-acquiring, after which everyone contends on the fat owner cell
// FATOWN (acquisition is a guarded CAS, i.e. blocked while another thread
// owns it — the monitor queue abstracted to enabledness). Parking uses
// the same SIG generation-counter scheme as the SOLERO model, with the
// park-arm word-recheck folded into one atomic action because the real
// runtime holds the OsMonitor mutex across both (DESIGN.md §18).
//
// Oracle: at most one thread inside a critical section, counting flat and
// fat holders together; lost wakeups surface as terminal-state deadlocks.
//
//===----------------------------------------------------------------------===//

#include "verify/Models.h"

#include "support/Assert.h"

using namespace solero;
using namespace solero::verify;

namespace {

// Shared variables.
enum : unsigned { VWord = 0, VX = 1, VY = 2, VSig = 3, VFatOwn = 4 };

// Word bits.
enum : uint8_t { InflBit = 0x1, FlcBit = 0x2 };

// Locals.
enum : unsigned { LV = 0, LGen = 1, LWoken = 2 };

enum : uint8_t {
  PcEnterLoad = 0,
  PcEnterCas,
  PcCs1,
  PcCs2,
  PcRelLoad,
  PcReleaseCas,
  PcBlindStore,
  PcSlowStore,
  PcNotify,
  PcContendLoad,
  PcFlcCas,
  PcParkArm,
  PcParked,
  PcInflateCas,
  PcFatAcq,
  PcFatCs1,
  PcFatCs2,
  PcFatRelease,
  PcDone
};

uint8_t flatHeld(unsigned Tid) { return static_cast<uint8_t>((Tid + 1) << 2); }
bool flatHeldByOther(uint8_t W, unsigned Tid) {
  return (W & InflBit) == 0 && (W >> 2 & 0x3) != 0 &&
         (W >> 2 & 0x3) != Tid + 1;
}

class TasukiModel : public ProtocolModel {
public:
  explicit TasukiModel(TasukiModelConfig C) : Cfg(C) {
    SOLERO_CHECK(Cfg.Threads >= 2 && Cfg.Threads <= McMaxThreads,
                 "tasuki model supports 2 or 3 threads");
  }

  const char *name() const override { return "tasuki"; }

  unsigned threads() const override { return Cfg.Threads; }

  void init(McState &S) const override { (void)S; }

  bool step(McState &S, unsigned Tid, Mach &M,
            const char **Label) const override {
    uint8_t *L = S.Local[Tid];
    uint8_t &Pc = S.Pc[Tid];
    switch (Pc) {
    case PcEnterLoad: {
      *Label = "enter.load";
      uint8_t V = M.load(VWord);
      if (V == 0)
        Pc = L[LWoken] != 0 ? PcInflateCas : PcEnterCas;
      else if ((V & InflBit) != 0)
        Pc = PcFatAcq;
      else
        Pc = PcContendLoad;
      return true;
    }
    case PcEnterCas: {
      *Label = "enter.cas";
      if (!M.rmwReady(VWord))
        return false;
      Pc = M.cas(VWord, 0, flatHeld(Tid)) ? PcCs1 : PcEnterLoad;
      return true;
    }
    case PcCs1: {
      *Label = "cs.store-x";
      if (!M.store(VX, static_cast<uint8_t>(Tid + 1)))
        return false;
      Pc = PcCs2;
      return true;
    }
    case PcCs2: {
      *Label = "cs.store-y";
      if (!M.store(VY, static_cast<uint8_t>(Tid + 1)))
        return false;
      Pc = PcRelLoad;
      return true;
    }
    case PcRelLoad: {
      *Label = "rel.load";
      uint8_t V = M.load(VWord);
      L[LV] = V;
      if (Cfg.BlindStoreRelease)
        Pc = (V & FlcBit) != 0 ? PcSlowStore : PcBlindStore;
      else
        Pc = V == flatHeld(Tid) ? PcReleaseCas : PcSlowStore;
      return true;
    }
    case PcReleaseCas: {
      *Label = "rel.cas";
      if (!M.rmwReady(VWord))
        return false;
      Pc = M.cas(VWord, flatHeld(Tid), 0) ? PcDone : PcSlowStore;
      return true;
    }
    case PcBlindStore: {
      *Label = "rel.blind-store";
      if (!M.store(VWord, 0))
        return false;
      Pc = PcDone;
      return true;
    }
    case PcSlowStore: {
      *Label = "rel.slow-store";
      if (!M.store(VWord, 0))
        return false;
      Pc = PcNotify;
      return true;
    }
    case PcNotify: {
      *Label = "rel.notify";
      if (!M.rmwReady(VSig))
        return false;
      M.rmwAdd(VSig, 1);
      Pc = PcDone;
      return true;
    }
    case PcContendLoad: {
      *Label = "flc.load";
      uint8_t V = M.load(VWord);
      if (flatHeldByOther(V, Tid)) {
        L[LV] = V;
        Pc = (V & FlcBit) != 0 ? PcParkArm : PcFlcCas;
      } else {
        Pc = PcEnterLoad;
      }
      return true;
    }
    case PcFlcCas: {
      *Label = "flc.cas";
      if (!M.rmwReady(VWord))
        return false;
      Pc = M.cas(VWord, L[LV], L[LV] | FlcBit) ? PcParkArm : PcContendLoad;
      return true;
    }
    case PcParkArm: {
      *Label = "park.arm";
      uint8_t V = M.load(VWord);
      if (flatHeldByOther(V, Tid) && (V & FlcBit) != 0) {
        L[LGen] = M.load(VSig);
        Pc = PcParked;
      } else if (flatHeldByOther(V, Tid)) {
        L[LV] = V;
        Pc = PcFlcCas;
      } else {
        Pc = PcEnterLoad;
      }
      return true;
    }
    case PcParked: {
      *Label = "park.wake";
      if (M.load(VSig) == L[LGen])
        return false;
      L[LWoken] = 1; // a woken contender inflates before re-acquiring
      Pc = PcEnterLoad;
      return true;
    }
    case PcInflateCas: {
      *Label = "inflate.cas";
      if (!M.rmwReady(VWord))
        return false;
      Pc = M.cas(VWord, 0, InflBit) ? PcFatAcq : PcEnterLoad;
      return true;
    }
    case PcFatAcq: {
      // Guarded CAS: enabled only while the fat owner cell is free (the
      // monitor's queue is abstracted into scheduler enabledness).
      *Label = "fat.acquire";
      if (!M.rmwReady(VFatOwn))
        return false;
      if (!M.cas(VFatOwn, 0, static_cast<uint8_t>(Tid + 1)))
        return false;
      Pc = PcFatCs1;
      return true;
    }
    case PcFatCs1: {
      *Label = "fat.store-x";
      if (!M.store(VX, static_cast<uint8_t>(Tid + 1)))
        return false;
      Pc = PcFatCs2;
      return true;
    }
    case PcFatCs2: {
      *Label = "fat.store-y";
      if (!M.store(VY, static_cast<uint8_t>(Tid + 1)))
        return false;
      Pc = PcFatRelease;
      return true;
    }
    case PcFatRelease: {
      *Label = "fat.release";
      if (!M.store(VFatOwn, 0))
        return false;
      Pc = PcDone;
      return true;
    }
    default:
      *Label = "done";
      return false;
    }
  }

  bool done(const McState &S, unsigned Tid) const override {
    return S.Pc[Tid] == PcDone;
  }

  const char *invariant(const McState &S) const override {
    unsigned InCs = 0;
    for (unsigned T = 0; T < threads(); ++T) {
      uint8_t Pc = S.Pc[T];
      if ((Pc >= PcCs1 && Pc <= PcSlowStore) ||
          (Pc >= PcFatCs1 && Pc <= PcFatRelease))
        ++InCs;
    }
    if (InCs > 1)
      return "mutual exclusion violated: two threads inside the critical "
             "section (flat/fat holders counted together)";
    return nullptr;
  }

  std::string renderState(const McState &S) const override {
    char B[64];
    std::snprintf(B, sizeof(B), "word=%02x fat=%u x=%u y=%u sig=%u pc=",
                  S.Mem[VWord], S.Mem[VFatOwn], S.Mem[VX], S.Mem[VY],
                  S.Mem[VSig]);
    std::string Out = B;
    for (unsigned T = 0; T < threads(); ++T) {
      std::snprintf(B, sizeof(B), "%s%u", T ? "," : "", S.Pc[T]);
      Out += B;
    }
    return Out + renderBufs(S, threads());
  }

private:
  TasukiModelConfig Cfg;
};

} // namespace

std::unique_ptr<ProtocolModel>
solero::verify::makeTasukiModel(TasukiModelConfig C) {
  return std::make_unique<TasukiModel>(C);
}
