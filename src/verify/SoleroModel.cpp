//===- verify/SoleroModel.cpp - SOLERO lock-word protocol model -----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Miniature of src/core/SoleroLock at the granularity of its shared-memory
// accesses (paper Figs. 5-9). The modeled lock word packs, in one byte:
//
//   bit 0    LOCK   (thin-held)
//   bit 1    FLC    (flat-lock-contention, set by a parked-bound contender)
//   bits 2-3 owner  (tid + 1 while thin-held)
//   bits 4-7 counter (the version counter the real word keeps above
//            TidShift; bumped by one on every release)
//
// Writers run acquire / store X / store Y / release; the release fast path
// is a seq_cst CAS that fails when a contender set FLC concurrently, routing
// to the slow seq_cst store + notify. The BlindStoreRelease variant re-introduces
// the seeded bug: release decides from a stale word load and publishes with
// a blind store, so an FLC bit set between the load and the store is
// clobbered and the parked contender sleeps forever (the checker reports
// the terminal state as a lost wakeup).
//
// The reader thread attempts one speculative section: seq_cst entry word
// load (no entry fence: the shipped ordering, DESIGN.md §8), loads of X
// and Y, then validation that the word is unchanged; on a busy word or
// failed validation it falls back to a real acquire through the writer
// machine. The torn-read oracle fires if a *validated* section observed
// X != Y. The cross-lock ordering the seq_cst pair exists for is checked
// by the two-lock solero-sb model (SoleroSbModel.cpp).
//
// Parking is modeled with a signal generation counter SIG (notify_all
// semantics: every parked thread whose recorded generation differs from
// SIG is runnable). The park-arm step atomically re-checks the word and
// records the generation; in the real runtime both happen under the
// OsMonitor mutex that release's notify also takes, which is what makes
// folding them into one atomic model action sound (DESIGN.md §18).
//
//===----------------------------------------------------------------------===//

#include "verify/Models.h"

#include "support/Assert.h"

using namespace solero;
using namespace solero::verify;

namespace {

// Shared variables.
enum : unsigned { VWord = 0, VX = 1, VY = 2, VSig = 3 };

// Lock-word bits.
enum : uint8_t { LockBit = 0x1, FlcBit = 0x2 };

// Locals.
enum : unsigned { LV1 = 0, LV2 = 1, LGen = 2, LLx = 3, LLy = 4 };

// Program counters (one machine; the reader starts in the speculative leg
// and falls back into the writer machine on failure).
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
  PcRdLoad,
  PcRdX,
  PcRdY,
  PcRdValidate,
  PcRdCommit,
  PcDone
};

uint8_t heldWord(unsigned Tid) {
  return static_cast<uint8_t>(LockBit | ((Tid + 1) << 2));
}
uint8_t freeWord(uint8_t Counter) { return static_cast<uint8_t>(Counter << 4); }
bool isFree(uint8_t W) { return (W & (LockBit | FlcBit)) == 0; }
bool thinHeldByOther(uint8_t W, unsigned Tid) {
  return (W & LockBit) != 0 && (W >> 2 & 0x3) != Tid + 1;
}

class SoleroModel : public ProtocolModel {
public:
  explicit SoleroModel(SoleroModelConfig C) : Cfg(C) {
    SOLERO_CHECK(Cfg.Writers >= 1 && Cfg.Writers <= 2,
                 "solero model supports 1 or 2 writers");
  }

  const char *name() const override { return "solero"; }

  unsigned threads() const override {
    return Cfg.Writers + (Cfg.Reader ? 1 : 0);
  }

  void init(McState &S) const override {
    if (Cfg.Reader)
      S.Pc[Cfg.Writers] = PcRdLoad;
  }

  bool step(McState &S, unsigned Tid, Mach &M,
            const char **Label) const override {
    const bool Reader = Cfg.Reader && Tid == Cfg.Writers;
    uint8_t *L = S.Local[Tid];
    uint8_t &Pc = S.Pc[Tid];
    switch (Pc) {
    case PcEnterLoad: {
      *Label = "enter.load";
      uint8_t V = M.load(VWord);
      if (isFree(V)) {
        L[LV1] = V;
        Pc = PcEnterCas;
      } else {
        Pc = PcContendLoad;
      }
      return true;
    }
    case PcEnterCas: {
      *Label = "enter.cas";
      if (!M.rmwReady(VWord))
        return false;
      Pc = M.cas(VWord, L[LV1], heldWord(Tid)) ? PcCs1 : PcEnterLoad;
      return true;
    }
    case PcCs1: {
      uint8_t Ver = static_cast<uint8_t>((L[LV1] >> 4) + 1);
      if (Reader) {
        *Label = "cs.load-x";
        L[LLx] = M.load(VX);
      } else {
        *Label = "cs.store-x";
        if (!M.store(VX, Ver))
          return false;
      }
      Pc = PcCs2;
      return true;
    }
    case PcCs2: {
      uint8_t Ver = static_cast<uint8_t>((L[LV1] >> 4) + 1);
      if (Reader) {
        *Label = "cs.load-y";
        L[LLy] = M.load(VY);
      } else {
        *Label = "cs.store-y";
        if (!M.store(VY, Ver))
          return false;
      }
      Pc = PcRelLoad;
      return true;
    }
    case PcRelLoad: {
      *Label = "rel.load";
      uint8_t V = M.load(VWord);
      L[LV2] = V;
      if (Cfg.BlindStoreRelease)
        Pc = (V & FlcBit) != 0 ? PcSlowStore : PcBlindStore;
      else
        Pc = V == heldWord(Tid) ? PcReleaseCas : PcSlowStore;
      return true;
    }
    case PcReleaseCas: {
      *Label = "rel.cas";
      if (!M.rmwReady(VWord, McOrder::SeqCst))
        return false;
      uint8_t Free = freeWord(static_cast<uint8_t>((L[LV1] >> 4) + 1));
      Pc = M.cas(VWord, heldWord(Tid), Free, McOrder::SeqCst) ? PcDone
                                                              : PcSlowStore;
      return true;
    }
    case PcBlindStore: {
      *Label = "rel.blind-store";
      uint8_t Free = freeWord(static_cast<uint8_t>((L[LV1] >> 4) + 1));
      if (!M.store(VWord, Free))
        return false;
      Pc = PcDone;
      return true;
    }
    case PcSlowStore: {
      *Label = "rel.slow-store";
      uint8_t Free = freeWord(static_cast<uint8_t>((L[LV1] >> 4) + 1));
      if (!M.store(VWord, Free, McOrder::SeqCst))
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
      if (thinHeldByOther(V, Tid)) {
        L[LV2] = V;
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
      Pc = M.cas(VWord, L[LV2], L[LV2] | FlcBit) ? PcParkArm : PcContendLoad;
      return true;
    }
    case PcParkArm: {
      // Word re-check + signal-generation read, atomic because the real
      // runtime does both under the OsMonitor mutex.
      *Label = "park.arm";
      uint8_t V = M.load(VWord);
      if (thinHeldByOther(V, Tid) && (V & FlcBit) != 0) {
        L[LGen] = M.load(VSig);
        Pc = PcParked;
      } else if (thinHeldByOther(V, Tid)) {
        L[LV2] = V;
        Pc = PcFlcCas;
      } else {
        Pc = PcEnterLoad;
      }
      return true;
    }
    case PcParked: {
      *Label = "park.wake";
      if (M.load(VSig) == L[LGen])
        return false; // still parked: no notify since we armed
      Pc = PcEnterLoad;
      return true;
    }
    case PcRdLoad: {
      *Label = "spec.load";
      uint8_t V = M.load(VWord);
      if (isFree(V)) {
        L[LV1] = V;
        Pc = PcRdX;
      } else {
        Pc = PcEnterLoad; // busy word: fall back to a real acquire
      }
      return true;
    }
    case PcRdX: {
      *Label = "spec.load-x";
      L[LLx] = M.load(VX);
      Pc = PcRdY;
      return true;
    }
    case PcRdY: {
      *Label = "spec.load-y";
      L[LLy] = M.load(VY);
      Pc = PcRdValidate;
      return true;
    }
    case PcRdValidate: {
      *Label = "spec.validate";
      uint8_t V = M.load(VWord);
      Pc = V == L[LV1] ? PcRdCommit : PcEnterLoad; // fail => fall back
      return true;
    }
    case PcRdCommit: {
      *Label = "spec.commit";
      Pc = PcDone; // local step; the torn-read oracle fires at this pc
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
      if (Pc >= PcCs1 && Pc <= PcSlowStore)
        ++InCs;
    }
    if (InCs > 1)
      return "mutual exclusion violated: two threads hold the flat lock";
    if (Cfg.Reader && S.Pc[Cfg.Writers] == PcRdCommit &&
        S.Local[Cfg.Writers][LLx] != S.Local[Cfg.Writers][LLy])
      return "read validation unsound: a validated speculative section "
             "observed a torn write (X != Y)";
    return nullptr;
  }

  std::string renderState(const McState &S) const override {
    char B[64];
    std::snprintf(B, sizeof(B), "word=%02x x=%u y=%u sig=%u pc=", S.Mem[VWord],
                  S.Mem[VX], S.Mem[VY], S.Mem[VSig]);
    std::string Out = B;
    for (unsigned T = 0; T < threads(); ++T) {
      std::snprintf(B, sizeof(B), "%s%u", T ? "," : "", S.Pc[T]);
      Out += B;
    }
    return Out + renderBufs(S, threads());
  }

private:
  SoleroModelConfig Cfg;
};

} // namespace

std::unique_ptr<ProtocolModel>
solero::verify::makeSoleroModel(SoleroModelConfig C) {
  return std::make_unique<SoleroModel>(C);
}
