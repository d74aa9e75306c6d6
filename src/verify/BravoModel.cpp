//===- verify/BravoModel.cpp - BRAVO biased rwlock protocol model ---------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Miniature of src/locks/BravoRwLock at the granularity of its shared
// accesses (Dice & Kogan's BRAVO). Shared variables: the RBias flag, one
// visible-reader slot per reader thread, an underlying reader-writer lock
// cell ULOCK (low bits = reader count, bit 7 = writer), and the payload
// pair X/Y the writer updates inside its critical section.
//
// Reader fast path: publish the slot with a plain store, seq_cst fence,
// recheck RBias; if the bias was revoked meanwhile, withdraw the slot and
// take the underlying lock. Writer: acquire the underlying lock, clear
// RBias, seq_cst fence, then scan the slots and wait for each to drain.
// The two fences are a Dekker pairing: each side publishes its flag before
// reading the other's. NoRevocationFence drops the writer-side fence — the
// seeded bug. Under TSO the writer's RBias clear can sit in its store
// buffer while it scans stale zero slots, and the reader's recheck can
// still read RBias == 1 from memory, so both enter the critical section:
// the checker reports the overlap (and the torn read it permits). Under SC
// stores are immediately visible and the variant still passes — the
// SC-vs-TSO divergence is exactly why the checker has a TSO mode.
//
// Oracles: no reader/writer critical-section overlap; a completed read
// section never observed X != Y.
//
//===----------------------------------------------------------------------===//

#include "verify/Models.h"

#include "support/Assert.h"

using namespace solero;
using namespace solero::verify;

namespace {

// Shared variables.
enum : unsigned { VRBias = 0, VSlot0 = 1, VSlot1 = 2, VULock = 3, VX = 4,
                  VY = 5 };

enum : uint8_t { WriterBit = 0x80 };

// Locals.
enum : unsigned { LLx = 0, LLy = 1 };

// Reader program counters.
enum : uint8_t {
  PcRdBias = 0,
  PcRdPub,
  PcRdFence,
  PcRdRecheck,
  PcRdX,
  PcRdY,
  PcRdUnpub,
  PcRdWithdraw,
  PcRdUAcq,
  PcRdUX,
  PcRdUY,
  PcRdURel,
  PcRdDone
};

// Writer program counters (distinct thread, so the namespace is separate).
enum : uint8_t {
  PcWrUAcq = 0,
  PcWrBiasLoad,
  PcWrBiasClear,
  PcWrFence,
  PcWrScan0,
  PcWrScan1,
  PcWrX,
  PcWrY,
  PcWrRel,
  PcWrDone
};

class BravoModel : public ProtocolModel {
public:
  explicit BravoModel(BravoModelConfig C) : Cfg(C) {
    SOLERO_CHECK(Cfg.Readers >= 1 && Cfg.Readers <= 2,
                 "bravo model supports 1 or 2 readers");
  }

  const char *name() const override { return "bravo"; }

  unsigned threads() const override { return Cfg.Readers + 1; }

  void init(McState &S) const override {
    S.Mem[VRBias] = 1; // bias granted: the interesting regime
  }

  bool step(McState &S, unsigned Tid, Mach &M,
            const char **Label) const override {
    if (Tid < Cfg.Readers)
      return readerStep(S, Tid, M, Label);
    return writerStep(S, Tid, M, Label);
  }

  bool done(const McState &S, unsigned Tid) const override {
    return S.Pc[Tid] ==
           (Tid < Cfg.Readers ? uint8_t(PcRdDone) : uint8_t(PcWrDone));
  }

  const char *invariant(const McState &S) const override {
    bool ReaderInCs = false;
    for (unsigned T = 0; T < Cfg.Readers; ++T) {
      uint8_t Pc = S.Pc[T];
      ReaderInCs |= (Pc >= PcRdX && Pc <= PcRdUnpub) ||
                    (Pc >= PcRdUX && Pc <= PcRdURel);
    }
    uint8_t WPc = S.Pc[Cfg.Readers];
    bool WriterInCs = WPc >= PcWrX && WPc <= PcWrRel;
    if (ReaderInCs && WriterInCs)
      return "bias revocation unsafe: a reader and the writer are inside "
             "the critical section together";
    for (unsigned T = 0; T < Cfg.Readers; ++T)
      if (S.Pc[T] == PcRdDone && S.Local[T][LLx] != S.Local[T][LLy])
        return "read section observed a torn write (X != Y)";
    return nullptr;
  }

  std::string renderState(const McState &S) const override {
    char B[64];
    std::snprintf(B, sizeof(B), "rbias=%u slots=%u,%u ulock=%02x x=%u y=%u pc=",
                  S.Mem[VRBias], S.Mem[VSlot0], S.Mem[VSlot1], S.Mem[VULock],
                  S.Mem[VX], S.Mem[VY]);
    std::string Out = B;
    for (unsigned T = 0; T < threads(); ++T) {
      std::snprintf(B, sizeof(B), "%s%u", T ? "," : "", S.Pc[T]);
      Out += B;
    }
    return Out + renderBufs(S, threads());
  }

private:
  bool readerStep(McState &S, unsigned Tid, Mach &M,
                  const char **Label) const {
    const unsigned Slot = VSlot0 + Tid;
    uint8_t *L = S.Local[Tid];
    uint8_t &Pc = S.Pc[Tid];
    switch (Pc) {
    case PcRdBias: {
      *Label = "r.bias-load";
      Pc = M.load(VRBias) != 0 ? PcRdPub : PcRdUAcq;
      return true;
    }
    case PcRdPub: {
      *Label = "r.publish";
      if (!M.store(Slot, 1))
        return false;
      Pc = PcRdFence;
      return true;
    }
    case PcRdFence: {
      *Label = "r.fence";
      if (!M.fence())
        return false;
      Pc = PcRdRecheck;
      return true;
    }
    case PcRdRecheck: {
      *Label = "r.recheck";
      Pc = M.load(VRBias) != 0 ? PcRdX : PcRdWithdraw;
      return true;
    }
    case PcRdX: {
      *Label = "r.load-x";
      L[LLx] = M.load(VX);
      Pc = PcRdY;
      return true;
    }
    case PcRdY: {
      *Label = "r.load-y";
      L[LLy] = M.load(VY);
      Pc = PcRdUnpub;
      return true;
    }
    case PcRdUnpub: {
      *Label = "r.unpublish";
      if (!M.store(Slot, 0))
        return false;
      Pc = PcRdDone;
      return true;
    }
    case PcRdWithdraw: {
      *Label = "r.withdraw";
      if (!M.store(Slot, 0))
        return false;
      Pc = PcRdUAcq;
      return true;
    }
    case PcRdUAcq: {
      // Atomic conditional increment (the real slow path is a CAS loop);
      // blocked while the writer bit is set.
      *Label = "r.underlying-acq";
      if (!M.rmwReady(VULock))
        return false;
      if ((M.load(VULock) & WriterBit) != 0)
        return false;
      M.rmwAdd(VULock, 1);
      Pc = PcRdUX;
      return true;
    }
    case PcRdUX: {
      *Label = "r.load-x";
      L[LLx] = M.load(VX);
      Pc = PcRdUY;
      return true;
    }
    case PcRdUY: {
      *Label = "r.load-y";
      L[LLy] = M.load(VY);
      Pc = PcRdURel;
      return true;
    }
    case PcRdURel: {
      *Label = "r.underlying-rel";
      if (!M.rmwReady(VULock))
        return false;
      M.rmwAdd(VULock, -1);
      Pc = PcRdDone;
      return true;
    }
    default:
      *Label = "done";
      return false;
    }
  }

  bool writerStep(McState &S, unsigned Tid, Mach &M,
                  const char **Label) const {
    uint8_t &Pc = S.Pc[Tid];
    switch (Pc) {
    case PcWrUAcq: {
      // Guarded CAS: blocked while any reader holds the underlying lock.
      *Label = "w.underlying-acq";
      if (!M.rmwReady(VULock))
        return false;
      if (!M.cas(VULock, 0, WriterBit))
        return false;
      Pc = PcWrBiasLoad;
      return true;
    }
    case PcWrBiasLoad: {
      *Label = "w.bias-load";
      Pc = M.load(VRBias) != 0 ? PcWrBiasClear : PcWrX;
      return true;
    }
    case PcWrBiasClear: {
      *Label = "w.bias-clear";
      if (!M.store(VRBias, 0))
        return false;
      Pc = Cfg.NoRevocationFence ? PcWrScan0 : PcWrFence;
      return true;
    }
    case PcWrFence: {
      *Label = "w.fence";
      if (!M.fence())
        return false;
      Pc = PcWrScan0;
      return true;
    }
    case PcWrScan0: {
      *Label = "w.scan-slot0";
      if (M.load(VSlot0) != 0)
        return false; // spin until the visible reader drains
      Pc = Cfg.Readers > 1 ? PcWrScan1 : PcWrX;
      return true;
    }
    case PcWrScan1: {
      *Label = "w.scan-slot1";
      if (M.load(VSlot1) != 0)
        return false;
      Pc = PcWrX;
      return true;
    }
    case PcWrX: {
      *Label = "w.store-x";
      if (!M.store(VX, 1))
        return false;
      Pc = PcWrY;
      return true;
    }
    case PcWrY: {
      *Label = "w.store-y";
      if (!M.store(VY, 1))
        return false;
      Pc = PcWrRel;
      return true;
    }
    case PcWrRel: {
      *Label = "w.underlying-rel";
      if (!M.rmwReady(VULock))
        return false;
      M.cas(VULock, WriterBit, 0);
      Pc = PcWrDone;
      return true;
    }
    default:
      *Label = "done";
      return false;
    }
  }

  BravoModelConfig Cfg;
};

} // namespace

std::unique_ptr<ProtocolModel>
solero::verify::makeBravoModel(BravoModelConfig C) {
  return std::make_unique<BravoModel>(C);
}
