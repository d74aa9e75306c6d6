//===- verify/SoleroSbModel.cpp - Two-lock store buffering over SOLERO ----===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// The ordering obligation of paper §3.4 as a model (DESIGN.md §8): Java
// locks give sequential consistency to data-race-free programs, so
//
//   T0: sync(A) { x = 1 }  sync(B) { r0 = y }   // read section elided
//   T1: sync(B) { y = 1 }  sync(A) { r1 = x }   // read section elided
//
// must never end with both elided sections validated and r0 = r1 = 0. The
// paper pays for this with a StoreLoad fence at every elided entry. The
// shipped runtime instead makes both ends of the pair seq_cst: the entry
// load a speculation validates against, and every release.
//
// T0 and T1 run the program above at the granularity of SoleroLock's
// shared accesses: entry load + CAS, the data store, the release (fast
// CAS, or the plain-store slow path plus the FLC notify), then the elided
// read: entry load, data load, validation (re-speculating on failure). T2
// stands for a contender: it may set the FLC bit on either lock while that
// lock is held, which is what routes a release to its slow path, so every
// combination of release paths is explored.
//
// Variants:
//   - Shipped:      seq_cst releases, no entry fence.
//   - EntryFence:   release-order releases plus the §3.4 fence after the
//                   entry load (the code before the fence was removed).
//   - PlainRelease: release-order releases, no entry fence. The seeded bug.
//
// Under SC and TSO all three pass: every acquisition is a locked RMW on
// x86, so a thread's hold is visible before its later loads and TSO never
// needed the fence. Under RA (Mc.h), where an acq_rel CAS and a release
// store may both wait in the buffer past a later load, PlainRelease fails
// and the other two pass — the divergence the seq_cst pair is for.
//
//===----------------------------------------------------------------------===//

#include "verify/Models.h"

using namespace solero;
using namespace solero::verify;

namespace {

// Shared variables: the two lock words, the two data fields, the notify
// generation.
enum : unsigned { VWordA = 0, VWordB = 1, VX = 2, VY = 3, VSig = 4 };

// Lock-word bits (the SoleroModel.cpp byte layout).
enum : uint8_t { LockBit = 0x1, FlcBit = 0x2, FreeAfterRelease = 0x10 };

// Locals.
enum : unsigned { LWord = 0, LSpec = 1, LRead = 2 };

enum : uint8_t {
  PcEnterLoad = 0,
  PcEnterCas,
  PcStore,
  PcRelLoad,
  PcRelCas,
  PcSlowStore,
  PcNotify,
  PcRdLoad,
  PcRdFence,
  PcRdData,
  PcRdValidate,
  PcDone
};

// T2, the FLC setter: one look at each lock, in order.
enum : uint8_t { PcFlcLoadA = 0, PcFlcCasA, PcFlcLoadB, PcFlcCasB, PcFlcDone };

constexpr unsigned Setter = 2;

uint8_t heldWord(unsigned Tid) {
  return static_cast<uint8_t>(LockBit | ((Tid + 1) << 2));
}
bool isFree(uint8_t W) { return (W & (LockBit | FlcBit)) == 0; }

// T0 writes under A and reads under B; T1 the mirror image.
unsigned ownLock(unsigned Tid) { return Tid == 0 ? VWordA : VWordB; }
unsigned otherLock(unsigned Tid) { return Tid == 0 ? VWordB : VWordA; }
unsigned ownData(unsigned Tid) { return Tid == 0 ? VX : VY; }
unsigned otherData(unsigned Tid) { return Tid == 0 ? VY : VX; }

class SoleroSbModel : public ProtocolModel {
public:
  explicit SoleroSbModel(SoleroSbModelConfig C) : Cfg(C) {}

  const char *name() const override { return "solero-sb"; }

  unsigned threads() const override { return 3; }

  void init(McState &S) const override { (void)S; }

  bool step(McState &S, unsigned Tid, Mach &M,
            const char **Label) const override {
    return Tid == Setter ? setterStep(S, M, Label)
                         : pairStep(S, Tid, M, Label);
  }

  bool done(const McState &S, unsigned Tid) const override {
    return Tid == Setter ? S.Pc[Tid] == PcFlcDone : S.Pc[Tid] == PcDone;
  }

  const char *invariant(const McState &S) const override {
    if (S.Pc[0] == PcDone && S.Pc[1] == PcDone && S.Local[0][LRead] == 0 &&
        S.Local[1][LRead] == 0)
      return "two-lock store buffering: both elided read sections "
             "validated and missed the other thread's write section "
             "(r0 = r1 = 0)";
    return nullptr;
  }

  std::string renderState(const McState &S) const override {
    char B[64];
    std::snprintf(B, sizeof(B), "a=%02x b=%02x x=%u y=%u sig=%u pc=%u,%u,%u",
                  S.Mem[VWordA], S.Mem[VWordB], S.Mem[VX], S.Mem[VY],
                  S.Mem[VSig], S.Pc[0], S.Pc[1], S.Pc[2]);
    return B + renderBufs(S, threads());
  }

private:
  /// Release order: seq_cst in the shipped protocol, release otherwise.
  McOrder releaseOrder() const {
    return Cfg.Variant == SoleroSbVariant::Shipped ? McOrder::SeqCst
                                                   : McOrder::Ra;
  }

  bool pairStep(McState &S, unsigned Tid, Mach &M, const char **Label) const {
    uint8_t *L = S.Local[Tid];
    uint8_t &Pc = S.Pc[Tid];
    const unsigned Own = ownLock(Tid), Other = otherLock(Tid);
    switch (Pc) {
    case PcEnterLoad: {
      *Label = "w.enter-load";
      uint8_t V = M.load(Own);
      if (!isFree(V))
        return false; // only this thread ever holds its write lock
      L[LWord] = V;
      Pc = PcEnterCas;
      return true;
    }
    case PcEnterCas:
      *Label = "w.enter-cas";
      if (!M.rmwReady(Own))
        return false;
      Pc = M.cas(Own, L[LWord], heldWord(Tid)) ? PcStore : PcEnterLoad;
      return true;
    case PcStore:
      *Label = "w.store-data";
      if (!M.store(ownData(Tid), 1))
        return false;
      Pc = PcRelLoad;
      return true;
    case PcRelLoad:
      *Label = "w.rel-load";
      Pc = M.load(Own) == heldWord(Tid) ? PcRelCas : PcSlowStore;
      return true;
    case PcRelCas:
      *Label = "w.rel-cas";
      if (!M.rmwReady(Own, releaseOrder()))
        return false;
      Pc = M.cas(Own, heldWord(Tid), FreeAfterRelease, releaseOrder())
               ? PcRdLoad
               : PcSlowStore;
      return true;
    case PcSlowStore:
      *Label = "w.rel-slow-store";
      if (!M.store(Own, FreeAfterRelease, releaseOrder()))
        return false;
      Pc = PcNotify;
      return true;
    case PcNotify:
      // notifyFlatRelease takes the monitor mutex: an acquire RMW.
      *Label = "w.rel-notify";
      if (!M.rmwReady(VSig))
        return false;
      M.rmwAdd(VSig, 1);
      Pc = PcRdLoad;
      return true;
    case PcRdLoad: {
      *Label = "r.entry-load";
      uint8_t V = M.load(Other);
      if (!isFree(V))
        return false; // slowReadEnter waits for the holder's release
      L[LSpec] = V;
      Pc = Cfg.Variant == SoleroSbVariant::EntryFence ? PcRdFence : PcRdData;
      return true;
    }
    case PcRdFence:
      *Label = "r.entry-fence";
      if (!M.fence())
        return false;
      Pc = PcRdData;
      return true;
    case PcRdData:
      *Label = "r.load-data";
      L[LRead] = M.load(otherData(Tid));
      Pc = PcRdValidate;
      return true;
    case PcRdValidate:
      *Label = "r.validate";
      Pc = M.load(Other) == L[LSpec] ? PcDone : PcRdLoad; // re-speculate
      return true;
    default:
      *Label = "done";
      return false;
    }
  }

  bool setterStep(McState &S, Mach &M, const char **Label) const {
    uint8_t *L = S.Local[Setter];
    uint8_t &Pc = S.Pc[Setter];
    const unsigned Word = Pc <= PcFlcCasA ? VWordA : VWordB;
    switch (Pc) {
    case PcFlcLoadA:
    case PcFlcLoadB: {
      *Label = Pc == PcFlcLoadA ? "flc.load-a" : "flc.load-b";
      uint8_t V = M.load(Word);
      bool Held = (V & LockBit) != 0 && (V & FlcBit) == 0;
      L[LWord] = V;
      Pc = static_cast<uint8_t>(Held ? Pc + 1 : Pc + 2);
      return true;
    }
    case PcFlcCasA:
    case PcFlcCasB:
      *Label = Pc == PcFlcCasA ? "flc.cas-a" : "flc.cas-b";
      if (!M.rmwReady(Word))
        return false;
      M.cas(Word, L[LWord], static_cast<uint8_t>(L[LWord] | FlcBit));
      Pc = static_cast<uint8_t>(Pc + 1);
      return true;
    default:
      *Label = "done";
      return false;
    }
  }

  SoleroSbModelConfig Cfg;
};

} // namespace

std::unique_ptr<ProtocolModel>
solero::verify::makeSoleroSbModel(SoleroSbModelConfig C) {
  return std::make_unique<SoleroSbModel>(C);
}
