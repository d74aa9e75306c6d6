//===- jit/Interpreter.cpp - CSIR execution engine -------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Two engines live here:
//
//  - execThreaded: the production engine over the pre-decoded stream.
//    With SOLERO_THREADED_DISPATCH (default on GCC/Clang) each handler
//    ends by jumping through a computed-goto label table indexed by the
//    next pre-decoded opcode — no shared dispatch branch for the
//    predictor to saturate. Without it the same handler bodies compile
//    into a pre-decoded switch loop via the VM_CASE/VM_NEXT macros.
//
//  - execRange: the reference switch interpreter over the original
//    Method::Code, kept as the differential-test oracle. It shares the
//    frame arena, the counter-based budget, and every semantic helper
//    with the threaded engine, so the engines differ only in dispatch.
//
// Call frames are carved from a contiguous per-invoke arena sized from
// verifier facts (MaxCallDepth frames of the largest proven frame), so
// the call path performs no allocation. The runaway-step budget and the
// asynchronous check point (Section 3.3) are polled only at loop back
// edges and method entries/invokes — any unbounded guest execution must
// pass one of those, so rescue latency is bounded by one loop body.
//
//===----------------------------------------------------------------------===//

#include "jit/Interpreter.h"

#include <cstdio>
#include <utility>

#include "runtime/ReadGuard.h"
#include "support/ScopeExit.h"

#ifndef SOLERO_THREADED_DISPATCH
#if defined(__GNUC__) || defined(__clang__)
#define SOLERO_THREADED_DISPATCH 1
#else
#define SOLERO_THREADED_DISPATCH 0
#endif
#endif

using namespace solero;
using namespace solero::jit;

namespace {

constexpr const char BudgetMsg[] =
    "guest step budget exhausted (runaway loop not rescued?)";

[[noreturn]] void throwGuest(GuestErrorKind K) {
  throw GuestError{static_cast<int32_t>(K)};
}

/// Deep equality for CmpEq: values of different kinds are unequal;
/// references and arrays compare by identity.
bool valueEq(const Value &A, const Value &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case Value::Kind::Int:
    return A.I == B.I;
  case Value::Kind::Ref:
    return A.O == B.O;
  case Value::Kind::Arr:
    return A.A == B.A;
  }
  SOLERO_UNREACHABLE("bad value kind");
}

// Opaque NativeCall effect, shared by both engines so they observe the
// same sink state.
volatile int64_t NativeSink;

/// The per-thread frame arena plus the intent/monitor side stacks. One
/// top-level invoke leases the whole bundle; the capacity persists across
/// invokes, so the steady state allocates nothing.
struct ThreadArenaState {
  std::unique_ptr<Value[]> Slots;
  std::size_t Cap = 0;
  bool InUse = false;
  std::vector<WriteIntent *> Intents;
  std::vector<std::pair<ObjectHeader *, SoleroLock::MonitorHandle *>> Monitors;
};

thread_local ThreadArenaState TlsArena;

class ArenaLease {
public:
  explicit ArenaLease(std::size_t Slots) {
    if (!TlsArena.InUse) {
      TlsArena.InUse = true;
      FromTls = true;
      if (TlsArena.Cap < Slots) {
        TlsArena.Slots.reset(new Value[Slots]);
        TlsArena.Cap = Slots;
      }
      St = &TlsArena;
    } else {
      // Reentrant invoke on this thread (host code calling back into the
      // interpreter mid-execution): private fallback arena.
      Owned = std::make_unique<ThreadArenaState>();
      Owned->Slots.reset(new Value[Slots]);
      Owned->Cap = Slots;
      St = Owned.get();
    }
    St->Intents.clear();
    St->Monitors.clear();
  }
  ~ArenaLease() {
    if (FromTls)
      TlsArena.InUse = false;
  }
  ArenaLease(const ArenaLease &) = delete;
  ArenaLease &operator=(const ArenaLease &) = delete;

  Value *base() { return St->Slots.get(); }
  std::vector<WriteIntent *> &intents() { return St->Intents; }
  std::vector<std::pair<ObjectHeader *, SoleroLock::MonitorHandle *>> &
  monitors() {
    return St->Monitors;
  }

private:
  ThreadArenaState *St = nullptr;
  std::unique_ptr<ThreadArenaState> Owned;
  bool FromTls = false;
};

} // namespace

Interpreter::Interpreter(RuntimeContext &Ctx, Module Mod_)
    : Interpreter(Ctx, std::move(Mod_), Options()) {}

Interpreter::Interpreter(RuntimeContext &Ctx, Module Mod_, Options Opts)
    : Ctx(Ctx), Mod(std::move(Mod_)), Opts(Opts), Solero(Ctx, Opts.Solero),
      Conventional(Ctx) {
  Facts.resize(Mod.methodCount());
  uint32_t MaxFrame = 0;
  for (uint32_t Id = 0; Id < Mod.methodCount(); ++Id) {
    VerifiedMethod V = verifyMethod(Mod, Id);
    SOLERO_CHECK(V.Ok, "module failed verification");
    const Method &Fn = Mod.method(Id);
    Facts[Id] =
        MethodFacts{Fn.NumParams, Fn.NumLocals, Fn.NumLocals + V.MaxStack};
    if (Facts[Id].FrameSlots > MaxFrame)
      MaxFrame = Facts[Id].FrameSlots;
  }
  ArenaSlots = static_cast<std::size_t>(MaxCallDepth) * MaxFrame;
  Classes = classifyModule(Mod, nullptr, Opts.Classifier);
  Prof.Counts.resize(Mod.methodCount());
  for (uint32_t Id = 0; Id < Mod.methodCount(); ++Id)
    Prof.Counts[Id].assign(Mod.method(Id).Code.size(), 0);
  Statics.reset(new SharedField<int64_t>[Mod.NumStatics]());
  rebuildRegionTables();
  retranslate();
}

bool Interpreter::threadedDispatchAvailable() {
  return SOLERO_THREADED_DISPATCH != 0;
}

void Interpreter::rebuildRegionTables() {
  RegionTables.assign(Mod.methodCount(), {});
  for (uint32_t Id = 0; Id < Mod.methodCount(); ++Id) {
    RegionTables[Id].assign(Mod.method(Id).Code.size(), std::nullopt);
    for (const ClassifiedRegion &R : Classes.regions(Id))
      RegionTables[Id][R.Region.EnterPc] =
          RegionEntry{R.Region.ExitPc, R.Kind};
  }
}

void Interpreter::retranslate() {
  if (Opts.Mode != DispatchMode::Threaded)
    return;
  TranslatorOptions TO;
  TO.Fuse = Opts.FuseSuperinstructions;
  TO.Profile = Opts.CollectProfile;
  Trans = translateModule(Mod, Classes, TO);
}

void Interpreter::reclassifyWithProfile() {
  Classes = classifyModule(Mod, &Prof, Opts.Classifier);
  rebuildRegionTables();
  retranslate();
}

void Interpreter::endProfiling() {
  Opts.CollectProfile = false;
  retranslate();
}

bool Interpreter::adoptWarmState(ClassifiedModule WarmClasses,
                                 Profile WarmProf) {
  const auto NumMethods = static_cast<uint32_t>(Mod.methodCount());
  if (WarmClasses.methodCount() != NumMethods)
    return false;
  // Region boundaries derive from the verifier over this same bytecode:
  // the warm classification must cover exactly the regions the cold one
  // found. Only the *kinds* (and diagnostics) may differ — carrying the
  // profile-earned ReadMostly verdicts forward is the point.
  for (uint32_t Id = 0; Id < NumMethods; ++Id) {
    const std::vector<ClassifiedRegion> &Warm = WarmClasses.regions(Id);
    const std::vector<ClassifiedRegion> &Cold = Classes.regions(Id);
    if (Warm.size() != Cold.size())
      return false;
    for (std::size_t I = 0; I < Warm.size(); ++I)
      if (Warm[I].Region.EnterPc != Cold[I].Region.EnterPc ||
          Warm[I].Region.ExitPc != Cold[I].Region.ExitPc ||
          Warm[I].Diags.empty())
        return false;
  }
  if (WarmProf.Counts.size() != NumMethods)
    return false;
  for (uint32_t Id = 0; Id < NumMethods; ++Id)
    if (WarmProf.Counts[Id].size() != Mod.method(Id).Code.size())
      return false;
  Classes = std::move(WarmClasses);
  Prof = std::move(WarmProf);
  rebuildRegionTables();
  retranslate();
  return true;
}

GuestObject *Interpreter::allocateObject() {
  GuestObject *Obj = Heap.allocate();
  for (auto &Field : Obj->F)
    Field.write(0);
  for (auto &Ref : Obj->R)
    Ref.write(nullptr);
  return Obj;
}

GuestArray *Interpreter::allocateArray(int64_t Len) {
  if (Len < 0)
    throwGuest(GuestErrorKind::NegativeArraySize);
  auto Arr = std::make_unique<GuestArray>(Len);
  GuestArray *Raw = Arr.get();
  std::lock_guard<std::mutex> G(ArraysMu);
  Arrays.push_back(std::move(Arr));
  return Raw;
}

const Interpreter::RegionEntry &
Interpreter::regionAt(uint32_t MethodId, uint32_t EnterPc) const {
  const auto &Entry = RegionTables[MethodId][EnterPc];
  SOLERO_CHECK(Entry.has_value(), "SyncEnter without classified region");
  return *Entry;
}

Value Interpreter::invoke(const std::string &Name, std::vector<Value> Args) {
  return invoke(Mod.methodId(Name), std::move(Args));
}

Value Interpreter::invoke(uint32_t MethodId, std::vector<Value> Args) {
  SOLERO_CHECK(Args.size() == Facts[MethodId].NumParams,
               "argument count mismatch");
  ArenaLease Lease(ArenaSlots);
  ExecCtx EC;
  EC.PollsLeft = Opts.MaxSteps;
  EC.ArenaTop = Lease.base();
  EC.Intents = &Lease.intents();
  EC.Monitors = &Lease.monitors();
  if (Opts.Mode == DispatchMode::Threaded)
    return execMethodThreaded(EC, MethodId, Args.data());
  return execMethod(EC, MethodId, Args.data());
}

void Interpreter::monitorOp(ExecCtx &EC, GuestObject *Obj, Opcode Op) {
  if (!Obj)
    throwGuest(GuestErrorKind::NullPointer);
  if (Opts.UseConventionalLocks) {
    if (!Conventional.heldByCurrentThread(Obj->Hdr))
      throwGuest(GuestErrorKind::IllegalMonitorState);
    if (Op == Opcode::MonitorWait)
      Conventional.wait(Obj->Hdr);
    else
      Conventional.notify(Obj->Hdr, Op == Opcode::MonitorNotifyAll);
    return;
  }
  // SOLERO mode: find the enclosing writing region's handle.
  SoleroLock::MonitorHandle *MH = nullptr;
  for (auto It = EC.Monitors->rbegin(); It != EC.Monitors->rend(); ++It)
    if (It->first == &Obj->Hdr) {
      MH = It->second;
      break;
    }
  if (!MH)
    throwGuest(GuestErrorKind::IllegalMonitorState);
  if (Op == Opcode::MonitorWait)
    MH->wait();
  else
    MH->notify(Op == Opcode::MonitorNotifyAll);
}

template <typename BodyFn>
std::optional<Value> Interpreter::runRegion(ExecCtx &EC, RegionKind Kind,
                                            GuestObject *Obj, BodyFn &&Body) {
  if (Opts.UseConventionalLocks)
    return Conventional.synchronizedWrite(Obj->Hdr, Body);

  switch (Kind) {
  case RegionKind::Writing:
    // Take the MonitorHandle overload so guest MonitorWait/Notify inside
    // this region can reach the owned monitor.
    return Solero.synchronizedWrite(
        Obj->Hdr, [&](SoleroLock::MonitorHandle &MH) {
          EC.Monitors->emplace_back(&Obj->Hdr, &MH);
          ScopeExit PopMon([&] { EC.Monitors->pop_back(); });
          return Body();
        });
  case RegionKind::ReadOnly:
    return Solero.synchronizedReadOnly(Obj->Hdr,
                                       [&](ReadGuard &) { return Body(); });
  case RegionKind::ReadMostly:
    return Solero.synchronizedReadMostly(Obj->Hdr, [&](WriteIntent &W) {
      EC.Intents->push_back(&W);
      ScopeExit PopIntent([&] { EC.Intents->pop_back(); });
      return Body();
    });
  }
  SOLERO_UNREACHABLE("bad region kind");
}

//===----------------------------------------------------------------------===//
// Reference (switch) engine
//===----------------------------------------------------------------------===//

Value Interpreter::execMethod(ExecCtx &EC, uint32_t Id, const Value *Args) {
  if (++EC.Depth > MaxCallDepth)
    throwGuest(GuestErrorKind::StackOverflow);
  // Method-entry check point (Section 3.3).
  speculationCheckpoint();
  const MethodFacts &MF = Facts[Id];
  Value *Locals = EC.ArenaTop;
  EC.ArenaTop += MF.FrameSlots;
  for (uint32_t P = 0; P < MF.NumParams; ++P)
    Locals[P] = Args[P];
  for (uint32_t L = MF.NumParams; L < MF.NumLocals; ++L)
    Locals[L] = Value();
  Frame F{Id, Locals, Locals + MF.NumLocals};
  const uint32_t End = static_cast<uint32_t>(Mod.method(Id).Code.size());
  std::optional<Value> R = Opts.CollectProfile
                               ? execRange<true>(EC, F, 0, End)
                               : execRange<false>(EC, F, 0, End);
  --EC.Depth;
  EC.ArenaTop = Locals;
  SOLERO_CHECK(R.has_value(), "method fell off the end (verifier bug)");
  return *R;
}

std::optional<Value> Interpreter::execRegion(ExecCtx &EC, Frame &F,
                                             uint32_t EnterPc,
                                             GuestObject *Obj) {
  if (!Obj)
    throwGuest(GuestErrorKind::NullPointer);
  const RegionEntry &R = regionAt(F.MethodId, EnterPc);
  Value *const Base = F.Sp;
  Value *const Top = EC.ArenaTop;
  const int Depth = EC.Depth;
  // The body may be re-executed by the elision engine (failed validation
  // or failed upgrade); each attempt restarts from the entry stack height,
  // arena mark, and call depth (an aborted attempt may have unwound out of
  // nested frames without running their epilogues). Locals need no
  // restoration: the classifier refuses to elide regions that write locals
  // live at entry.
  auto Body = [&]() -> std::optional<Value> {
    F.Sp = Base;
    EC.ArenaTop = Top;
    EC.Depth = Depth;
    return Opts.CollectProfile
               ? execRange<true>(EC, F, EnterPc + 1, R.ExitPc)
               : execRange<false>(EC, F, EnterPc + 1, R.ExitPc);
  };
  return runRegion(EC, R.Kind, Obj, Body);
}

template <bool Profiling>
std::optional<Value> Interpreter::execRange(ExecCtx &EC, Frame &F, uint32_t Pc,
                                            uint32_t End) {
  const Method &Fn = Mod.method(F.MethodId);
  Value *Sp = F.Sp;
  auto Push = [&](Value V) { *Sp++ = V; };
  auto PopV = [&]() { return *--Sp; };
  auto Pop = [&]() { return PopV().asInt(); };
  auto PopRef = [&]() { return PopV().asRef(); };

  while (Pc < End) {
    if constexpr (Profiling)
      ++Prof.Counts[F.MethodId][Pc];
    const Instruction &I = Fn.Code[Pc];
    switch (I.Op) {
    case Opcode::Const:
      Push(Value::ofInt(I.A));
      break;
    case Opcode::Dup:
      Push(Sp[-1]);
      break;
    case Opcode::Pop:
      (void)PopV();
      break;
    case Opcode::Swap:
      std::swap(Sp[-1], Sp[-2]);
      break;
    case Opcode::Load:
      Push(F.Locals[static_cast<std::size_t>(I.A)]);
      break;
    case Opcode::Store:
      F.Locals[static_cast<std::size_t>(I.A)] = PopV();
      break;
    case Opcode::Add: {
      int64_t B = Pop(), A = Pop();
      Push(Value::ofInt(A + B));
      break;
    }
    case Opcode::Sub: {
      int64_t B = Pop(), A = Pop();
      Push(Value::ofInt(A - B));
      break;
    }
    case Opcode::Mul: {
      int64_t B = Pop(), A = Pop();
      Push(Value::ofInt(A * B));
      break;
    }
    case Opcode::Div: {
      int64_t B = Pop(), A = Pop();
      if (B == 0)
        throwGuest(GuestErrorKind::Arithmetic);
      Push(Value::ofInt(A / B));
      break;
    }
    case Opcode::Mod: {
      int64_t B = Pop(), A = Pop();
      if (B == 0)
        throwGuest(GuestErrorKind::Arithmetic);
      Push(Value::ofInt(A % B));
      break;
    }
    case Opcode::Neg:
      Push(Value::ofInt(-Pop()));
      break;
    case Opcode::CmpEq: {
      Value B = PopV(), A = PopV();
      Push(Value::ofInt(valueEq(A, B) ? 1 : 0));
      break;
    }
    case Opcode::CmpLt: {
      int64_t B = Pop(), A = Pop();
      Push(Value::ofInt(A < B ? 1 : 0));
      break;
    }
    case Opcode::Jump: {
      uint32_t T = static_cast<uint32_t>(I.A);
      if (T <= Pc) {
        // Back edge: budget poll + check point (Section 3.3).
        SOLERO_CHECK(EC.PollsLeft-- != 0, BudgetMsg);
        speculationCheckpoint();
      }
      Pc = T;
      continue;
    }
    case Opcode::JumpIfZero:
    case Opcode::JumpIfNonZero: {
      int64_t C = Pop();
      bool Taken = (I.Op == Opcode::JumpIfZero) ? C == 0 : C != 0;
      if (Taken) {
        uint32_t T = static_cast<uint32_t>(I.A);
        if (T <= Pc) {
          SOLERO_CHECK(EC.PollsLeft-- != 0, BudgetMsg);
          speculationCheckpoint();
        }
        Pc = T;
        continue;
      }
      break;
    }
    case Opcode::GetField: {
      GuestObject *Obj = PopRef();
      if (!Obj)
        throwGuest(GuestErrorKind::NullPointer);
      Push(Value::ofInt(Obj->F[static_cast<std::size_t>(I.A)].read()));
      break;
    }
    case Opcode::PutField: {
      int64_t V = Pop();
      GuestObject *Obj = PopRef();
      if (!Obj)
        throwGuest(GuestErrorKind::NullPointer);
      // Benign writes target region-local allocations; no upgrade needed.
      if (!Classes.writeIsBenign(F.MethodId, Pc))
        beforeWriteEffect(EC);
      Obj->F[static_cast<std::size_t>(I.A)].write(V);
      break;
    }
    case Opcode::GetRef: {
      GuestObject *Obj = PopRef();
      if (!Obj)
        throwGuest(GuestErrorKind::NullPointer);
      Push(Value::ofRef(Obj->R[static_cast<std::size_t>(I.A)].read()));
      break;
    }
    case Opcode::PutRef: {
      GuestObject *V = PopRef();
      GuestObject *Obj = PopRef();
      if (!Obj)
        throwGuest(GuestErrorKind::NullPointer);
      if (!Classes.writeIsBenign(F.MethodId, Pc))
        beforeWriteEffect(EC);
      Obj->R[static_cast<std::size_t>(I.A)].write(V);
      break;
    }
    case Opcode::NewObject:
      Push(Value::ofRef(allocateObject()));
      break;
    case Opcode::PushNull:
      Push(Value::ofRef(nullptr));
      break;
    case Opcode::NewArray:
      Push(Value::ofArr(allocateArray(Pop())));
      break;
    case Opcode::ALoad: {
      int64_t Idx = Pop();
      GuestArray *Arr = PopV().asArr();
      if (!Arr)
        throwGuest(GuestErrorKind::NullPointer);
      if (Idx < 0 || Idx >= Arr->Len)
        throwGuest(GuestErrorKind::ArrayIndexOutOfBounds);
      Push(Value::ofInt(Arr->Elems[static_cast<std::size_t>(Idx)].read()));
      break;
    }
    case Opcode::AStore: {
      int64_t V = Pop();
      int64_t Idx = Pop();
      GuestArray *Arr = PopV().asArr();
      if (!Arr)
        throwGuest(GuestErrorKind::NullPointer);
      if (Idx < 0 || Idx >= Arr->Len)
        throwGuest(GuestErrorKind::ArrayIndexOutOfBounds);
      if (!Classes.writeIsBenign(F.MethodId, Pc))
        beforeWriteEffect(EC);
      Arr->Elems[static_cast<std::size_t>(Idx)].write(V);
      break;
    }
    case Opcode::ArrayLen: {
      GuestArray *Arr = PopV().asArr();
      if (!Arr)
        throwGuest(GuestErrorKind::NullPointer);
      Push(Value::ofInt(Arr->Len));
      break;
    }
    case Opcode::GetStatic:
      Push(Value::ofInt(Statics[static_cast<std::size_t>(I.A)].read()));
      break;
    case Opcode::PutStatic: {
      int64_t V = Pop();
      beforeWriteEffect(EC);
      Statics[static_cast<std::size_t>(I.A)].write(V);
      break;
    }
    case Opcode::Invoke: {
      // Invokes count against the progress budget (recursion can loop
      // without a back edge).
      SOLERO_CHECK(EC.PollsLeft-- != 0, BudgetMsg);
      const uint32_t Callee = static_cast<uint32_t>(I.A);
      Sp -= Facts[Callee].NumParams;
      *Sp = execMethod(EC, Callee, Sp);
      ++Sp;
      break;
    }
    case Opcode::SyncEnter: {
      GuestObject *Obj = PopRef();
      F.Sp = Sp;
      std::optional<Value> Ret = execRegion(EC, F, Pc, Obj);
      if (Ret.has_value())
        return Ret; // Return executed inside the region
      Sp = F.Sp;
      Pc = regionAt(F.MethodId, Pc).ExitPc + 1;
      continue;
    }
    case Opcode::SyncExit:
      SOLERO_UNREACHABLE("SyncExit reached directly (verifier bug)");
    case Opcode::MonitorWait:
    case Opcode::MonitorNotify:
    case Opcode::MonitorNotifyAll:
      monitorOp(EC, PopRef(), I.Op);
      break;
    case Opcode::Throw:
      throw GuestError{static_cast<int32_t>(Pop())};
    case Opcode::Print: {
      int64_t V = Pop();
      beforeWriteEffect(EC);
      std::printf("[guest] %lld\n", static_cast<long long>(V));
      break;
    }
    case Opcode::NativeCall: {
      int64_t V = Pop();
      beforeWriteEffect(EC);
      NativeSink = NativeSink + V;
      Push(Value::ofInt(NativeSink));
      break;
    }
    case Opcode::Return: {
      Value V = PopV();
      F.Sp = Sp;
      return V;
    }
    }
    ++Pc;
  }
  F.Sp = Sp;
  return std::nullopt; // reached End (region exit)
}

//===----------------------------------------------------------------------===//
// Threaded (pre-decoded) engine
//===----------------------------------------------------------------------===//

Value Interpreter::execMethodThreaded(ExecCtx &EC, uint32_t Id,
                                      const Value *Args) {
  if (++EC.Depth > MaxCallDepth)
    throwGuest(GuestErrorKind::StackOverflow);
  // Method-entry check point (Section 3.3).
  speculationCheckpoint();
  const TranslatedMethod &TM = Trans.Methods[Id];
  Value *Locals = EC.ArenaTop;
  EC.ArenaTop += TM.FrameSlots;
  for (uint32_t P = 0; P < TM.NumParams; ++P)
    Locals[P] = Args[P];
  for (uint32_t L = TM.NumParams; L < TM.NumLocals; ++L)
    Locals[L] = Value();
  Frame F{Id, Locals, Locals + TM.NumLocals};
  std::optional<Value> R = execThreaded(EC, F, 0);
  --EC.Depth;
  EC.ArenaTop = Locals;
  SOLERO_CHECK(R.has_value(), "method fell off the end (verifier bug)");
  return *R;
}

std::optional<Value> Interpreter::execRegionThreaded(ExecCtx &EC, Frame &F,
                                                     uint32_t BodyPc,
                                                     RegionKind Kind,
                                                     GuestObject *Obj) {
  if (!Obj)
    throwGuest(GuestErrorKind::NullPointer);
  Value *const Base = F.Sp;
  Value *const Top = EC.ArenaTop;
  const int Depth = EC.Depth;
  // Mirror of execRegion's re-execution slate (see the comment there).
  auto Body = [&]() -> std::optional<Value> {
    F.Sp = Base;
    EC.ArenaTop = Top;
    EC.Depth = Depth;
    return execThreaded(EC, F, BodyPc);
  };
  return runRegion(EC, Kind, Obj, Body);
}

std::optional<Value> Interpreter::execThreaded(ExecCtx &EC, Frame &F,
                                               uint32_t Pc) {
  const TInst *const Code = Trans.Methods[F.MethodId].Code.data();
  Value *const Lo = F.Locals;
  Value *Sp = F.Sp;
  const TInst *I;

// Branch handlers poll the budget and the asynchronous check point only
// when the translator tagged the branch as a back edge.
#define VM_POLL_BACKEDGE()                                                     \
  do {                                                                         \
    if (I->backEdge()) {                                                       \
      SOLERO_CHECK(EC.PollsLeft-- != 0, BudgetMsg);                            \
      speculationCheckpoint();                                                 \
    }                                                                          \
  } while (0)

#if SOLERO_THREADED_DISPATCH
  // Token-threaded dispatch: the label table is indexed by the pre-decoded
  // opcode, so its order is the TOp enum order — keep the two in sync.
  static const void *const Labels[NumTOps] = {&&L_Const,
                                              &&L_Dup,
                                              &&L_Pop,
                                              &&L_Swap,
                                              &&L_Load,
                                              &&L_Store,
                                              &&L_Add,
                                              &&L_Sub,
                                              &&L_Mul,
                                              &&L_Div,
                                              &&L_Mod,
                                              &&L_Neg,
                                              &&L_CmpEq,
                                              &&L_CmpLt,
                                              &&L_Jump,
                                              &&L_JumpIfZero,
                                              &&L_JumpIfNonZero,
                                              &&L_GetField,
                                              &&L_PutField,
                                              &&L_GetRef,
                                              &&L_PutRef,
                                              &&L_NewObject,
                                              &&L_PushNull,
                                              &&L_NewArray,
                                              &&L_ALoad,
                                              &&L_AStore,
                                              &&L_ArrayLen,
                                              &&L_GetStatic,
                                              &&L_PutStatic,
                                              &&L_Invoke,
                                              &&L_SyncEnter,
                                              &&L_SyncExit,
                                              &&L_MonitorWait,
                                              &&L_MonitorNotify,
                                              &&L_MonitorNotifyAll,
                                              &&L_Throw,
                                              &&L_Print,
                                              &&L_NativeCall,
                                              &&L_Return,
                                              &&L_ConstAdd,
                                              &&L_CmpLtJumpIfZero,
                                              &&L_CmpEqJumpIfZero,
                                              &&L_LoadGetField,
                                              &&L_ProfileCount};
  static_assert(NumTOps == 44, "update the label table with the TOp enum");
#define VM_CASE(Name) L_##Name:
#define VM_NEXT()                                                              \
  do {                                                                         \
    I = Code + Pc++;                                                           \
    goto *Labels[I->Op];                                                       \
  } while (0)
  VM_NEXT();
#else
// Portable fallback: same pre-decoded stream and handler bodies, dispatched
// through one switch.
#define VM_CASE(Name) case TOp::Name:
#define VM_NEXT()                                                              \
  do {                                                                         \
    I = Code + Pc++;                                                           \
    goto VmDispatch;                                                           \
  } while (0)
  I = Code + Pc++;
VmDispatch:
  switch (I->op()) {
#endif

  VM_CASE(Const) {
    *Sp++ = Value::ofInt(I->A);
    VM_NEXT();
  }
  VM_CASE(Dup) {
    *Sp = Sp[-1];
    ++Sp;
    VM_NEXT();
  }
  VM_CASE(Pop) {
    --Sp;
    VM_NEXT();
  }
  VM_CASE(Swap) {
    std::swap(Sp[-1], Sp[-2]);
    VM_NEXT();
  }
  VM_CASE(Load) {
    *Sp++ = Lo[static_cast<std::size_t>(I->A)];
    VM_NEXT();
  }
  VM_CASE(Store) {
    Lo[static_cast<std::size_t>(I->A)] = *--Sp;
    VM_NEXT();
  }
  VM_CASE(Add) {
    int64_t B = (--Sp)->asInt();
    Sp[-1] = Value::ofInt(Sp[-1].asInt() + B);
    VM_NEXT();
  }
  VM_CASE(Sub) {
    int64_t B = (--Sp)->asInt();
    Sp[-1] = Value::ofInt(Sp[-1].asInt() - B);
    VM_NEXT();
  }
  VM_CASE(Mul) {
    int64_t B = (--Sp)->asInt();
    Sp[-1] = Value::ofInt(Sp[-1].asInt() * B);
    VM_NEXT();
  }
  VM_CASE(Div) {
    int64_t B = (--Sp)->asInt();
    if (B == 0)
      throwGuest(GuestErrorKind::Arithmetic);
    Sp[-1] = Value::ofInt(Sp[-1].asInt() / B);
    VM_NEXT();
  }
  VM_CASE(Mod) {
    int64_t B = (--Sp)->asInt();
    if (B == 0)
      throwGuest(GuestErrorKind::Arithmetic);
    Sp[-1] = Value::ofInt(Sp[-1].asInt() % B);
    VM_NEXT();
  }
  VM_CASE(Neg) {
    Sp[-1] = Value::ofInt(-Sp[-1].asInt());
    VM_NEXT();
  }
  VM_CASE(CmpEq) {
    Value B = *--Sp, A = *--Sp;
    *Sp++ = Value::ofInt(valueEq(A, B) ? 1 : 0);
    VM_NEXT();
  }
  VM_CASE(CmpLt) {
    int64_t B = (--Sp)->asInt();
    int64_t A = (--Sp)->asInt();
    *Sp++ = Value::ofInt(A < B ? 1 : 0);
    VM_NEXT();
  }
  VM_CASE(Jump) {
    VM_POLL_BACKEDGE();
    Pc = static_cast<uint32_t>(I->A);
    VM_NEXT();
  }
  VM_CASE(JumpIfZero) {
    if ((--Sp)->asInt() == 0) {
      VM_POLL_BACKEDGE();
      Pc = static_cast<uint32_t>(I->A);
    }
    VM_NEXT();
  }
  VM_CASE(JumpIfNonZero) {
    if ((--Sp)->asInt() != 0) {
      VM_POLL_BACKEDGE();
      Pc = static_cast<uint32_t>(I->A);
    }
    VM_NEXT();
  }
  VM_CASE(GetField) {
    GuestObject *Obj = (--Sp)->asRef();
    if (!Obj)
      throwGuest(GuestErrorKind::NullPointer);
    *Sp++ = Value::ofInt(Obj->F[static_cast<std::size_t>(I->A)].read());
    VM_NEXT();
  }
  VM_CASE(PutField) {
    int64_t V = (--Sp)->asInt();
    GuestObject *Obj = (--Sp)->asRef();
    if (!Obj)
      throwGuest(GuestErrorKind::NullPointer);
    // Bit 0 of B marks a benign write (region-local target): no upgrade.
    if (!(I->B & 1u))
      beforeWriteEffect(EC);
    Obj->F[static_cast<std::size_t>(I->A)].write(V);
    VM_NEXT();
  }
  VM_CASE(GetRef) {
    GuestObject *Obj = (--Sp)->asRef();
    if (!Obj)
      throwGuest(GuestErrorKind::NullPointer);
    *Sp++ = Value::ofRef(Obj->R[static_cast<std::size_t>(I->A)].read());
    VM_NEXT();
  }
  VM_CASE(PutRef) {
    GuestObject *V = (--Sp)->asRef();
    GuestObject *Obj = (--Sp)->asRef();
    if (!Obj)
      throwGuest(GuestErrorKind::NullPointer);
    if (!(I->B & 1u))
      beforeWriteEffect(EC);
    Obj->R[static_cast<std::size_t>(I->A)].write(V);
    VM_NEXT();
  }
  VM_CASE(NewObject) {
    *Sp++ = Value::ofRef(allocateObject());
    VM_NEXT();
  }
  VM_CASE(PushNull) {
    *Sp++ = Value::ofRef(nullptr);
    VM_NEXT();
  }
  VM_CASE(NewArray) {
    Sp[-1] = Value::ofArr(allocateArray(Sp[-1].asInt()));
    VM_NEXT();
  }
  VM_CASE(ALoad) {
    int64_t Idx = (--Sp)->asInt();
    GuestArray *Arr = (--Sp)->asArr();
    if (!Arr)
      throwGuest(GuestErrorKind::NullPointer);
    if (Idx < 0 || Idx >= Arr->Len)
      throwGuest(GuestErrorKind::ArrayIndexOutOfBounds);
    *Sp++ = Value::ofInt(Arr->Elems[static_cast<std::size_t>(Idx)].read());
    VM_NEXT();
  }
  VM_CASE(AStore) {
    int64_t V = (--Sp)->asInt();
    int64_t Idx = (--Sp)->asInt();
    GuestArray *Arr = (--Sp)->asArr();
    if (!Arr)
      throwGuest(GuestErrorKind::NullPointer);
    if (Idx < 0 || Idx >= Arr->Len)
      throwGuest(GuestErrorKind::ArrayIndexOutOfBounds);
    if (!(I->B & 1u))
      beforeWriteEffect(EC);
    Arr->Elems[static_cast<std::size_t>(Idx)].write(V);
    VM_NEXT();
  }
  VM_CASE(ArrayLen) {
    GuestArray *Arr = Sp[-1].asArr();
    if (!Arr)
      throwGuest(GuestErrorKind::NullPointer);
    Sp[-1] = Value::ofInt(Arr->Len);
    VM_NEXT();
  }
  VM_CASE(GetStatic) {
    *Sp++ = Value::ofInt(Statics[static_cast<std::size_t>(I->A)].read());
    VM_NEXT();
  }
  VM_CASE(PutStatic) {
    int64_t V = (--Sp)->asInt();
    beforeWriteEffect(EC);
    Statics[static_cast<std::size_t>(I->A)].write(V);
    VM_NEXT();
  }
  VM_CASE(Invoke) {
    SOLERO_CHECK(EC.PollsLeft-- != 0, BudgetMsg);
    const uint32_t Callee = static_cast<uint32_t>(I->A);
    // Arguments sit contiguously on top of the operand stack, in order —
    // the callee copies them straight into its frame.
    Sp -= Trans.Methods[Callee].NumParams;
    *Sp = execMethodThreaded(EC, Callee, Sp);
    ++Sp;
    VM_NEXT();
  }
  VM_CASE(SyncEnter) {
    GuestObject *Obj = (--Sp)->asRef();
    F.Sp = Sp;
    // Pc already points at the region body; I->A is the continuation,
    // I->B the classification inline cache.
    std::optional<Value> Ret =
        execRegionThreaded(EC, F, Pc, static_cast<RegionKind>(I->B), Obj);
    if (Ret.has_value())
      return Ret; // Return executed inside the region
    Sp = F.Sp;
    Pc = static_cast<uint32_t>(I->A);
    VM_NEXT();
  }
  VM_CASE(SyncExit) {
    // Region bodies run as nested execThreaded calls; the exit marker
    // ends the body.
    F.Sp = Sp;
    return std::nullopt;
  }
  VM_CASE(MonitorWait) {
    monitorOp(EC, (--Sp)->asRef(), Opcode::MonitorWait);
    VM_NEXT();
  }
  VM_CASE(MonitorNotify) {
    monitorOp(EC, (--Sp)->asRef(), Opcode::MonitorNotify);
    VM_NEXT();
  }
  VM_CASE(MonitorNotifyAll) {
    monitorOp(EC, (--Sp)->asRef(), Opcode::MonitorNotifyAll);
    VM_NEXT();
  }
  VM_CASE(Throw) { throw GuestError{static_cast<int32_t>((--Sp)->asInt())}; }
  VM_CASE(Print) {
    int64_t V = (--Sp)->asInt();
    beforeWriteEffect(EC);
    std::printf("[guest] %lld\n", static_cast<long long>(V));
    VM_NEXT();
  }
  VM_CASE(NativeCall) {
    int64_t V = (--Sp)->asInt();
    beforeWriteEffect(EC);
    NativeSink = NativeSink + V;
    *Sp++ = Value::ofInt(NativeSink);
    VM_NEXT();
  }
  VM_CASE(Return) {
    Value V = *--Sp;
    F.Sp = Sp;
    return V;
  }
  VM_CASE(ConstAdd) {
    Sp[-1] = Value::ofInt(Sp[-1].asInt() + I->A);
    VM_NEXT();
  }
  VM_CASE(CmpLtJumpIfZero) {
    int64_t B = (--Sp)->asInt();
    int64_t A = (--Sp)->asInt();
    if (!(A < B)) {
      VM_POLL_BACKEDGE();
      Pc = static_cast<uint32_t>(I->A);
    }
    VM_NEXT();
  }
  VM_CASE(CmpEqJumpIfZero) {
    Value B = *--Sp, A = *--Sp;
    if (!valueEq(A, B)) {
      VM_POLL_BACKEDGE();
      Pc = static_cast<uint32_t>(I->A);
    }
    VM_NEXT();
  }
  VM_CASE(LoadGetField) {
    GuestObject *Obj = Lo[I->B].asRef();
    if (!Obj)
      throwGuest(GuestErrorKind::NullPointer);
    *Sp++ = Value::ofInt(Obj->F[static_cast<std::size_t>(I->A)].read());
    VM_NEXT();
  }
  VM_CASE(ProfileCount) {
    ++Prof.Counts[F.MethodId][static_cast<std::size_t>(I->A)];
    VM_NEXT();
  }

#if !SOLERO_THREADED_DISPATCH
  }
#endif
  SOLERO_UNREACHABLE("fell out of dispatch (translator bug)");

#undef VM_CASE
#undef VM_NEXT
#undef VM_POLL_BACKEDGE
}
