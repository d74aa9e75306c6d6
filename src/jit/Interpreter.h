//===- jit/Interpreter.h - CSIR execution engine ----------------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes CSIR under SOLERO. Construction plays the role of the paper's
/// JIT compilation: the module is verified, synchronized regions are
/// discovered and classified (Section 3.2), the program is lowered to a
/// pre-decoded stream (jit/Translator.h), and execution then locks each
/// region according to its classification — read-only regions elide
/// (Figure 7), read-mostly regions elide with mid-section upgrade
/// (Figure 17), writing regions acquire conventionally (Figure 6).
///
/// Two dispatch engines share the lock protocol and the guest heap:
///
///  - DispatchMode::Threaded (default): executes the translated stream
///    with computed-goto threaded dispatch (a pre-decoded switch loop on
///    toolchains without the extension), superinstructions fused, call
///    frames carved from a pre-sized per-invoke arena (no allocation on
///    the call path), and the runaway-step budget polled only at loop
///    back edges and invokes;
///  - DispatchMode::Reference: the original re-decoding switch
///    interpreter over Method::Code, retained as the differential-test
///    oracle. It shares the frame arena and budget polling so the two
///    engines differ only in dispatch.
///
/// Asynchronous check points fire at loop back-edges and method entries
/// (Section 3.3) in both engines, and guest runtime errors raised during
/// speculation flow through the elision engine's genuine-or-retry logic.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_JIT_INTERPRETER_H
#define SOLERO_JIT_INTERPRETER_H

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/SoleroLock.h"
#include "jit/Program.h"
#include "jit/ReadOnlyClassifier.h"
#include "jit/Translator.h"
#include "jit/Verifier.h"
#include "locks/TasukiLock.h"
#include "mm/TypeStablePool.h"
#include "runtime/RuntimeContext.h"
#include "runtime/SharedField.h"

namespace solero {
namespace jit {

/// A guest heap object: a lock word plus fixed integer and reference
/// field arrays, all speculation-safe.
struct GuestObject {
  ObjectHeader Hdr;
  SharedField<int64_t> F[ObjectIntFields];
  SharedField<GuestObject *> R[ObjectRefFields];
};

/// A guest integer array: fixed length, speculation-safe elements.
/// Arrays live until the interpreter is destroyed (the guest language has
/// no free; the paper's runtime has a GC).
struct GuestArray {
  explicit GuestArray(int64_t Len)
      : Len(Len), Elems(new SharedField<int64_t>[static_cast<size_t>(Len)]()) {}
  const int64_t Len;
  std::unique_ptr<SharedField<int64_t>[]> Elems;
};

/// A guest value: an integer, an object reference, or an array reference.
struct Value {
  enum class Kind : uint8_t { Int, Ref, Arr };
  Kind K = Kind::Int;
  int64_t I = 0;
  GuestObject *O = nullptr;
  GuestArray *A = nullptr;

  static Value ofInt(int64_t V) {
    Value X;
    X.K = Kind::Int;
    X.I = V;
    return X;
  }
  static Value ofRef(GuestObject *Obj) {
    Value X;
    X.K = Kind::Ref;
    X.O = Obj;
    return X;
  }
  static Value ofArr(GuestArray *Arr) {
    Value X;
    X.K = Kind::Arr;
    X.A = Arr;
    return X;
  }

  int64_t asInt() const {
    SOLERO_CHECK(K == Kind::Int, "value kind confusion (expected int)");
    return I;
  }
  GuestObject *asRef() const {
    SOLERO_CHECK(K == Kind::Ref, "value kind confusion (expected ref)");
    return O;
  }
  GuestArray *asArr() const {
    SOLERO_CHECK(K == Kind::Arr, "value kind confusion (expected array)");
    return A;
  }
};

/// Which execution engine runs the guest program.
enum class DispatchMode : uint8_t {
  /// Pre-decoded stream, threaded dispatch, arena frames, fused
  /// superinstructions. The production engine.
  Threaded,
  /// Re-decoding switch loop over the original Method::Code — the
  /// differential-testing oracle.
  Reference,
};

/// The CSIR execution engine. Thread-safe for concurrent invoke() calls
/// (that is the point: guest threads contending on guest monitors), except
/// when profile collection is enabled, which is a single-threaded
/// profiling phase by design.
class Interpreter {
public:
  struct Options {
    /// Baseline mode: lock every region with the conventional protocol,
    /// ignoring classifications (the paper's "Lock" configuration).
    bool UseConventionalLocks = false;
    /// Count per-instruction executions for profile-guided read-mostly
    /// classification (single-threaded phase). The threaded engine bakes
    /// the instrumentation into the translated stream, so execution with
    /// this off pays nothing for the option.
    bool CollectProfile = false;
    /// Guest progress budget per top-level invoke (runaway-loop
    /// backstop), decremented at loop back edges and invokes — any
    /// unbounded execution must pass one of those — rather than per
    /// instruction.
    uint64_t MaxSteps = 1ULL << 32;
    /// Which engine executes guest code.
    DispatchMode Mode = DispatchMode::Threaded;
    /// Fuse hot adjacent pairs into superinstructions (threaded engine
    /// only; off is useful for bracketing fusion's contribution).
    bool FuseSuperinstructions = true;
    /// Protocol configuration for SOLERO-mode regions.
    SoleroConfig Solero;
    /// Static-analysis knobs for region classification (ablation).
    ClassifierOptions Classifier;
  };

  Interpreter(RuntimeContext &Ctx, Module Mod, Options Opts);
  Interpreter(RuntimeContext &Ctx, Module Mod);

  /// Runs a method. \p Args must match the method's parameter count.
  Value invoke(uint32_t MethodId, std::vector<Value> Args);
  Value invoke(const std::string &Name, std::vector<Value> Args);

  /// Re-runs classification with the collected profile (the paper's
  /// recompilation after profiling) and retranslates the program so the
  /// new classifications reach the SyncEnter inline caches. Call from a
  /// quiescent point.
  void reclassifyWithProfile();

  /// Ends the single-threaded profiling phase: stops baking ProfileCount
  /// instrumentation into the stream and retranslates. Call after
  /// reclassifyWithProfile(), before concurrent invokes. Quiescent point
  /// only.
  void endProfiling();

  /// Adopts warm-image state (image/Resources.h): a classification and
  /// profile captured by an earlier process. Both are checked against this
  /// module — method count, region boundaries, profile shape — and on ANY
  /// mismatch the call returns false and keeps the cold-start state (the
  /// constructor already classified and translated). On success the
  /// threaded stream is retranslated from this module and this engine's
  /// Options, so no translated code ever comes from an image.
  /// Quiescent point only (no invoke in flight).
  bool adoptWarmState(ClassifiedModule WarmClasses, Profile WarmProf);

  /// The lock guarding all SOLERO-mode guest regions (its adaptive
  /// controller is part of the warm image).
  SoleroLock &soleroLock() { return Solero; }

  /// Allocates a zeroed guest object (for test/bench setup and NewObject).
  GuestObject *allocateObject();

  /// Allocates a zeroed guest integer array of \p Len elements.
  GuestArray *allocateArray(int64_t Len);

  const Module &module() const { return Mod; }
  const ClassifiedModule &classification() const { return Classes; }
  const Profile &profile() const { return Prof; }
  /// The pre-decoded program (empty in Reference mode).
  const TranslatedModule &translated() const { return Trans; }

  /// True when the build dispatches the translated stream with computed
  /// goto; false when DispatchMode::Threaded falls back to a pre-decoded
  /// switch loop.
  static bool threadedDispatchAvailable();

  int64_t staticCell(uint32_t Idx) const { return Statics[Idx].read(); }
  void setStaticCell(uint32_t Idx, int64_t V) { Statics[Idx].write(V); }

private:
  /// Guest call depth bound (StackOverflow beyond); together with the
  /// verifier's per-method frame bounds it sizes the call arena.
  static constexpr int MaxCallDepth = 200;

  /// Per-top-level-invoke execution context (thread-owned). Frames are
  /// bump-allocated from a contiguous arena leased for the duration of
  /// the invoke; the intent/monitor stacks live alongside it.
  struct ExecCtx {
    uint64_t PollsLeft = 0;
    int Depth = 0;
    /// Bump pointer into the leased frame arena.
    Value *ArenaTop = nullptr;
    /// Innermost-last stack of active read-mostly upgrade handles.
    std::vector<WriteIntent *> *Intents = nullptr;
    /// Innermost-last stack of held writing-region monitors (for guest
    /// Object.wait / notify in SOLERO mode).
    std::vector<std::pair<ObjectHeader *, SoleroLock::MonitorHandle *>>
        *Monitors = nullptr;
  };

  /// An activation record inside the arena: locals at [Locals,
  /// Locals+NumLocals), operand stack from there up to the verifier-proven
  /// bound. \c Sp is authoritative only at engine boundaries (region
  /// entry/exit, return); inside a dispatch loop it lives in a register.
  struct Frame {
    uint32_t MethodId;
    Value *Locals;
    Value *Sp;
  };

  /// Verifier facts the engines need per method.
  struct MethodFacts {
    uint32_t NumParams = 0;
    uint32_t NumLocals = 0;
    uint32_t FrameSlots = 0; ///< NumLocals + verifier MaxStack
  };

  /// Fast region lookup for the reference engine:
  /// (method, SyncEnter pc) -> classified region.
  struct RegionEntry {
    uint32_t ExitPc;
    RegionKind Kind;
  };

  // --- Reference (switch) engine -----------------------------------------
  Value execMethod(ExecCtx &EC, uint32_t Id, const Value *Args);
  template <bool Profiling>
  std::optional<Value> execRange(ExecCtx &EC, Frame &F, uint32_t Pc,
                                 uint32_t End);
  std::optional<Value> execRegion(ExecCtx &EC, Frame &F, uint32_t EnterPc,
                                  GuestObject *Obj);

  // --- Threaded (pre-decoded) engine -------------------------------------
  Value execMethodThreaded(ExecCtx &EC, uint32_t Id, const Value *Args);
  std::optional<Value> execThreaded(ExecCtx &EC, Frame &F, uint32_t Pc);
  std::optional<Value> execRegionThreaded(ExecCtx &EC, Frame &F,
                                          uint32_t BodyPc, RegionKind Kind,
                                          GuestObject *Obj);

  // --- Shared pieces ------------------------------------------------------
  /// Runs \p Body under the lock protocol \p Kind selects (or the
  /// conventional protocol in baseline mode).
  template <typename BodyFn>
  std::optional<Value> runRegion(ExecCtx &EC, RegionKind Kind,
                                 GuestObject *Obj, BodyFn &&Body);
  /// Guest Object.wait / notify / notifyAll.
  void monitorOp(ExecCtx &EC, GuestObject *Obj, Opcode Op);
  const RegionEntry &regionAt(uint32_t MethodId, uint32_t EnterPc) const;
  void rebuildRegionTables();
  void retranslate();
  /// Called before any write or side effect: upgrades the innermost
  /// read-mostly section if one is active (Figure 17).
  void beforeWriteEffect(ExecCtx &EC) {
    if (!EC.Intents->empty())
      EC.Intents->back()->acquireForWrite();
  }

  RuntimeContext &Ctx;
  Module Mod;
  Options Opts;
  SoleroLock Solero;
  TasukiLock Conventional;
  ClassifiedModule Classes;
  TranslatedModule Trans;
  Profile Prof;
  std::vector<MethodFacts> Facts;
  /// Arena slots one top-level invoke can need: MaxCallDepth frames of the
  /// largest verifier-proven frame shape.
  std::size_t ArenaSlots = 0;
  // RegionTables[Method] maps EnterPc -> entry (dense by code index).
  std::vector<std::vector<std::optional<RegionEntry>>> RegionTables;
  std::unique_ptr<SharedField<int64_t>[]> Statics;
  TypeStablePool<GuestObject> Heap;
  std::mutex ArraysMu;
  std::vector<std::unique_ptr<GuestArray>> Arrays;
};

} // namespace jit
} // namespace solero

#endif // SOLERO_JIT_INTERPRETER_H
