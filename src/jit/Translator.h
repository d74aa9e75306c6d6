//===- jit/Translator.h - CSIR load-time translation ------------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The load-time translation pass: lowers a verified CSIR method into a
/// pre-decoded instruction stream the execution engine can dispatch without
/// re-decoding. This plays the role JIT compilation plays in the paper —
/// the analysis results (Section 3.2 classifications) are baked into the
/// code once, at load time:
///
///  - branch targets are resolved to stream offsets and tagged with a
///    back-edge flag, so the engine polls the asynchronous check point and
///    the step budget only at loop back edges (Section 3.3 semantics);
///  - every SyncEnter carries an inline cache of its region's
///    classification and the stream offset of the region's continuation,
///    so region entry needs no side-table lookup;
///  - Invoke targets stay method ids; the callee's frame shape (locals,
///    verifier-proven max stack) lives in the translated method header so
///    frames can be carved out of a pre-sized arena with no allocation;
///  - hot adjacent pairs are fused into superinstructions
///    (const+add, cmplt/cmpeq+jz, load+getfield);
///  - profile instrumentation is baked in as explicit ProfileCount
///    instructions when requested, so the non-profiling engine pays
///    nothing for the option.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_JIT_TRANSLATOR_H
#define SOLERO_JIT_TRANSLATOR_H

#include <cstdint>
#include <vector>

#include "jit/Program.h"
#include "jit/ReadOnlyClassifier.h"

namespace solero {
namespace jit {

/// Pre-decoded opcodes. The leading block mirrors Opcode one-to-one; the
/// tail adds superinstructions and instrumentation. The execution engine's
/// dispatch table is indexed by this enum, so the order here is ABI between
/// the translator and the engine.
enum class TOp : uint16_t {
  Const,
  Dup,
  Pop,
  Swap,
  Load,
  Store,
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  CmpEq,
  CmpLt,
  Jump,
  JumpIfZero,
  JumpIfNonZero,
  GetField,
  PutField,
  GetRef,
  PutRef,
  NewObject,
  PushNull,
  NewArray,
  ALoad,
  AStore,
  ArrayLen,
  GetStatic,
  PutStatic,
  Invoke,
  SyncEnter,
  SyncExit,
  MonitorWait,
  MonitorNotify,
  MonitorNotifyAll,
  Throw,
  Print,
  NativeCall,
  Return,

  // Superinstructions (fused pairs the profiler surfaces as hot).
  ConstAdd,        ///< push(pop + A)                      [const A; add]
  CmpLtJumpIfZero, ///< b=pop, a=pop; if !(a<b) goto A     [cmplt; jz A]
  CmpEqJumpIfZero, ///< b=pop, a=pop; if a!=b goto A       [cmpeq; jz A]
  LoadGetField,    ///< push(locals[B].F[A])               [load B; getfield A]

  // Instrumentation (emitted only when translating for profiling).
  ProfileCount, ///< ++profile[method][A]; A = original pc
};

/// Number of distinct TOps (dispatch-table size).
inline constexpr std::size_t NumTOps =
    static_cast<std::size_t>(TOp::ProfileCount) + 1;

/// Printable TOp name (fused ops print as "const+add" etc.).
const char *tOpName(TOp Op);

/// One pre-decoded instruction. 8 bytes; \c A is the primary immediate
/// (constant, slot, field, resolved stream offset, method id), \c B a
/// secondary immediate:
///  - branches (fused or not): bit 0 of B set = back edge (poll site);
///  - SyncEnter: B = RegionKind inline cache (cast), A = stream offset of
///    the instruction after the matching SyncExit;
///  - PutField/PutRef/AStore: bit 0 of B set = benign write (the escape
///    analysis proved the target region-local), skip the upgrade hook;
///  - LoadGetField: B = local slot, A = integer field index.
struct TInst {
  uint16_t Op; ///< a TOp
  uint16_t B = 0;
  int32_t A = 0;

  TOp op() const { return static_cast<TOp>(Op); }
  bool backEdge() const { return (B & 1u) != 0; }
};

static_assert(sizeof(TInst) == 8, "pre-decoded instructions stay compact");

/// A translated method: the pre-decoded stream plus the verifier facts the
/// engine needs to lay the method's frame out in the call arena.
struct TranslatedMethod {
  std::vector<TInst> Code;
  std::vector<uint32_t> PcMap; ///< stream offset -> original pc
  uint32_t NumParams = 0;
  uint32_t NumLocals = 0;
  uint32_t MaxStack = 0;   ///< verifier-proven operand stack bound
  uint32_t FrameSlots = 0; ///< NumLocals + MaxStack
};

/// A translated module. Immutable once built; rebuilt from scratch after
/// profile-guided reclassification (the paper's recompilation).
struct TranslatedModule {
  std::vector<TranslatedMethod> Methods;
};

struct TranslatorOptions {
  /// Fuse hot adjacent pairs into superinstructions.
  bool Fuse = true;
  /// Bake ProfileCount instrumentation in front of every original
  /// instruction (disables fusion so counts stay per-original-pc exact).
  bool Profile = false;
};

/// Lowers every method of \p M. The module must verify; \p Classes must be
/// the classification of \p M (its region kinds are baked into SyncEnter
/// inline caches, so retranslate after reclassification).
TranslatedModule translateModule(const Module &M,
                                 const ClassifiedModule &Classes,
                                 const TranslatorOptions &Opts = {});

} // namespace jit
} // namespace solero

#endif // SOLERO_JIT_TRANSLATOR_H
