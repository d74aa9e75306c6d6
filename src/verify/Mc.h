//===- verify/Mc.h - Protocol model-checking substrate ----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substrate under the exhaustive protocol model checker (DESIGN.md
/// §18): a tiny guarded-transition-system vocabulary in which the SOLERO,
/// Tasuki-inflation, and BRAVO lock-word protocols are written as explicit
/// per-thread state machines over a handful of byte-valued shared
/// variables.
///
/// One model step = one atomic action on modeled shared memory (a load, a
/// store, an RMW, or a fence), so the checker's interleavings are exactly
/// the protocol's atomicity granularity. Memory is pluggable between two
/// operational semantics:
///
///   - SC: stores hit memory immediately.
///   - TSO: each thread owns a bounded FIFO store buffer. Plain stores
///     append; loads forward from the newest matching own-buffer entry;
///     RMWs, seq_cst stores and fences require an empty buffer (x86 locked
///     ops, XCHG and mfence drain); the scheduler nondeterministically
///     flushes the oldest entry of any buffer as its own transition. This
///     is the standard store-buffer formalization of TSO, and it is what
///     makes BRAVO's Dekker pairing checkable at all — under SC every
///     fence is a no-op.
///   - RA: TSO's buffers, but only seq_cst operations drain them. A
///     release/acquire RMW is not a StoreLoad barrier: its write joins
///     the buffer like a release store, so a later load can pass it. This
///     is what C++ promises for release stores and acq_rel CASes against
///     a later seq_cst load (POWER and AArch64 exploit it; x86 locked ops
///     are stronger). A buffered write reserves its variable: no other
///     thread writes it until the flush, which keeps each RMW's write the
///     immediate successor of the value it read. The cost is that two
///     threads' racing plain stores to one variable are not interleaved
///     in their buffers; SOLERO's only write-write race on a word is a
///     release against an FLC-setting CAS, which the rule covers.
///
/// Every primitive records its read/write variable footprint; the checker
/// uses the footprints for the sleep-set independence relation.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_VERIFY_MC_H
#define SOLERO_VERIFY_MC_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace solero {
namespace verify {

/// Memory semantics the checker explores under.
enum class MemSemantics : uint8_t {
  SC,  ///< sequential consistency: stores are immediately visible
  TSO, ///< total store order: per-thread FIFO store buffers, fences drain
  RA   ///< TSO buffers that only seq_cst operations drain (see above)
};

inline const char *memSemanticsName(MemSemantics M) {
  switch (M) {
  case MemSemantics::SC:
    return "SC";
  case MemSemantics::TSO:
    return "TSO";
  case MemSemantics::RA:
    return "RA";
  }
  return "?";
}

/// Ordering of one store or RMW: the release/acquire family (release
/// store, acquire or acq_rel RMW) or seq_cst. Only RA tells them apart
/// for RMWs; TSO tells them apart for stores (a seq_cst store is XCHG).
enum class McOrder : uint8_t { Ra, SeqCst };

/// Model capacity ceilings. Deliberately tiny: a state must stay a few
/// dozen bytes so millions can be hashed, and the protocols under test
/// need 3 threads and at most 10 shared variables.
inline constexpr unsigned McMaxVars = 10;
inline constexpr unsigned McMaxThreads = 3;
inline constexpr unsigned McMaxLocals = 6;
inline constexpr unsigned McMaxBuf = 3;

/// One explored global state: shared memory, per-thread store buffers,
/// and per-thread control (pc) and registers (locals). All fields are
/// bytes and the struct is padding-free, so identity is memcmp and the
/// hash is a byte hash.
struct McState {
  uint8_t Mem[McMaxVars];
  uint8_t Pc[McMaxThreads];
  uint8_t Local[McMaxThreads][McMaxLocals];
  uint8_t BufVar[McMaxThreads][McMaxBuf];
  uint8_t BufVal[McMaxThreads][McMaxBuf];
  uint8_t BufLen[McMaxThreads];

  void clear() { std::memset(this, 0, sizeof(McState)); }

  bool operator==(const McState &O) const {
    return std::memcmp(this, &O, sizeof(McState)) == 0;
  }

  /// FNV-1a over the raw bytes (sound because the struct is padding-free:
  /// every byte is a defined field).
  uint64_t hash() const {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(this);
    uint64_t H = 1469598103934665603ull;
    for (unsigned I = 0; I < sizeof(McState); ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
    return H;
  }
};

/// The memory machine one step executes against. Wraps a state being
/// rewritten in place, applies the selected semantics to each primitive,
/// and records the variable footprint for the independence relation.
///
/// Primitives returning bool return false when the action is *disabled*
/// in this state (buffer full on store, buffer non-empty on fence or
/// locked RMW, an RA reservation, or a model guard); the checker then
/// treats the whole step as not enabled and the scheduler must run
/// something else first (e.g. a buffer flush).
class Mach {
public:
  Mach(McState &S, unsigned Tid, MemSemantics Sem)
      : S(S), Tid(Tid), Sem(Sem) {}

  /// Atomic load. Under TSO and RA forwards from the newest own-buffer
  /// entry. A seq_cst load needs nothing more: seq_cst writes are never
  /// buffered.
  uint8_t load(unsigned Var) {
    Reads |= Bit(Var);
    if (Sem != MemSemantics::SC)
      for (unsigned I = S.BufLen[Tid]; I > 0; --I)
        if (S.BufVar[Tid][I - 1] == Var)
          return S.BufVal[Tid][I - 1];
    return S.Mem[Var];
  }

  /// Store. A release store appends to the thread's buffer under TSO and
  /// RA; a seq_cst store waits for an empty buffer and writes memory.
  /// Returns false (disabled) when the buffer is full, or not yet drained
  /// for a seq_cst store, or when RA reserves \p Var to another thread.
  bool store(unsigned Var, uint8_t Val, McOrder O = McOrder::Ra) {
    Writes |= Bit(Var);
    if (Sem == MemSemantics::SC) {
      S.Mem[Var] = Val;
      return true;
    }
    if (!writable(Var))
      return false;
    if (O == McOrder::SeqCst) {
      if (S.BufLen[Tid] != 0)
        return false;
      S.Mem[Var] = Val;
      return true;
    }
    if (S.BufLen[Tid] == McMaxBuf)
      return false;
    buffer(Var, Val);
    return true;
  }

  /// True when an RMW on \p Var may run. TSO requires the thread's buffer
  /// drained (an x86 locked op flushes the store buffer first); so does a
  /// seq_cst RMW under RA, while a release/acquire one needs only a free
  /// buffer slot. RA also waits while another thread reserves \p Var.
  bool rmwReady(unsigned Var, McOrder O = McOrder::Ra) const {
    if (Sem == MemSemantics::SC)
      return true;
    if (!writable(Var))
      return false;
    if (Sem == MemSemantics::TSO || O == McOrder::SeqCst)
      return S.BufLen[Tid] == 0;
    return S.BufLen[Tid] < McMaxBuf;
  }

  /// Atomic compare-and-swap. Caller must have checked rmwReady() with the
  /// same order; a failed comparison is a real (enabled) step, not a
  /// disabled one.
  bool cas(unsigned Var, uint8_t Expect, uint8_t New,
           McOrder O = McOrder::Ra) {
    Reads |= Bit(Var);
    Writes |= Bit(Var);
    if (load(Var) != Expect)
      return false;
    rmwWrite(Var, New, O);
    return true;
  }

  /// Atomic fetch-and-add (also used for fetch-and-sub with a negative
  /// delta). Caller must have checked rmwReady(). Returns the old value.
  uint8_t rmwAdd(unsigned Var, int Delta, McOrder O = McOrder::Ra) {
    Reads |= Bit(Var);
    Writes |= Bit(Var);
    uint8_t Old = load(Var);
    rmwWrite(Var, static_cast<uint8_t>(static_cast<int>(Old) + Delta), O);
    return Old;
  }

  /// Full fence (seq_cst / mfence). Disabled under TSO and RA until the
  /// thread's buffer has been flushed by scheduler steps.
  bool fence() { return Sem == MemSemantics::SC || S.BufLen[Tid] == 0; }

  /// Footprint masks (bit per variable) accumulated by this step.
  uint16_t readMask() const { return Reads; }
  uint16_t writeMask() const { return Writes; }

private:
  static uint16_t Bit(unsigned Var) { return static_cast<uint16_t>(1u << Var); }

  /// False under RA while another thread's buffer holds a write to Var.
  bool writable(unsigned Var) const {
    if (Sem != MemSemantics::RA)
      return true;
    for (unsigned T = 0; T < McMaxThreads; ++T)
      for (unsigned I = 0; T != Tid && I < S.BufLen[T]; ++I)
        if (S.BufVar[T][I] == Var)
          return false;
    return true;
  }

  void buffer(unsigned Var, uint8_t Val) {
    S.BufVar[Tid][S.BufLen[Tid]] = static_cast<uint8_t>(Var);
    S.BufVal[Tid][S.BufLen[Tid]] = Val;
    ++S.BufLen[Tid];
  }

  /// The write half of an RMW: buffered only for a release/acquire RMW
  /// under RA (TSO and seq_cst RMWs run on a drained buffer).
  void rmwWrite(unsigned Var, uint8_t Val, McOrder O) {
    if (Sem == MemSemantics::RA && O == McOrder::Ra)
      buffer(Var, Val);
    else
      S.Mem[Var] = Val;
  }

  McState &S;
  unsigned Tid;
  MemSemantics Sem;
  uint16_t Reads = 0;
  uint16_t Writes = 0;
};

/// Renders the non-empty store buffers as " buf=<t0>|<t1>|..." with each
/// thread's FIFO as comma-separated var:val pairs ("-" when empty), or an
/// empty string when every buffer is drained. Shared by the models'
/// renderState implementations.
inline std::string renderBufs(const McState &S, unsigned Threads) {
  bool Any = false;
  for (unsigned T = 0; T < Threads; ++T)
    Any |= S.BufLen[T] != 0;
  if (!Any)
    return "";
  std::string Out = " buf=";
  char B[16];
  for (unsigned T = 0; T < Threads; ++T) {
    if (T)
      Out += "|";
    if (S.BufLen[T] == 0) {
      Out += "-";
      continue;
    }
    for (unsigned I = 0; I < S.BufLen[T]; ++I) {
      std::snprintf(B, sizeof(B), "%s%u:%02x", I ? "," : "", S.BufVar[T][I],
                    S.BufVal[T][I]);
      Out += B;
    }
  }
  return Out;
}

/// A protocol expressed as per-thread deterministic guarded state
/// machines: from any state each thread has at most one enabled action
/// (all nondeterminism is the scheduler's). Implementations live in
/// verify/*Model.cpp.
class ProtocolModel {
public:
  virtual ~ProtocolModel() = default;

  /// Model name as printed by the CLI and traces ("solero", ...).
  virtual const char *name() const = 0;

  /// Number of modeled threads (<= McMaxThreads).
  virtual unsigned threads() const = 0;

  /// Writes the initial state.
  virtual void init(McState &S) const = 0;

  /// Executes thread \p Tid's next atomic action in place. Returns false
  /// when the thread is disabled here (blocked on a guard or on TSO
  /// buffer constraints); the state must then be treated as unchanged.
  /// \p Label receives a static action name either way.
  virtual bool step(McState &S, unsigned Tid, Mach &M,
                    const char **Label) const = 0;

  /// True when thread \p Tid has run to completion in \p S.
  virtual bool done(const McState &S, unsigned Tid) const = 0;

  /// Safety oracle: nullptr when \p S is fine, else a static description
  /// of the violated invariant.
  virtual const char *invariant(const McState &S) const = 0;

  /// One-line rendering of the interesting shared state for traces.
  virtual std::string renderState(const McState &S) const = 0;
};

} // namespace verify
} // namespace solero

#endif // SOLERO_VERIFY_MC_H
