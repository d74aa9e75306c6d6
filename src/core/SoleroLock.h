//===- core/SoleroLock.h - SOLERO lock elision ------------------*- C++ -*-===//
//
// Part of the SOLERO reproduction of Nakaike & Michael, "Lock Elision for
// Read-Only Critical Sections in Java", PLDI 2010.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SOLERO: Software Optimistic Lock Elision for Read-Only critical
/// sections — the paper's contribution (Section 3).
///
/// The flat lock word holds a sequence counter while free and
/// `thread_id | LOCK_BIT` while held (Figure 5). Writing critical sections
/// CAS the word on entry and publish `v1 + 0x100` on exit (Figure 6).
/// Read-only critical sections run speculatively without writing the lock
/// word: they record the free word at entry and succeed iff the word is
/// unchanged at exit (Figure 7). Slow paths (Figures 8-9) handle
/// recursion, contention, inflation, and the fallback that acquires the
/// lock for real (after one failure in the paper; here a failure another
/// thread caused re-speculates once first). Guest exceptions raised
/// during speculation are absorbed and retried when the lock word changed
/// (Section 3.3); asynchronous events bound inconsistent-read loops via
/// speculationCheckpoint(). Section 5's read-mostly extension upgrades to
/// the lock mid-section with a CAS on the recorded word (Figure 17).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_CORE_SOLEROLOCK_H
#define SOLERO_CORE_SOLEROLOCK_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/ElisionController.h"
#include "runtime/LockWord.h"
#include "runtime/ReadGuard.h"
#include "runtime/RuntimeContext.h"
#include "runtime/SpeculationFault.h"
#include "stress/InjectionPoint.h"
#include "support/Assert.h"
#include "support/Backoff.h"
#include "support/ScopeExit.h"

namespace solero {

/// Memory-fence selection for the read-only fast path (paper Section 3.4).
enum class BarrierMode {
  /// The correct fences: an entry StoreLoad fence (PowerPC `sync`; an
  /// mfence on x86) ordering pre-section stores before the speculative
  /// loads, plus the Boehm-style acquire fence before validation loads.
  Correct,
  /// The paper's "WeakBarrier-SOLERO" ablation: reuse the conventional
  /// lock's cheaper entry ordering (acquire only). Violates Java lock
  /// ordering semantics; measures what the extra fence costs.
  Weak,
};

/// Configuration of one SOLERO protocol instance.
struct SoleroConfig {
  /// False gives "Unelided-SOLERO": read-only sections execute the full
  /// writing protocol (Figure 10's overhead bound).
  bool ElideReadOnly = true;
  BarrierMode Barriers = BarrierMode::Correct;
  /// Speculative executions per section before falling back to real
  /// acquisition. Only a failure another thread caused re-speculates; a
  /// self-caused one falls back at once (see respeculate()). 1 is the
  /// paper's policy: fall back after any failure. Only consulted when the
  /// adaptive controller is off; when it is on, the per-state budgets in
  /// Adaptive govern instead.
  int MaxSpecAttempts = 2;
  /// Failure-ratio-driven speculation policy (core/ElisionController.h).
  /// Disabled by default: the paper's fixed policy applies.
  AdaptiveElisionConfig Adaptive;
};

class SoleroLock;

/// Mid-section lock-upgrade handle for read-mostly critical sections
/// (Section 5). Obtained inside SoleroLock::synchronizedReadMostly.
class WriteIntent {
public:
  /// Ensures the section holds the lock before a write or side effect.
  /// On a speculative execution this CASes the recorded entry word to
  /// `thread_id | LOCK_BIT` (Figure 17), which simultaneously validates
  /// every read performed so far. If the CAS fails, throws an internal
  /// restart signal; the engine acquires the lock and re-executes the
  /// section body from the beginning, so the body must be idempotent up to
  /// its first write (true of any correct read-mostly section).
  void acquireForWrite();

  /// True once the section holds the lock (upgrade done, fallback, or the
  /// section was never speculative).
  bool holding() const { return Holding; }

  /// Async check point; see speculationCheckpoint().
  void checkpoint() const {
    if (!Holding)
      speculationCheckpoint();
  }

  /// Internal: signal that restarts a read-mostly section non-speculatively.
  struct RestartForWrite {};

private:
  friend class SoleroLock;
  WriteIntent(ObjectHeader &H, ThreadState &TS, uint64_t V, bool Holding,
              std::size_t Depth = 0)
      : H(H), TS(TS), V(V), Depth(Depth), Holding(Holding) {}

  ObjectHeader &H;
  ThreadState &TS;
  uint64_t V; ///< entry word (speculative) or fallback v1 (holding)
  std::size_t Depth; ///< this frame's read-record index (speculative only)
  bool Holding;
  bool Upgraded = false;
};

/// The SOLERO lock protocol bound to a runtime context. All protocol state
/// lives in the object's header word; the instance itself carries only the
/// adaptive elision controller's stats cell. One instance per lock (the
/// LockPolicies arrangement) gives each lock site its own failure profile;
/// an instance shared across many headers (the JIT interpreter does this)
/// is still correct, but with the controller enabled the headers then
/// share one blended profile.
class SoleroLock {
public:
  explicit SoleroLock(RuntimeContext &Ctx, SoleroConfig Config = SoleroConfig())
      : Ctx(Ctx), Config(Config), Ctrl(this->Config.Adaptive) {}

  /// Result of a read-only entry attempt. When \c Holding is false, \c V is
  /// the free word to validate against (possibly 0 for a fresh lock — 0 is
  /// a legitimate counter value, not a sentinel). When \c Holding is true
  /// the calling thread owns the lock and \c V is the value slowReadExit
  /// needs (flat v1, or ignored for recursion/fat holds).
  struct ReadEntry {
    uint64_t V;
    bool Holding;
  };

  // --- Writing critical sections (Figure 6) ------------------------------

  /// Acquires the lock for writing; returns the paper's local lock
  /// variable v1, which must be passed to exitWrite.
  uint64_t enterWrite(ObjectHeader &H, ThreadState &TS) {
    uint64_t V1 = H.word().load(std::memory_order_relaxed);
    if (lockword::soleroIsFree(V1)) {
      SOLERO_INJECT(SoleroEnterWriteCas);
      ++TS.Counters.AtomicRmws;
      if (H.word().compare_exchange_strong(
              V1, lockword::soleroHeldWord(TS.tidBits()),
              std::memory_order_acq_rel, std::memory_order_relaxed))
        return V1;
    }
    return slowEnterWrite(H, TS);
  }

  /// Releases a writing acquisition, publishing v1 + 0x100.
  ///
  /// The fast path must release with a CAS, not a blind store: a contender
  /// can set the FLC bit between the load below and the release, and a
  /// store would clobber the bit — the contender then parks with no
  /// release left to notify it, stalling for a full timed-park backstop
  /// (the lost-wakeup race; DESIGN.md §12). The failed CAS falls to
  /// slowExitWrite, which re-reads the word, sees FLC, and notifies.
  void exitWrite(ObjectHeader &H, ThreadState &TS, uint64_t V1) {
    uint64_t V2 = H.word().load(std::memory_order_relaxed);
    if ((V2 & lockword::LowBitsMask) == lockword::SoleroLockBit) {
      SOLERO_INJECT(SoleroExitWriteRelease);
      ++TS.Counters.AtomicRmws;
      if (H.word().compare_exchange_strong(V2, V1 + lockword::CounterUnit,
                                           std::memory_order_release,
                                           std::memory_order_relaxed))
        return;
    }
    slowExitWrite(H, TS, V1);
  }

  /// Handle to the owned monitor inside a writing section: Object.wait /
  /// notify (side effects, so never available in elided sections — the
  /// paper's Section 3.2 exclusion). Obtained by taking it as the lambda
  /// parameter of synchronizedWrite.
  class MonitorHandle {
  public:
    /// Object.wait: releases the monitor (inflating a flat lock first)
    /// and sleeps until notified; reacquires before returning. Returns
    /// may be spurious — call inside a predicate loop.
    void wait() {
      uint64_t W = H.word().load(std::memory_order_acquire);
      if (!lockword::isInflated(W)) {
        // Inflation needs the pre-acquisition counter to publish on
        // deflation; only the outermost frame's handle has it.
        SOLERO_CHECK(Outermost,
                     "SOLERO Object.wait on a flat lock requires the "
                     "outermost synchronized frame's handle");
        OsMonitor &M = L.Ctx.monitors().monitorFor(H);
        M.inflateHeldByOwner(H, TS,
                             static_cast<uint32_t>(
                                 lockword::soleroRecursion(W)),
                             V1 + lockword::CounterUnit);
        W = H.word().load(std::memory_order_acquire);
      }
      L.Ctx.monitors()
          .byIndex(lockword::monitorIndex(W))
          .fatWait(H, TS, L.Ctx.config().ParkMicros);
    }

    /// Object.notify / notifyAll. Flat monitors have empty wait sets.
    void notify(bool All = false) {
      uint64_t W = H.word().load(std::memory_order_acquire);
      if (!lockword::isInflated(W))
        return; // a waiter would have inflated: wait set is empty
      L.Ctx.monitors().byIndex(lockword::monitorIndex(W)).fatNotify(TS, All);
    }
    void notifyAll() { notify(/*All=*/true); }

  private:
    friend class SoleroLock;
    MonitorHandle(SoleroLock &L, ObjectHeader &H, ThreadState &TS,
                  uint64_t V1, bool Outermost)
        : L(L), H(H), TS(TS), V1(V1), Outermost(Outermost) {}
    SoleroLock &L;
    ObjectHeader &H;
    ThreadState &TS;
    uint64_t V1;
    bool Outermost;
  };

  /// Runs \p F as a writing critical section. \p F may optionally take a
  /// MonitorHandle& to use Object.wait / notify.
  template <typename Fn> decltype(auto) synchronizedWrite(ObjectHeader &H,
                                                          Fn &&F) {
    ThreadState &TS = ThreadRegistry::current();
    ++TS.Counters.WriteEntries;
    uint64_t V1 = enterWrite(H, TS);
    ScopeExit Release([&] { exitWrite(H, TS, V1); });
    if constexpr (std::is_invocable_v<Fn &, MonitorHandle &>) {
      uint64_t W = H.word().load(std::memory_order_relaxed);
      bool Outermost = !lockword::isInflated(W) &&
                       lockword::soleroRecursion(W) == 0;
      MonitorHandle MH(*this, H, TS, V1, Outermost);
      return F(MH);
    } else {
      return F();
    }
  }

  // --- Read-only critical sections (Figures 7-9) -------------------------

  /// Runs \p F as a read-only critical section; elides the lock when
  /// possible. \p F receives a ReadGuard and must be safe to re-execute
  /// (it is read-only, so it is). Reads of shared data inside \p F must go
  /// through SharedField (or equivalent atomics), and loops must call
  /// ReadGuard::checkpoint / speculationCheckpoint.
  template <typename Fn> decltype(auto) synchronizedReadOnly(ObjectHeader &H,
                                                             Fn &&F) {
    ThreadState &TS = ThreadRegistry::current();
    ++TS.Counters.ReadOnlyEntries;
    if (!Config.ElideReadOnly) {
      // Unelided-SOLERO: pay the full writing protocol.
      uint64_t V1 = enterWrite(H, TS);
      ScopeExit Release([&] { exitWrite(H, TS, V1); });
      ReadGuard G(/*Speculative=*/false);
      return F(G);
    }
    using R = std::invoke_result_t<Fn &, ReadGuard &>;
    if constexpr (std::is_void_v<R>) {
      (void)runElided(H, TS, [&](ReadGuard &G) {
        F(G);
        return Unit{};
      });
    } else {
      return runElided(H, TS, std::forward<Fn>(F));
    }
  }

  // --- Read-mostly critical sections (Section 5, Figure 17) --------------

  /// Runs \p F as a read-mostly critical section. \p F receives a
  /// WriteIntent and must call acquireForWrite() before its first write or
  /// side effect. The body may be re-executed from the top if the upgrade
  /// fails, exactly like a failed read-only speculation.
  template <typename Fn> decltype(auto) synchronizedReadMostly(ObjectHeader &H,
                                                               Fn &&F) {
    ThreadState &TS = ThreadRegistry::current();
    ++TS.Counters.ReadOnlyEntries;
    using R = std::invoke_result_t<Fn &, WriteIntent &>;
    if constexpr (std::is_void_v<R>) {
      (void)runReadMostly(H, TS, [&](WriteIntent &W) {
        F(W);
        return Unit{};
      });
    } else {
      return runReadMostly(H, TS, std::forward<Fn>(F));
    }
  }

  // --- Protocol pieces shared with the engine and tests ------------------

  /// Figure 7 lines 1-3 plus Figure 8.
  ReadEntry readEnter(ObjectHeader &H, ThreadState &TS) {
    uint64_t V = H.word().load(std::memory_order_acquire);
    if (lockword::soleroIsFree(V))
      return {V, false};
    return slowReadEnter(H, TS);
  }

  /// Figure 9. \p V is the local lock value (fallback v1; ignored for
  /// recursion/fat holds). Returns false iff the caller held nothing — a
  /// pure speculation failure that must fall back (Figure 7 line 13).
  bool slowReadExit(ObjectHeader &H, ThreadState &TS, uint64_t V);

  /// End-of-section validation: acquire fence, then compare the word
  /// (the Boehm seqlock-reader recipe).
  bool validate(ObjectHeader &H, uint64_t V) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    SOLERO_INJECT(SoleroReadValidate);
    return H.word().load(std::memory_order_relaxed) == V;
  }

  /// True if the calling thread owns \p H (flat or fat).
  bool heldByCurrentThread(ObjectHeader &H);

  const SoleroConfig &config() const { return Config; }
  RuntimeContext &context() { return Ctx; }

  /// The adaptive elision controller (inert unless Config.Adaptive.Enabled).
  ElisionController &controller() { return Ctrl; }

  static const char *protocolName() { return "SOLERO"; }

private:
  friend class WriteIntent;
  struct Unit {};

  uint64_t slowEnterWrite(ObjectHeader &H, ThreadState &TS);
  void slowExitWrite(ObjectHeader &H, ThreadState &TS, uint64_t V1);
  ReadEntry slowReadEnter(ObjectHeader &H, ThreadState &TS);

  /// The StoreLoad fence at the start of a speculative section (Section
  /// 3.4: PowerPC `sync` after the entry load; mfence on x86).
  void entryFence() const {
    if (Config.Barriers == BarrierMode::Correct)
      std::atomic_thread_fence(std::memory_order_seq_cst);
    // Weak mode: the acquire load in readEnter is all the ordering the
    // conventional lock would have used (isync-equivalent).
  }

  /// Consults the adaptive controller (inert pass-through when off) for
  /// one read-only/read-mostly section's speculation budget.
  ElisionController::Decision beginReadDecision(ThreadState &TS) {
    if (!Config.Adaptive.Enabled)
      return {true, Config.MaxSpecAttempts, ElisionState::Elide};
    return Ctrl.beginRead(TS);
  }

  /// Per-attempt controller bookkeeping shared by both elision engines.
  void noteAttempt(ThreadState &TS, const ElisionController::Decision &D,
                   int FailuresSoFar) {
    ++TS.Counters.ElisionAttempts;
    if (FailuresSoFar > 0)
      ++TS.Counters.SpecRetries;
    if (!Config.Adaptive.Enabled)
      return;
    if (D.St != ElisionState::Elide) [[unlikely]] {
      if (D.St == ElisionState::Throttled)
        ++TS.Counters.ThrottledAttempts;
      else if (D.St == ElisionState::Reprobe)
        ++TS.Counters.ReprobeAttempts;
    }
  }

  /// Decides what a failed speculation does next, for both engines.
  /// \p Failures counts the section's failures, this one included;
  /// \p WritesBefore is TS's write-entry count when the attempt began.
  /// Returns true, after one backoff pause, when the engine should
  /// speculate again. Returns false, having counted the fallback, when it
  /// must acquire for real (Figure 7 line 13).
  ///
  /// The paper falls back after any failure, and that convoys: the
  /// fallback's release publishes v + 0x100, which fails every speculation
  /// then in flight, and each of those falls back in turn. So:
  /// - another thread's write failed the attempt: that conflict is
  ///   transient (the writer has left, or readEnter waits it out), so
  ///   re-speculate while the budget lasts;
  /// - this thread's own write failed it (a nested same-lock
  ///   synchronizedWrite, Section 3.2): the next attempt would fail the
  ///   same way, so acquire now;
  /// - the budget is spent: acquire. A budget of 1 is the paper's policy.
  bool respeculate(ThreadState &TS, const ElisionController::Decision &D,
                   int Failures, uint64_t WritesBefore,
                   std::optional<ExpBackoff> &Backoff) {
    if (Failures >= D.MaxAttempts || TS.Counters.WriteEntries != WritesBefore) {
      ++TS.Counters.Fallbacks;
      noteOutcome(TS, D, Failures, Failures);
      return false;
    }
    // Widen the conflicting writer's window before burning another
    // attempt (bounded exponential backoff, built on first use only).
    if (!Backoff)
      Backoff.emplace(Config.Adaptive.BackoffSpinsMin,
                      Config.Adaptive.BackoffSpinsMax);
    Backoff->pause();
    return true;
  }

  /// Reports a section's final speculation outcome to the controller.
  void noteOutcome(ThreadState &TS, const ElisionController::Decision &D,
                   int Attempts, int Failures) {
    if (Config.Adaptive.Enabled)
      Ctrl.recordOutcome(TS, D, static_cast<uint32_t>(Attempts),
                         static_cast<uint32_t>(Failures));
  }

  /// The elision engine behind synchronizedReadOnly. \p F returns non-void.
  template <typename Fn> auto runElided(ObjectHeader &H, ThreadState &TS,
                                        Fn &&F) {
    using R = std::invoke_result_t<Fn &, ReadGuard &>;
    ElisionController::Decision D = beginReadDecision(TS);
    if (!D.Speculate) {
      // Controller verdict (Disabled): the decayed failure ratio says
      // speculation here is pure overhead right now — acquire for real
      // without paying the entry fence and a doomed execution.
      ++TS.Counters.ElisionSkips;
      uint64_t V1 = slowEnterWrite(H, TS);
      return runHoldingRead(H, TS, V1, std::forward<Fn>(F));
    }
    std::optional<ExpBackoff> Backoff;
    ReadEntry E = readEnter(H, TS);
    int Failures = 0;
    for (;;) {
      if (E.Holding) {
        noteOutcome(TS, D, Failures, Failures);
        return runHoldingRead(H, TS, E.V, std::forward<Fn>(F));
      }

      // Speculative attempt. The result is returned from inside the try
      // block: the failure paths all leave through a catch or fall out to
      // the retry logic, so no deferred result storage is needed (keeping
      // the happy path free of spills across the landing-pad region).
      noteAttempt(TS, D, Failures);
      uint64_t Writes = TS.Counters.WriteEntries;
      entryFence();
      std::size_t Depth = TS.pushRead(H, E.V);
      ReadGuard G(/*Speculative=*/true);
      try {
        R Result = F(G);
        TS.popRead();
        if (validate(H, E.V)) {
          ++TS.Counters.ElisionSuccesses;
          noteOutcome(TS, D, Failures + 1, Failures);
          return Result;
        }
        ++TS.Counters.ElisionFailures;
      } catch (SpeculationFault &SF) {
        TS.popRead();
        if (SF.Depth < Depth)
          throw; // an enclosing speculation frame owns this abort
        ++TS.Counters.ElisionFailures;
      } catch (WriteIntent::RestartForWrite &) {
        SOLERO_UNREACHABLE("write upgrade inside a read-only section");
      } catch (...) {
        // A guest exception: genuine iff the reads were consistent
        // (Section 3.3). Nothing to release — the lock was never held.
        TS.popRead();
        if (validate(H, E.V)) {
          // The speculation validated: this attempt succeeded, the
          // section just completed exceptionally. Without this the
          // attempts = successes + failures conservation law breaks.
          ++TS.Counters.ElisionSuccesses;
          noteOutcome(TS, D, Failures + 1, Failures);
          throw;
        }
        ++TS.Counters.ElisionFailures;
        ++TS.Counters.FaultRetries;
      }
      if (!respeculate(TS, D, ++Failures, Writes, Backoff)) {
        uint64_t V1 = slowEnterWrite(H, TS);
        return runHoldingRead(H, TS, V1, std::forward<Fn>(F));
      }
      E = readEnter(H, TS);
    }
  }

  /// Executes \p F while holding the lock; releases via slowReadExit.
  template <typename Fn> auto runHoldingRead(ObjectHeader &H, ThreadState &TS,
                                             uint64_t V, Fn &&F) {
    ScopeExit Release([&] {
      bool Released = slowReadExit(H, TS, V);
      SOLERO_CHECK(Released, "slowReadExit while holding must release");
    });
    ReadGuard G(/*Speculative=*/false);
    return F(G);
  }

  /// The read-mostly engine (Figure 17). \p F returns non-void.
  template <typename Fn> auto runReadMostly(ObjectHeader &H, ThreadState &TS,
                                            Fn &&F) {
    using R = std::invoke_result_t<Fn &, WriteIntent &>;
    ElisionController::Decision D = beginReadDecision(TS);
    if (!D.Speculate) {
      ++TS.Counters.ElisionSkips;
      uint64_t V1 = slowEnterWrite(H, TS);
      return runHoldingMostly(H, TS, V1, std::forward<Fn>(F));
    }
    std::optional<ExpBackoff> Backoff;
    ReadEntry E = readEnter(H, TS);
    int Failures = 0;
    for (;;) {
      if (E.Holding) {
        noteOutcome(TS, D, Failures, Failures);
        return runHoldingMostly(H, TS, E.V, std::forward<Fn>(F));
      }

      noteAttempt(TS, D, Failures);
      uint64_t Writes = TS.Counters.WriteEntries;
      entryFence();
      std::size_t Depth = TS.pushRead(H, E.V);
      WriteIntent W(H, TS, E.V, /*Holding=*/false, Depth);
      try {
        R Result = F(W);
        if (W.Upgraded) {
          // Section completed while holding the upgraded lock.
          exitWrite(H, TS, W.V);
          ++TS.Counters.ElisionSuccesses;
          noteOutcome(TS, D, Failures + 1, Failures);
          return Result;
        }
        TS.popRead();
        if (validate(H, E.V)) {
          ++TS.Counters.ElisionSuccesses;
          noteOutcome(TS, D, Failures + 1, Failures);
          return Result;
        }
        ++TS.Counters.ElisionFailures;
      } catch (WriteIntent::RestartForWrite &) {
        // Upgrade CAS failed: prior reads are unverifiable (Figure 17
        // line 13): acquire for real and re-execute. No re-speculation:
        // the section has shown it writes, so it ends up holding anyway.
        TS.popRead();
        ++TS.Counters.ElisionFailures;
        ++TS.Counters.Fallbacks;
        noteOutcome(TS, D, Failures + 1, Failures + 1);
        uint64_t V1 = slowEnterWrite(H, TS);
        return runHoldingMostly(H, TS, V1, std::forward<Fn>(F));
      } catch (SpeculationFault &SF) {
        if (W.Upgraded) {
          // The abort belongs to an enclosing frame (this frame's record
          // was retired at upgrade); release the upgraded lock first.
          exitWrite(H, TS, W.V);
          throw;
        }
        TS.popRead();
        if (SF.Depth < Depth)
          throw;
        ++TS.Counters.ElisionFailures;
      } catch (...) {
        if (W.Upgraded) {
          // Holding: genuine exception; release and propagate.
          exitWrite(H, TS, W.V);
          throw;
        }
        TS.popRead();
        if (validate(H, E.V)) {
          // Genuine guest exception out of a validated speculation: a
          // success, same as the read-only engine above.
          ++TS.Counters.ElisionSuccesses;
          noteOutcome(TS, D, Failures + 1, Failures);
          throw;
        }
        ++TS.Counters.ElisionFailures;
        ++TS.Counters.FaultRetries;
      }
      if (!respeculate(TS, D, ++Failures, Writes, Backoff)) {
        uint64_t V1 = slowEnterWrite(H, TS);
        return runHoldingMostly(H, TS, V1, std::forward<Fn>(F));
      }
      E = readEnter(H, TS);
    }
  }

  template <typename Fn>
  auto runHoldingMostly(ObjectHeader &H, ThreadState &TS, uint64_t V,
                        Fn &&F) {
    ScopeExit Release([&] {
      bool Released = slowReadExit(H, TS, V);
      SOLERO_CHECK(Released, "slowReadExit while holding must release");
    });
    WriteIntent W(H, TS, V, /*Holding=*/true);
    return F(W);
  }

  RuntimeContext &Ctx;
  SoleroConfig Config;
  ElisionController Ctrl;
};

inline void WriteIntent::acquireForWrite() {
  if (Holding)
    return;
  // Figure 17 line 8: CAS the entry word to thread_id + LOCK_BIT. Success
  // proves no writer intervened since entry, so all reads so far are
  // consistent and the section continues while holding the lock.
  SOLERO_INJECT(SoleroUpgradeCas);
  ++TS.Counters.AtomicRmws;
  uint64_t Expected = V;
  if (H.word().compare_exchange_strong(
          Expected, lockword::soleroHeldWord(TS.tidBits()),
          std::memory_order_acq_rel, std::memory_order_relaxed)) {
    Upgraded = true;
    Holding = true;
    // The frame is no longer speculative; retire its read record so async
    // validation does not trip over the (now stale) entry word. The record
    // retired must be this frame's own — if a nested speculation is still
    // open above us, popping here would silently retire the wrong record.
    SOLERO_CHECK(TS.readDepth() == Depth + 1 &&
                     TS.readRecord(Depth).Header == &H,
                 "write upgrade must retire its own frame's read record");
    TS.popRead();
    return;
  }
  throw RestartForWrite{};
}

} // namespace solero

#endif // SOLERO_CORE_SOLEROLOCK_H
