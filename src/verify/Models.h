//===- verify/Models.h - Protocol model factories ---------------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factories for the shipped protocol models and their seeded-bug variants.
/// Each model is a faithful miniature of the corresponding runtime
/// implementation, at the atomicity granularity of the real code's shared
/// accesses; DESIGN.md §18 documents the abstraction map and its soundness
/// caveats.
///
/// Seeded-bug variants (the regression gates for the checker itself):
///   - SoleroModelConfig::BlindStoreRelease / TasukiModelConfig::
///     BlindStoreRelease: re-introduce the pre-PR-3 release race where the
///     owner publishes the free word with a blind store, clobbering a
///     concurrently set flat-lock-contention bit — the parked contender is
///     never notified (lost wakeup, reported as a model deadlock).
///   - BravoModelConfig::NoRevocationFence: drop the writer-side seq_cst
///     fence between clearing RBias and scanning visible-reader slots.
///     Under TSO the writer's clear and the reader's slot publish can both
///     sit in store buffers, each side reads the other's stale value, and
///     reader + writer end up inside the critical section together. Under
///     SC the variant still passes — the divergence is the point.
///   - SoleroSbVariant::PlainRelease: release-order SOLERO releases with
///     no entry fence. Under RA a thread's acquiring CAS, data store and
///     release all wait in its buffer while its elided read on the other
///     lock runs, and both threads miss each other's writes.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_VERIFY_MODELS_H
#define SOLERO_VERIFY_MODELS_H

#include <memory>

#include "verify/Mc.h"

namespace solero {
namespace verify {

/// SOLERO lock-word protocol (paper Figs. 5-9): two writers plus one
/// read-only thread that attempts a speculative (elided) read section with
/// a seq_cst entry load and version validation, falling back to a real
/// acquire after a failure. Oracles: writer mutual exclusion, validated
/// reads are untorn, no lost wakeup (terminal-state check).
struct SoleroModelConfig {
  unsigned Writers = 2; ///< 1 or 2 writer threads, one section each
  bool Reader = true;   ///< add the speculative-reader thread
  bool BlindStoreRelease = false; ///< seeded PR-3 release race
};
std::unique_ptr<ProtocolModel> makeSoleroModel(SoleroModelConfig C = {});

/// Two-lock store buffering across SOLERO sections (SoleroSbModel.cpp,
/// DESIGN.md §8): each of two threads runs a writing section on one lock,
/// then an elided read section on the other; a third may set FLC on
/// either lock, sending its release down the plain-store slow path.
/// Oracle: both elided sections validated and both missed the other
/// thread's write (r0 = r1 = 0).
///   - Shipped: seq_cst releases and entry load, no entry fence.
///   - EntryFence: release-order releases plus the §3.4 entry fence.
///   - PlainRelease: release-order releases, no fence (seeded bug: fails
///     under RA; SC and TSO cannot show it).
enum class SoleroSbVariant : uint8_t { Shipped, EntryFence, PlainRelease };
struct SoleroSbModelConfig {
  SoleroSbVariant Variant = SoleroSbVariant::Shipped;
};
std::unique_ptr<ProtocolModel> makeSoleroSbModel(SoleroSbModelConfig C = {});

/// Tasuki flat lock with FLC-bit contention handoff and inflation: a
/// contender that parked at least once inflates the free word to a fat
/// monitor before re-acquiring, and later threads take the fat path.
/// Oracles: mutual exclusion across flat and fat holders, no lost wakeup.
struct TasukiModelConfig {
  unsigned Threads = 2; ///< 2 or 3 writer threads, one section each
  bool BlindStoreRelease = false; ///< seeded PR-3 release race
};
std::unique_ptr<ProtocolModel> makeTasukiModel(TasukiModelConfig C = {});

/// BRAVO biased reader-writer lock: readers publish a visible-reader slot,
/// fence, recheck the bias; the writer clears the bias, fences, scans the
/// slots (the Dekker pairing), with an underlying reader-count lock as the
/// slow path. Oracles: no reader/writer critical-section overlap, reads
/// are untorn.
struct BravoModelConfig {
  unsigned Readers = 2; ///< 1 or 2 reader threads (plus one writer)
  bool NoRevocationFence = false; ///< seeded missing revocation fence
};
std::unique_ptr<ProtocolModel> makeBravoModel(BravoModelConfig C = {});

/// Textbook Dekker / store-buffering litmus (SB): two threads each store
/// their flag then read the other's; both may enter the critical section
/// only if both loads returned zero. Passes under SC, violates mutual
/// exclusion under TSO unless each thread fences between store and load.
/// ModelCheckerTest uses it to pin the SC-vs-TSO divergence of the
/// substrate itself.
struct DekkerModelConfig {
  bool Fences = true; ///< seq_cst fence between flag store and flag load
};
std::unique_ptr<ProtocolModel> makeDekkerModel(DekkerModelConfig C = {});

} // namespace verify
} // namespace solero

#endif // SOLERO_VERIFY_MODELS_H
