//===- image/Resources.h - Checkpointable runtime resources -----*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Codecs and Resource adapters for the runtime state a warm image carries
/// (DESIGN.md §16):
///
///  - ElisionController stats cells (the adaptive per-lock state machines),
///  - BravoRwLock bias/inhibit/revocation state,
///  - the classifier's analysis tables (region kinds, purity, benign-write
///    bits, diagnostics) via ClassifierCodec,
///  - execution profiles,
///  - a whole Interpreter's warm state (classification + profile + its
///    lock's controller), checked on load by Interpreter::adoptWarmState,
///    which then retranslates from the restoring process's own module and
///    options; translated code is never read from an image,
///  - per-shard lock state of a ShardedKvStore (templated over policy).
///
/// Every read_/restore-side function returns false on malformed input and
/// leaves the target object in its previous (cold) state wherever the
/// structure allows; ImageReader's sticky failure flag makes truncated
/// blobs fail closed rather than decode garbage.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_IMAGE_RESOURCES_H
#define SOLERO_IMAGE_RESOURCES_H

#include <string>
#include <vector>

#include "core/ElisionController.h"
#include "core/SoleroLock.h"
#include "image/Checkpoint.h"
#include "jit/Interpreter.h"
#include "kv/ShardedKvStore.h"
#include "locks/BravoRwLock.h"

namespace solero {
namespace image {

// --- ElisionController -----------------------------------------------------

/// Decode-only: fills \p S without touching any controller.
bool readControllerSnapshot(ImageReader &R, ElisionSnapshot &S);
void writeControllerState(ImageWriter &W, const ElisionController &C);
/// Decode + ElisionController::restore (which clamps/validates).
bool readControllerState(ImageReader &R, ElisionController &C);

// --- BravoRwLock -----------------------------------------------------------

void writeBravoState(ImageWriter &W, const BravoRwLock &L);
bool readBravoState(ImageReader &R, BravoRwLock &L);

// --- JIT state -------------------------------------------------------------

/// Round-trips jit::ClassifiedModule's private analysis tables (friend of
/// the class; see jit/ReadOnlyClassifier.h).
class ClassifierCodec {
public:
  static void write(ImageWriter &W, const jit::ClassifiedModule &M);
  /// Structural decode only — semantic validation against the module is
  /// Interpreter::adoptWarmState's job.
  static bool read(ImageReader &R, jit::ClassifiedModule &M);
};

void writeProfile(ImageWriter &W, const jit::Profile &P);
bool readProfile(ImageReader &R, jit::Profile &P);

// --- Resource adapters -----------------------------------------------------

/// One adaptive controller as a checkpointable resource.
class ElisionControllerResource : public Resource {
public:
  ElisionControllerResource(std::string Name, ElisionController &C)
      : Name(std::move(Name)), Ctrl(C) {}
  std::string name() const override { return Name; }
  void beforeCheckpoint(ImageWriter &W) override {
    writeControllerState(W, Ctrl);
  }
  bool afterRestore(ImageReader &R) override {
    ElisionSnapshot S;
    return readControllerSnapshot(R, S) && R.ok() && Ctrl.restore(S);
  }

private:
  std::string Name;
  ElisionController &Ctrl;
};

/// One BRAVO lock's bias state as a checkpointable resource.
class BravoLockResource : public Resource {
public:
  BravoLockResource(std::string Name, BravoRwLock &L)
      : Name(std::move(Name)), Lock(L) {}
  std::string name() const override { return Name; }
  void beforeCheckpoint(ImageWriter &W) override { writeBravoState(W, Lock); }
  bool afterRestore(ImageReader &R) override {
    return readBravoState(R, Lock) && R.ok();
  }

private:
  std::string Name;
  BravoRwLock &Lock;
};

/// A whole execution engine's warm state: classification, profile, and the
/// SOLERO lock's adaptive controller. On restore the classification and
/// profile are checked against the interpreter's own module and the
/// threaded stream is retranslated locally; any mismatch keeps the
/// interpreter's cold-start classification and stream.
class InterpreterWarmState : public Resource {
public:
  InterpreterWarmState(std::string Name, jit::Interpreter &I)
      : Name(std::move(Name)), Interp(I) {}
  std::string name() const override { return Name; }
  void beforeCheckpoint(ImageWriter &W) override;
  bool afterRestore(ImageReader &R) override;

private:
  std::string Name;
  jit::Interpreter &Interp;
};

// --- Sharded KV store lock state -------------------------------------------
//
// One blob per (store, policy): a shard count followed by one tagged
// per-shard record. The tag encodes which adaptive machinery the policy
// carries (0 = none, 1 = SOLERO controller, 2 = BRAVO bias state); a
// restore into a store of a different policy or shard count fails the
// whole blob — per the fallback policy the store simply starts cold.

inline void writeShardLockState(ImageWriter &W, SoleroLock &L) {
  W.u8(1);
  writeControllerState(W, L.controller());
}
inline void writeShardLockState(ImageWriter &W, BravoRwLock &L) {
  W.u8(2);
  writeBravoState(W, L);
}
inline bool readShardLockState(ImageReader &R, SoleroLock &L) {
  return R.u8() == 1 && readControllerState(R, L.controller());
}
inline bool readShardLockState(ImageReader &R, BravoRwLock &L) {
  return R.u8() == 2 && readBravoState(R, L);
}

template <typename Policy>
std::vector<uint8_t> snapshotKvLockState(kv::ShardedKvStore<Policy> &Store) {
  ImageWriter W;
  W.u32(Store.shardCount());
  for (unsigned I = 0; I < Store.shardCount(); ++I) {
    if constexpr (requires(Policy &P, ImageWriter &W2) {
                    writeShardLockState(W2, P.protocol());
                  })
      writeShardLockState(W, Store.shardPolicy(I).protocol());
    else
      W.u8(0); // policy carries no adaptive lock state
  }
  return W.take();
}

template <typename Policy>
bool restoreKvLockState(ImageReader &R, kv::ShardedKvStore<Policy> &Store) {
  if (R.u32() != Store.shardCount())
    return false;
  for (unsigned I = 0; I < Store.shardCount(); ++I) {
    if constexpr (requires(Policy &P, ImageReader &R2) {
                    readShardLockState(R2, P.protocol());
                  }) {
      if (!readShardLockState(R, Store.shardPolicy(I).protocol()))
        return false;
    } else {
      if (R.u8() != 0)
        return false;
    }
  }
  return R.ok();
}

} // namespace image
} // namespace solero

#endif // SOLERO_IMAGE_RESOURCES_H
