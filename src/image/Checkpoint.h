//===- image/Checkpoint.h - CRaC-style checkpoint/restore ------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint/restore protocol over warm-image blobs, modeled on
/// OpenJDK CRaC's Resource/Context registration: a component that owns
/// warmed runtime state registers a Resource; the context drives ordered
/// hooks — beforeCheckpoint in registration order, afterRestore in
/// *reverse* registration order, so a resource restored later can rely on
/// everything it was registered after being restored already (the same
/// inversion CRaC guarantees).
///
/// Quiesce protocol: both hooks require the process to be at a quiescent
/// point for the registered state — no thread inside a critical section
/// guarded by a checkpointed lock, no guest invoke in flight. Concurrent
/// *readers* of the adaptive counters are fine (everything captured is
/// relaxed atomics), but a restore racing active sections could tear a
/// state machine across its invariants; see DESIGN.md §16.
///
/// Fallback policy: per-resource degradation. A missing blob or a blob the
/// resource rejects leaves that resource in its cold (freshly constructed)
/// state and restores the rest; a structurally bad image (truncated,
/// corrupted, version-skewed) restores nothing. Either way the report
/// carries Diagnostics and the process proceeds — never a crash.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_IMAGE_CHECKPOINT_H
#define SOLERO_IMAGE_CHECKPOINT_H

#include <string>
#include <vector>

#include "image/Image.h"

namespace solero {
namespace image {

/// One checkpointable component. Implementations serialize everything
/// they need in beforeCheckpoint and validate-then-adopt in afterRestore;
/// afterRestore returning false means "blob unusable, stay cold" (the
/// restore-side half of the fallback policy).
class Resource {
public:
  virtual ~Resource() = default;
  /// Stable blob name; also the restore-time lookup key, so renaming a
  /// resource orphans old images (they degrade per-resource, by design).
  virtual std::string name() const = 0;
  virtual void beforeCheckpoint(ImageWriter &W) = 0;
  virtual bool afterRestore(ImageReader &R) = 0;
};

/// What a restore attempt did, resource by resource.
struct RestoreReport {
  bool ImageOk = false; ///< header/checksum/directory validated
  unsigned Restored = 0;
  unsigned Rejected = 0; ///< blob present but afterRestore said no
  unsigned Missing = 0;  ///< no blob for a registered resource
  std::vector<Diagnostic> Diags;

  /// True when every registered resource came back warm.
  bool allWarm(std::size_t Registered) const {
    return ImageOk && Restored == Registered;
  }
  /// "restored 3/4 resources (1 rejected)" — for logs and benches.
  std::string summary() const;
};

/// Registration order is checkpoint order; restore runs in reverse.
class CheckpointContext {
public:
  /// Registers \p R (non-owning; the component outlives the context).
  void registerResource(Resource *R) { Resources.push_back(R); }

  std::size_t resourceCount() const { return Resources.size(); }

  /// Runs every beforeCheckpoint hook and serializes the image.
  std::vector<uint8_t> checkpointBytes() const;

  /// checkpointBytes() to \p Path; false + Diag on I/O failure.
  bool checkpointTo(const std::string &Path, Diagnostic &Diag) const;

  /// Restores from a validated image, reverse registration order.
  RestoreReport restoreFrom(const LoadedImage &Img,
                            const Diagnostic &LoadDiag) const;
  RestoreReport restoreBytes(const uint8_t *Data, std::size_t Len) const;
  RestoreReport restoreBytes(const std::vector<uint8_t> &Bytes) const {
    return restoreBytes(Bytes.data(), Bytes.size());
  }
  RestoreReport restoreFromFile(const std::string &Path) const;

private:
  /// Runs every beforeCheckpoint hook, in registration order.
  ImageBuilder collect() const;

  std::vector<Resource *> Resources;
};

} // namespace image
} // namespace solero

#endif // SOLERO_IMAGE_CHECKPOINT_H
