//===- image/Checkpoint.cpp - CRaC-style checkpoint/restore ---------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "image/Checkpoint.h"

using namespace solero;
using namespace solero::image;

std::string RestoreReport::summary() const {
  if (!ImageOk)
    return "image invalid; cold start (" +
           (Diags.empty() ? std::string("no diagnostic") : Diags[0].render()) +
           ")";
  std::string S = "restored " + std::to_string(Restored) + "/" +
                  std::to_string(Restored + Rejected + Missing) + " resources";
  if (Rejected)
    S += " (" + std::to_string(Rejected) + " rejected)";
  if (Missing)
    S += " (" + std::to_string(Missing) + " missing)";
  return S;
}

ImageBuilder CheckpointContext::collect() const {
  ImageBuilder B;
  for (Resource *R : Resources) {
    ImageWriter W;
    R->beforeCheckpoint(W);
    B.addBlob(R->name(), W.take());
  }
  return B;
}

std::vector<uint8_t> CheckpointContext::checkpointBytes() const {
  return collect().build();
}

bool CheckpointContext::checkpointTo(const std::string &Path,
                                     Diagnostic &Diag) const {
  return collect().writeFile(Path, Diag);
}

RestoreReport CheckpointContext::restoreFrom(const LoadedImage &Img,
                                             const Diagnostic &LoadDiag) const {
  RestoreReport Rep;
  if (!Img.loaded()) {
    Rep.Diags.push_back(LoadDiag);
    return Rep;
  }
  Rep.ImageOk = true;
  // Reverse registration order, mirroring CRaC: later registrations may
  // depend on earlier ones at runtime, so they rehydrate first and the
  // foundational resources restore into an already-warm superstructure.
  for (std::size_t I = Resources.size(); I-- > 0;) {
    Resource *R = Resources[I];
    const std::vector<uint8_t> *Blob = Img.blob(R->name());
    if (!Blob) {
      ++Rep.Missing;
      Rep.Diags.push_back({ImageDiag::MalformedPayload,
                           "no blob for resource '" + R->name() + "'"});
      continue;
    }
    ImageReader Rd(*Blob);
    if (R->afterRestore(Rd)) {
      ++Rep.Restored;
    } else {
      ++Rep.Rejected;
      Rep.Diags.push_back({ImageDiag::MalformedPayload,
                           "resource '" + R->name() + "' rejected its blob"});
    }
  }
  return Rep;
}

RestoreReport CheckpointContext::restoreBytes(const uint8_t *Data,
                                              std::size_t Len) const {
  Diagnostic Diag;
  LoadedImage Img = LoadedImage::fromBytes(Data, Len, Diag);
  return restoreFrom(Img, Diag);
}

RestoreReport
CheckpointContext::restoreFromFile(const std::string &Path) const {
  Diagnostic Diag;
  LoadedImage Img = LoadedImage::fromFile(Path, Diag);
  return restoreFrom(Img, Diag);
}
