//===- image/Resources.cpp - Checkpointable runtime resources -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "image/Resources.h"

using namespace solero;
using namespace solero::image;
using jit::ClassifiedModule;
using jit::ClassifiedRegion;
using jit::Profile;

// --- ElisionController -----------------------------------------------------

bool solero::image::readControllerSnapshot(ImageReader &R,
                                           ElisionSnapshot &S) {
  S.State = R.u32();
  S.Attempts = R.u32();
  S.Failures = R.u32();
  S.Skip = R.i32();
  S.ReprobeLeft = R.i32();
  S.SkipWindow = R.u32();
  return !R.failed();
}

void solero::image::writeControllerState(ImageWriter &W,
                                         const ElisionController &C) {
  ElisionSnapshot S = C.snapshot();
  W.u32(S.State);
  W.u32(S.Attempts);
  W.u32(S.Failures);
  W.i32(S.Skip);
  W.i32(S.ReprobeLeft);
  W.u32(S.SkipWindow);
}

bool solero::image::readControllerState(ImageReader &R, ElisionController &C) {
  ElisionSnapshot S;
  return readControllerSnapshot(R, S) && C.restore(S);
}

// --- BravoRwLock -----------------------------------------------------------

void solero::image::writeBravoState(ImageWriter &W, const BravoRwLock &L) {
  BravoSnapshot S = L.snapshot();
  W.u8(S.RBias ? 1 : 0);
  W.i64(S.InhibitRemainingNs);
  W.u64(S.Revocations);
}

bool solero::image::readBravoState(ImageReader &R, BravoRwLock &L) {
  uint8_t Bias = R.u8();
  if (Bias > 1)
    return false;
  BravoSnapshot S;
  S.RBias = Bias != 0;
  S.InhibitRemainingNs = R.i64();
  S.Revocations = R.u64();
  return !R.failed() && L.restore(S);
}

// --- Classifier ------------------------------------------------------------

void ClassifierCodec::write(ImageWriter &W, const ClassifiedModule &M) {
  W.u32(static_cast<uint32_t>(M.PerMethod.size()));
  for (const std::vector<ClassifiedRegion> &Regions : M.PerMethod) {
    W.u32(static_cast<uint32_t>(Regions.size()));
    for (const ClassifiedRegion &Reg : Regions) {
      W.u32(Reg.Region.EnterPc);
      W.u32(Reg.Region.ExitPc);
      W.u8(static_cast<uint8_t>(Reg.Kind));
      W.u32(static_cast<uint32_t>(Reg.Diags.size()));
      for (const jit::Diagnostic &D : Reg.Diags) {
        W.u8(static_cast<uint8_t>(D.Code));
        W.u32(D.Pc);
        W.u8(static_cast<uint8_t>(D.Op));
        W.i32(D.Operand);
        W.u32(D.AllocPc);
      }
    }
  }
  for (ClassifiedModule::PurityState P : M.Purity)
    W.u8(static_cast<uint8_t>(P));
  for (const jit::BitVec &BV : M.BenignWrites) {
    W.u32(static_cast<uint32_t>(BV.size()));
    for (std::size_t Bit = 0; Bit < BV.size(); Bit += 8) {
      uint8_t Byte = 0;
      for (std::size_t B = 0; B < 8 && Bit + B < BV.size(); ++B)
        if (BV.test(Bit + B))
          Byte |= static_cast<uint8_t>(1u << B);
      W.u8(Byte);
    }
  }
}

bool ClassifierCodec::read(ImageReader &R, ClassifiedModule &M) {
  uint32_t Methods = R.u32();
  // 5 bytes is the smallest per-method footprint (empty region list, one
  // purity byte, empty bitvec length); bounding by it keeps a corrupt
  // count from driving a multi-gigabyte reserve before the reader trips.
  if (R.failed() || static_cast<uint64_t>(Methods) * 5 > R.remaining())
    return false;
  ClassifiedModule Out;
  Out.PerMethod.resize(Methods);
  for (uint32_t Id = 0; Id < Methods; ++Id) {
    uint32_t NumRegions = R.u32();
    if (R.failed() || static_cast<uint64_t>(NumRegions) * 13 > R.remaining())
      return false;
    Out.PerMethod[Id].reserve(NumRegions);
    for (uint32_t I = 0; I < NumRegions; ++I) {
      ClassifiedRegion Reg;
      Reg.Region.EnterPc = R.u32();
      Reg.Region.ExitPc = R.u32();
      uint8_t Kind = R.u8();
      if (Kind > static_cast<uint8_t>(jit::RegionKind::Writing))
        return false;
      Reg.Kind = static_cast<jit::RegionKind>(Kind);
      uint32_t NumDiags = R.u32();
      if (R.failed() || NumDiags == 0 ||
          static_cast<uint64_t>(NumDiags) * 14 > R.remaining())
        return false;
      Reg.Diags.reserve(NumDiags);
      for (uint32_t D = 0; D < NumDiags; ++D) {
        jit::Diagnostic Diag;
        uint8_t Code = R.u8();
        if (Code > static_cast<uint8_t>(jit::DiagCode::FreshWrite))
          return false;
        Diag.Code = static_cast<jit::DiagCode>(Code);
        Diag.Pc = R.u32();
        uint8_t Op = R.u8();
        if (Op > static_cast<uint8_t>(jit::Opcode::Return))
          return false;
        Diag.Op = static_cast<jit::Opcode>(Op);
        Diag.Operand = R.i32();
        Diag.AllocPc = R.u32();
        Reg.Diags.push_back(Diag);
      }
      Out.PerMethod[Id].push_back(std::move(Reg));
    }
  }
  Out.Purity.resize(Methods);
  for (uint32_t Id = 0; Id < Methods; ++Id) {
    uint8_t P = R.u8();
    if (P > static_cast<uint8_t>(ClassifiedModule::PurityState::Impure))
      return false;
    Out.Purity[Id] = static_cast<ClassifiedModule::PurityState>(P);
  }
  Out.BenignWrites.resize(Methods);
  for (uint32_t Id = 0; Id < Methods; ++Id) {
    uint32_t Bits = R.u32();
    if (R.failed() || (static_cast<uint64_t>(Bits) + 7) / 8 > R.remaining())
      return false;
    jit::BitVec BV(Bits);
    for (std::size_t Bit = 0; Bit < Bits; Bit += 8) {
      uint8_t Byte = R.u8();
      for (std::size_t B = 0; B < 8 && Bit + B < Bits; ++B)
        if ((Byte >> B) & 1u)
          BV.set(Bit + B);
    }
    Out.BenignWrites[Id] = std::move(BV);
  }
  if (R.failed())
    return false;
  M = std::move(Out);
  return true;
}

// --- Profile ---------------------------------------------------------------

void solero::image::writeProfile(ImageWriter &W, const Profile &P) {
  W.u32(static_cast<uint32_t>(P.Counts.size()));
  for (const std::vector<uint64_t> &Method : P.Counts) {
    W.u32(static_cast<uint32_t>(Method.size()));
    for (uint64_t C : Method)
      W.u64(C);
  }
}

bool solero::image::readProfile(ImageReader &R, Profile &P) {
  uint32_t Methods = R.u32();
  if (R.failed() || static_cast<uint64_t>(Methods) * 4 > R.remaining())
    return false;
  Profile Out;
  Out.Counts.resize(Methods);
  for (uint32_t Id = 0; Id < Methods; ++Id) {
    uint32_t Len = R.u32();
    if (R.failed() || static_cast<uint64_t>(Len) * 8 > R.remaining())
      return false;
    Out.Counts[Id].resize(Len);
    for (uint32_t I = 0; I < Len; ++I)
      Out.Counts[Id][I] = R.u64();
  }
  if (R.failed())
    return false;
  P = std::move(Out);
  return true;
}

// --- InterpreterWarmState --------------------------------------------------

void InterpreterWarmState::beforeCheckpoint(ImageWriter &W) {
  ClassifierCodec::write(W, Interp.classification());
  writeProfile(W, Interp.profile());
  writeControllerState(W, Interp.soleroLock().controller());
}

bool InterpreterWarmState::afterRestore(ImageReader &R) {
  ClassifiedModule Classes;
  Profile Prof;
  ElisionSnapshot Ctrl;
  if (!ClassifierCodec::read(R, Classes) || !readProfile(R, Prof) ||
      !readControllerSnapshot(R, Ctrl) || !R.ok())
    return false;
  if (!Interp.adoptWarmState(std::move(Classes), std::move(Prof)))
    return false; // mismatch: the cold classification and stream stay
  // The adopted classification is already checked and retranslated even
  // if the controller snapshot turns out inconsistent, so a rejection
  // here only loses the policy warmth, not the classification warmth.
  return Interp.soleroLock().controller().restore(Ctrl);
}
