//===- jit/Translator.cpp - CSIR load-time translation ---------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "jit/Translator.h"

#include "jit/Verifier.h"

using namespace solero;
using namespace solero::jit;

const char *jit::tOpName(TOp Op) {
  switch (Op) {
  case TOp::ConstAdd:
    return "const+add";
  case TOp::CmpLtJumpIfZero:
    return "cmplt+jz";
  case TOp::CmpEqJumpIfZero:
    return "cmpeq+jz";
  case TOp::LoadGetField:
    return "load+getfield";
  case TOp::ProfileCount:
    return "profile";
  default:
    // The leading block mirrors Opcode one-to-one.
    return opcodeName(static_cast<Opcode>(Op));
  }
}

namespace {

bool isBranch(Opcode Op) {
  return Op == Opcode::Jump || Op == Opcode::JumpIfZero ||
         Op == Opcode::JumpIfNonZero;
}

bool isBranchT(TOp Op) {
  return Op == TOp::Jump || Op == TOp::JumpIfZero ||
         Op == TOp::JumpIfNonZero || Op == TOp::CmpLtJumpIfZero ||
         Op == TOp::CmpEqJumpIfZero;
}

TranslatedMethod translateMethod(const Module &M, uint32_t Id,
                                 const ClassifiedModule &Classes,
                                 const TranslatorOptions &Opts) {
  const Method &Fn = M.method(Id);
  VerifiedMethod V = verifyMethod(M, Id);
  SOLERO_CHECK(V.Ok, "translating an unverified method");

  TranslatedMethod Out;
  Out.NumParams = Fn.NumParams;
  Out.NumLocals = Fn.NumLocals;
  Out.MaxStack = V.MaxStack;
  Out.FrameSlots = Fn.NumLocals + V.MaxStack;

  const uint32_t N = static_cast<uint32_t>(Fn.Code.size());

  // Fusion may only swallow an instruction no control transfer lands on:
  // branch targets, region body entries (re-executed by the elision
  // engine), and region continuations all stay addressable.
  std::vector<bool> BlockStart(N, false);
  for (uint32_t Pc = 0; Pc < N; ++Pc)
    if (isBranch(Fn.Code[Pc].Op))
      BlockStart[static_cast<uint32_t>(Fn.Code[Pc].A)] = true;
  for (const SyncRegion &R : V.Regions) {
    if (R.EnterPc + 1 < N)
      BlockStart[R.EnterPc + 1] = true;
    if (R.ExitPc + 1 < N)
      BlockStart[R.ExitPc + 1] = true;
  }

  const bool Fuse = Opts.Fuse && !Opts.Profile;
  std::vector<uint32_t> NewPc(N, 0);

  auto Emit = [&](TOp Op, int32_t A = 0, uint16_t B = 0, uint32_t OrigPc = 0) {
    Out.Code.push_back(TInst{static_cast<uint16_t>(Op), B, A});
    Out.PcMap.push_back(OrigPc);
  };

  for (uint32_t Pc = 0; Pc < N;) {
    NewPc[Pc] = static_cast<uint32_t>(Out.Code.size());
    // SyncExit is a region terminator, never an executed instruction in
    // the reference engine — leave it uncounted so profiles agree.
    if (Opts.Profile && Fn.Code[Pc].Op != Opcode::SyncExit)
      Emit(TOp::ProfileCount, static_cast<int32_t>(Pc), 0, Pc);

    const Instruction &I = Fn.Code[Pc];
    const Instruction *Next =
        (Fuse && Pc + 1 < N && !BlockStart[Pc + 1]) ? &Fn.Code[Pc + 1]
                                                    : nullptr;
    if (Next) {
      TOp Fused = TOp::ProfileCount; // sentinel: no fusion
      int32_t A = 0;
      uint16_t B = 0;
      if (I.Op == Opcode::Const && Next->Op == Opcode::Add) {
        Fused = TOp::ConstAdd;
        A = I.A;
      } else if (I.Op == Opcode::CmpLt && Next->Op == Opcode::JumpIfZero) {
        Fused = TOp::CmpLtJumpIfZero;
        A = Next->A; // original target; patched below
      } else if (I.Op == Opcode::CmpEq && Next->Op == Opcode::JumpIfZero) {
        Fused = TOp::CmpEqJumpIfZero;
        A = Next->A;
      } else if (I.Op == Opcode::Load && Next->Op == Opcode::GetField) {
        Fused = TOp::LoadGetField;
        A = Next->A;                       // field index
        B = static_cast<uint16_t>(I.A);    // local slot
      }
      if (Fused != TOp::ProfileCount) {
        Emit(Fused, A, B, Pc);
        // The swallowed instruction still maps somewhere sensible for
        // diagnostics, though nothing may branch to it (checked above).
        NewPc[Pc + 1] = static_cast<uint32_t>(Out.Code.size()) - 1;
        Pc += 2;
        continue;
      }
    }

    if (I.Op == Opcode::SyncEnter) {
      const ClassifiedRegion &R = Classes.regionAt(Id, Pc);
      // A = original continuation pc (patched to a stream offset below);
      // B = region-kind inline cache.
      Emit(TOp::SyncEnter, static_cast<int32_t>(R.Region.ExitPc),
           static_cast<uint16_t>(R.Kind), Pc);
    } else {
      // Benign writes (to provably region-local allocations) carry bit 0
      // of B so the engine skips the read-mostly upgrade hook for them.
      uint16_t B = 0;
      if ((I.Op == Opcode::PutField || I.Op == Opcode::PutRef ||
           I.Op == Opcode::AStore) &&
          Classes.writeIsBenign(Id, Pc))
        B = 1;
      Emit(static_cast<TOp>(I.Op), I.A, B, Pc);
    }
    ++Pc;
  }

  // Patch branch targets to stream offsets and tag back edges; patch
  // SyncEnter continuations to the offset after the translated SyncExit.
  for (std::size_t Ti = 0; Ti < Out.Code.size(); ++Ti) {
    TInst &T = Out.Code[Ti];
    if (isBranchT(T.op())) {
      uint32_t OrigTarget = static_cast<uint32_t>(T.A);
      // The branch's own original pc: for a fused compare-and-branch the
      // branch is the pair's second element.
      uint32_t OrigBranchPc = Out.PcMap[Ti];
      if (T.op() == TOp::CmpLtJumpIfZero || T.op() == TOp::CmpEqJumpIfZero)
        ++OrigBranchPc;
      if (OrigTarget <= OrigBranchPc)
        T.B |= 1u; // back edge: poll site
      T.A = static_cast<int32_t>(NewPc[OrigTarget]);
    } else if (T.op() == TOp::SyncEnter) {
      T.A = static_cast<int32_t>(NewPc[static_cast<uint32_t>(T.A)]) + 1;
    }
  }
  return Out;
}

} // namespace

TranslatedModule jit::translateModule(const Module &M,
                                      const ClassifiedModule &Classes,
                                      const TranslatorOptions &Opts) {
  TranslatedModule TM;
  TM.Methods.reserve(M.methodCount());
  for (uint32_t Id = 0; Id < M.methodCount(); ++Id)
    TM.Methods.push_back(translateMethod(M, Id, Classes, Opts));
  return TM;
}
