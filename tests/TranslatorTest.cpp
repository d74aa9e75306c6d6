//===- tests/TranslatorTest.cpp - Load-time translation tests -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "jit/Translator.h"

#include "jit/Disassembler.h"
#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace solero;
using namespace solero::jit;

namespace {

RuntimeContext &ctx() {
  static RuntimeContext Ctx;
  return Ctx;
}

bool containsOp(const TranslatedMethod &T, TOp Op) {
  return std::any_of(T.Code.begin(), T.Code.end(),
                     [&](const TInst &I) { return I.op() == Op; });
}

/// acc = 0; while (acc < Bound) acc += 3; return acc + obj.F2
/// — one of each fusion pattern plus a tagged back edge.
Module buildHotModule() {
  MethodBuilder B("hot", 2, 3);
  auto Loop = B.newLabel(), Done = B.newLabel();
  B.constant(0).store(2);
  B.bind(Loop);
  B.load(2).load(1).cmpLt().jumpIfZero(Done); // CmpLt+JumpIfZero
  B.load(2).constant(3).add().store(2);       // Const+Add
  B.jump(Loop);                               // back edge
  B.bind(Done);
  B.load(0).getField(2);                      // Load+GetField
  B.load(2).add().ret();
  Module M;
  M.addMethod(B.take());
  return M;
}

} // namespace

TEST(Translator, FusesHotPairsAndTagsBackEdges) {
  Module M = buildHotModule();
  TranslatedModule TM = translateModule(M, classifyModule(M, nullptr));
  const TranslatedMethod &T = TM.Methods[0];

  EXPECT_TRUE(containsOp(T, TOp::ConstAdd));
  EXPECT_TRUE(containsOp(T, TOp::CmpLtJumpIfZero));
  EXPECT_TRUE(containsOp(T, TOp::LoadGetField));
  // The fused compare-and-branch replaced its unfused form (the trailing
  // plain add after load is not a pattern and stays).
  EXPECT_FALSE(containsOp(T, TOp::CmpLt));

  // Exactly one back edge: the loop-closing Jump.
  int BackEdges = 0;
  for (const TInst &I : T.Code)
    if (I.op() == TOp::Jump && I.backEdge())
      ++BackEdges;
  EXPECT_EQ(BackEdges, 1);

  // Branch targets are stream offsets, not original pcs: every branch
  // lands inside the translated stream.
  for (const TInst &I : T.Code)
    if (I.op() == TOp::Jump || I.op() == TOp::CmpLtJumpIfZero) {
      EXPECT_LT(static_cast<std::size_t>(I.A), T.Code.size());
    }
}

TEST(Translator, FusedOpcodesRoundTripThroughDisassembler) {
  Module M = buildHotModule();
  TranslatedModule TM = translateModule(M, classifyModule(M, nullptr));
  std::string Text = disassembleTranslated(M, TM, 0);

  EXPECT_NE(Text.find("const+add"), std::string::npos);
  EXPECT_NE(Text.find("cmplt+jz"), std::string::npos);
  EXPECT_NE(Text.find("load+getfield"), std::string::npos);
  EXPECT_NE(Text.find("(back edge)"), std::string::npos);
  // Every line carries the original pc it was translated from, and the
  // per-instruction map is total.
  EXPECT_NE(Text.find("; pc "), std::string::npos);
  EXPECT_EQ(TM.Methods[0].PcMap.size(), TM.Methods[0].Code.size());

  // The disassembly names round-trip through tOpName for every opcode the
  // stream uses (no "(null)" or garbage from the fused tail).
  for (const TInst &I : TM.Methods[0].Code)
    EXPECT_NE(Text.find(tOpName(I.op())), std::string::npos);
}

TEST(Translator, FusionSkipsBranchTargets) {
  // The Add at label L is a branch target: the Const directly before it
  // must NOT be swallowed into a ConstAdd, or the jump would skip the
  // push half of the pair.
  MethodBuilder B("nofuse", 1, 2);
  auto L = B.newLabel();
  B.load(0).constant(5).load(0).jumpIfZero(L);
  B.pop().constant(7);
  B.bind(L);
  B.add().ret();
  Module M;
  M.addMethod(B.take());
  TranslatedModule TM = translateModule(M, classifyModule(M, nullptr));

  EXPECT_FALSE(containsOp(TM.Methods[0], TOp::ConstAdd));
  EXPECT_TRUE(containsOp(TM.Methods[0], TOp::Add));

  // Both paths execute correctly under both engines.
  for (DispatchMode Mode : {DispatchMode::Threaded, DispatchMode::Reference}) {
    Interpreter::Options Opts;
    Opts.Mode = Mode;
    Module M2;
    {
      MethodBuilder B2("nofuse", 1, 2);
      auto L2 = B2.newLabel();
      B2.load(0).constant(5).load(0).jumpIfZero(L2);
      B2.pop().constant(7);
      B2.bind(L2);
      B2.add().ret();
      M2.addMethod(B2.take());
    }
    Interpreter I(ctx(), std::move(M2), Opts);
    EXPECT_EQ(I.invoke("nofuse", {Value::ofInt(0)}).asInt(), 5);
    EXPECT_EQ(I.invoke("nofuse", {Value::ofInt(2)}).asInt(), 9);
  }
}

TEST(Translator, SyncEnterCarriesClassificationInlineCache) {
  MethodBuilder B("get", 1, 2);
  B.load(0).syncEnter();
  B.load(0).getField(0).store(1);
  B.syncExit();
  B.load(1).ret();
  Module M;
  M.addMethod(B.take());
  ClassifiedModule Classes = classifyModule(M, nullptr);
  ASSERT_EQ(Classes.regions(0)[0].Kind, RegionKind::ReadOnly);
  TranslatedModule TM = translateModule(M, Classes);

  const TranslatedMethod &T = TM.Methods[0];
  auto It = std::find_if(T.Code.begin(), T.Code.end(), [](const TInst &I) {
    return I.op() == TOp::SyncEnter;
  });
  ASSERT_NE(It, T.Code.end());
  EXPECT_EQ(static_cast<RegionKind>(It->B), RegionKind::ReadOnly);
  // The continuation points past the translated SyncExit.
  std::size_t ExitIdx = 0;
  for (std::size_t Ti = 0; Ti < T.Code.size(); ++Ti)
    if (T.Code[Ti].op() == TOp::SyncExit)
      ExitIdx = Ti;
  EXPECT_EQ(static_cast<std::size_t>(It->A), ExitIdx + 1);
}

TEST(Translator, ProfileTranslationIsExactAndUnfused) {
  Module M = buildHotModule();
  TranslatorOptions TO;
  TO.Profile = true;
  TranslatedModule TM = translateModule(M, classifyModule(M, nullptr), TO);
  const TranslatedMethod &T = TM.Methods[0];

  // Profiling disables fusion so counts stay per-original-pc exact.
  EXPECT_FALSE(containsOp(T, TOp::ConstAdd));
  EXPECT_FALSE(containsOp(T, TOp::CmpLtJumpIfZero));
  // One ProfileCount per original instruction (no SyncExit here).
  std::size_t Counts = 0;
  for (const TInst &I : T.Code)
    if (I.op() == TOp::ProfileCount)
      ++Counts;
  EXPECT_EQ(Counts, M.method(0).Code.size());
}

TEST(Translator, FrameFactsMatchVerifier) {
  Module M = buildHotModule();
  TranslatedModule TM = translateModule(M, classifyModule(M, nullptr));
  VerifiedMethod V = verifyMethod(M, 0);
  ASSERT_TRUE(V.Ok);
  EXPECT_EQ(TM.Methods[0].MaxStack, V.MaxStack);
  EXPECT_EQ(TM.Methods[0].FrameSlots, M.method(0).NumLocals + V.MaxStack);
}
