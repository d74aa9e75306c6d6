//===- tests/ImageTest.cpp - Warm-image checkpoint/restore ----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Covers src/image/ (DESIGN.md §16): the serialization format's failure
/// modes (truncation, corruption, version skew — every one a Diagnostic,
/// never a crash), the CRaC-style checkpoint/restore protocol (ordering,
/// per-resource degradation, byte-identical round trips), controller and
/// BRAVO state rehydration, warm classification/profile adoption (the
/// restored engine retranslates under its own options; a mismatched module
/// keeps its cold state), the JSON-emitter regressions the warm_restart
/// probe row guards in CI, and TSan-checked runs under live threads.
///
/// Every suite is prefixed "Image" so the CI TSan job's gtest_filter
/// picks all of them up with a single Image* pattern.
///
//===----------------------------------------------------------------------===//

#include "image/Checkpoint.h"
#include "image/Image.h"
#include "image/Resources.h"

#include "BenchCommon.h"
#include "core/SoleroLock.h"
#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"
#include "locks/BravoRwLock.h"
#include "runtime/SharedField.h"
#include "support/Rng.h"

#include <atomic>
#include <cstdio>
#include <thread>

#include <gtest/gtest.h>

using namespace solero;
using namespace solero::image;

namespace {

RuntimeConfig quietConfig() {
  RuntimeConfig C;
  C.StartEventBus = false;
  return C;
}

/// Tiny windows so controller transitions happen within a few sections
/// (same tuning as AdaptiveElisionTest).
AdaptiveElisionConfig tinyAdaptive() {
  AdaptiveElisionConfig A;
  A.Enabled = true;
  A.WindowAttempts = 8;
  A.ThrottleRatio = 0.30;
  A.DisableRatio = 0.60;
  A.ReenableRatio = 0.20;
  A.ElideMaxAttempts = 1;
  A.ReprobeWindow = 4;
  A.DisabledSkipMin = 4;
  A.DisabledSkipMax = 16;
  A.BackoffSpinsMin = 1;
  A.BackoffSpinsMax = 4;
  return A;
}

SoleroConfig tinyAdaptiveConfig() {
  SoleroConfig C;
  C.Adaptive = tinyAdaptive();
  return C;
}

// --- Format layer ----------------------------------------------------------

TEST(ImageFormat, PrimitivesRoundTrip) {
  ImageWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEFu);
  W.u64(0x0123456789ABCDEFull);
  W.i32(-42);
  W.i64(-1234567890123ll);
  W.str("solero");
  std::vector<uint8_t> Bytes = W.take();

  ImageReader R(Bytes);
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.i32(), -42);
  EXPECT_EQ(R.i64(), -1234567890123ll);
  EXPECT_EQ(R.str(), "solero");
  EXPECT_TRUE(R.ok());
}

TEST(ImageFormat, ReaderFailureIsSticky) {
  ImageWriter W;
  W.u8(7);
  W.u8(9);
  std::vector<uint8_t> Bytes = W.take();
  ImageReader R(Bytes);
  EXPECT_EQ(R.u64(), 0u); // 2 bytes cannot satisfy 8
  EXPECT_TRUE(R.failed());
  EXPECT_EQ(R.u8(), 0u); // sticky: even the valid prefix reads as zero
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

std::vector<uint8_t> sampleImage() {
  ImageBuilder B;
  B.addBlob("alpha", {1, 2, 3, 4});
  B.addBlob("beta", {5, 6});
  return B.build();
}

TEST(ImageFormat, BuildLoadRoundTrip) {
  Diagnostic D;
  LoadedImage Img = LoadedImage::fromBytes(sampleImage(), D);
  ASSERT_TRUE(D.ok()) << D.render();
  ASSERT_TRUE(Img.loaded());
  EXPECT_EQ(Img.blobCount(), 2u);
  ASSERT_NE(Img.blob("alpha"), nullptr);
  EXPECT_EQ(*Img.blob("alpha"), (std::vector<uint8_t>{1, 2, 3, 4}));
  ASSERT_NE(Img.blob("beta"), nullptr);
  EXPECT_EQ(Img.blob("gamma"), nullptr);
}

TEST(ImageFormat, PropertyRandomBlobsRoundTrip) {
  SplitMix64 Rng(0x1Aa6E5EEDull);
  for (int Iter = 0; Iter < 50; ++Iter) {
    ImageBuilder B;
    unsigned NumBlobs = 1 + static_cast<unsigned>(Rng.next() % 5);
    std::vector<std::pair<std::string, std::vector<uint8_t>>> Expect;
    for (unsigned I = 0; I < NumBlobs; ++I) {
      std::string Name = "blob" + std::to_string(I);
      std::vector<uint8_t> Data(Rng.next() % 64);
      for (auto &Byte : Data)
        Byte = static_cast<uint8_t>(Rng.next());
      B.addBlob(Name, Data);
      Expect.emplace_back(Name, std::move(Data));
    }
    Diagnostic D;
    LoadedImage Img = LoadedImage::fromBytes(B.build(), D);
    ASSERT_TRUE(Img.loaded()) << D.render();
    ASSERT_EQ(Img.blobCount(), Expect.size());
    for (const auto &[Name, Data] : Expect) {
      ASSERT_NE(Img.blob(Name), nullptr);
      EXPECT_EQ(*Img.blob(Name), Data);
    }
  }
}

TEST(ImageFormat, TruncationFailsCleanly) {
  std::vector<uint8_t> Bytes = sampleImage();
  // Every possible truncation point must yield a diagnostic, not a crash.
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
    Diagnostic D;
    LoadedImage Img = LoadedImage::fromBytes(Bytes.data(), Len, D);
    EXPECT_FALSE(Img.loaded()) << "length " << Len;
    EXPECT_FALSE(D.ok());
    EXPECT_TRUE(D.Code == ImageDiag::ShortHeader ||
                D.Code == ImageDiag::Truncated)
        << "length " << Len << ": " << D.render();
  }
}

TEST(ImageFormat, ChecksumDetectsPayloadCorruption) {
  std::vector<uint8_t> Bytes = sampleImage();
  // Flip one bit in every payload byte in turn.
  for (std::size_t Pos = 24; Pos < Bytes.size(); ++Pos) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[Pos] ^= 0x01;
    Diagnostic D;
    LoadedImage Img = LoadedImage::fromBytes(Bad, D);
    EXPECT_FALSE(Img.loaded());
    EXPECT_EQ(D.Code, ImageDiag::ChecksumMismatch) << D.render();
  }
}

TEST(ImageFormat, VersionSkewRejected) {
  std::vector<uint8_t> Bytes = sampleImage();
  Bytes[4] ^= 0xFF; // version field (little-endian u32 after the magic)
  Diagnostic D;
  LoadedImage Img = LoadedImage::fromBytes(Bytes, D);
  EXPECT_FALSE(Img.loaded());
  EXPECT_EQ(D.Code, ImageDiag::VersionSkew) << D.render();
}

TEST(ImageFormat, BadMagicRejected) {
  std::vector<uint8_t> Bytes = sampleImage();
  Bytes[0] ^= 0xFF;
  Diagnostic D;
  LoadedImage Img = LoadedImage::fromBytes(Bytes, D);
  EXPECT_FALSE(Img.loaded());
  EXPECT_EQ(D.Code, ImageDiag::BadMagic);
}

TEST(ImageFormat, MissingFileDiagnosed) {
  Diagnostic D;
  LoadedImage Img =
      LoadedImage::fromFile("/nonexistent/solero-warm.img", D);
  EXPECT_FALSE(Img.loaded());
  EXPECT_EQ(D.Code, ImageDiag::MissingFile);
  EXPECT_NE(D.render().find("cold start"), std::string::npos);
}

// --- Checkpoint/restore protocol -------------------------------------------

/// Scripted resource: writes a fixed byte, records restore order, restores
/// successfully only when told to.
class ScriptedResource : public Resource {
public:
  ScriptedResource(std::string Name, uint8_t Byte, bool Accept,
                   std::vector<std::string> &Order)
      : Name_(std::move(Name)), Byte(Byte), Accept(Accept), Order(Order) {}
  std::string name() const override { return Name_; }
  void beforeCheckpoint(ImageWriter &W) override { W.u8(Byte); }
  bool afterRestore(ImageReader &R) override {
    Order.push_back(Name_);
    Seen = R.u8();
    return Accept && R.ok();
  }

  std::string Name_;
  uint8_t Byte;
  bool Accept;
  uint8_t Seen = 0;
  std::vector<std::string> &Order;
};

TEST(ImageCheckpoint, RestoreRunsInReverseRegistrationOrder) {
  std::vector<std::string> Order;
  ScriptedResource A("a", 1, true, Order), B("b", 2, true, Order),
      C("c", 3, true, Order);
  CheckpointContext Ctx;
  Ctx.registerResource(&A);
  Ctx.registerResource(&B);
  Ctx.registerResource(&C);
  RestoreReport Rep = Ctx.restoreBytes(Ctx.checkpointBytes());
  EXPECT_TRUE(Rep.allWarm(Ctx.resourceCount())) << Rep.summary();
  ASSERT_EQ(Order, (std::vector<std::string>{"c", "b", "a"}));
  EXPECT_EQ(A.Seen, 1);
  EXPECT_EQ(C.Seen, 3);
}

TEST(ImageCheckpoint, MissingBlobDegradesPerResource) {
  std::vector<std::string> Order;
  ScriptedResource A("a", 1, true, Order);
  CheckpointContext WriteCtx;
  WriteCtx.registerResource(&A);
  std::vector<uint8_t> Bytes = WriteCtx.checkpointBytes();

  ScriptedResource B("b", 2, true, Order); // no blob in the image
  CheckpointContext ReadCtx;
  ReadCtx.registerResource(&A);
  ReadCtx.registerResource(&B);
  RestoreReport Rep = ReadCtx.restoreBytes(Bytes);
  EXPECT_TRUE(Rep.ImageOk);
  EXPECT_EQ(Rep.Restored, 1u);
  EXPECT_EQ(Rep.Missing, 1u);
  EXPECT_FALSE(Rep.allWarm(ReadCtx.resourceCount()));
  ASSERT_EQ(Rep.Diags.size(), 1u);
}

TEST(ImageCheckpoint, RejectedBlobCountsAndOthersRestore) {
  std::vector<std::string> Order;
  ScriptedResource A("a", 1, true, Order), B("b", 2, false, Order);
  CheckpointContext Ctx;
  Ctx.registerResource(&A);
  Ctx.registerResource(&B);
  RestoreReport Rep = Ctx.restoreBytes(Ctx.checkpointBytes());
  EXPECT_TRUE(Rep.ImageOk);
  EXPECT_EQ(Rep.Restored, 1u);
  EXPECT_EQ(Rep.Rejected, 1u);
  EXPECT_NE(Rep.summary().find("rejected"), std::string::npos);
}

TEST(ImageCheckpoint, StructurallyBadImageRestoresNothing) {
  std::vector<std::string> Order;
  ScriptedResource A("a", 1, true, Order);
  CheckpointContext Ctx;
  Ctx.registerResource(&A);
  std::vector<uint8_t> Bytes = Ctx.checkpointBytes();
  Bytes[Bytes.size() - 1] ^= 0x10; // payload corruption
  RestoreReport Rep = Ctx.restoreBytes(Bytes);
  EXPECT_FALSE(Rep.ImageOk);
  EXPECT_EQ(Rep.Restored, 0u);
  EXPECT_TRUE(Order.empty()); // afterRestore never ran
  ASSERT_FALSE(Rep.Diags.empty());
  EXPECT_EQ(Rep.Diags[0].Code, ImageDiag::ChecksumMismatch);
}

// --- Controller state ------------------------------------------------------

class ImageControllerTest : public ::testing::Test {
protected:
  ImageControllerTest() : Ctx(quietConfig()), L(Ctx, tinyAdaptiveConfig()) {}

  /// Speculation-doomed section (write on the same lock inside the body).
  void failingSection() {
    L.synchronizedReadOnly(H, [&](ReadGuard &) {
      L.synchronizedWrite(H, [] {});
      return Data.read();
    });
  }

  void succeedingSection() {
    L.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
  }

  void driveTo(ElisionState S) {
    for (int I = 0; I < 4096 && L.controller().state() != S; ++I)
      failingSection();
    ASSERT_EQ(L.controller().state(), S);
  }

  RuntimeContext Ctx;
  SoleroLock L;
  ObjectHeader H;
  SharedField<int64_t> Data{7};
};

TEST_F(ImageControllerTest, SnapshotRestoreSnapshotIsByteIdentical) {
  driveTo(ElisionState::Disabled);
  ImageWriter W1;
  writeControllerState(W1, L.controller());

  SoleroLock Fresh(Ctx, tinyAdaptiveConfig());
  ImageReader R(W1.data());
  ASSERT_TRUE(readControllerState(R, Fresh.controller()));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Fresh.controller().state(), ElisionState::Disabled);

  ImageWriter W2;
  writeControllerState(W2, Fresh.controller());
  EXPECT_EQ(W1.data(), W2.data()); // the property the format promises
}

TEST_F(ImageControllerTest, RestoredDisabledLockResumesSkipping) {
  driveTo(ElisionState::Disabled);
  ElisionSnapshot S = L.controller().snapshot();

  SoleroLock Fresh(Ctx, tinyAdaptiveConfig());
  ASSERT_TRUE(Fresh.controller().restore(S));
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  Fresh.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  // The restored lock skips speculation from the first section — no cold
  // re-learning of the write phase (the bug the seeding fix closes).
  EXPECT_EQ(After.ElisionAttempts - Before.ElisionAttempts, 0u);
  EXPECT_EQ(After.ElisionSkips - Before.ElisionSkips, 1u);
}

TEST_F(ImageControllerTest, RestoreClampsPreFixZeroSkipWindow) {
  // Images written before the SkipWindow seeding fix can carry 0 for a
  // Disabled lock; restore must clamp into [SkipMin, SkipMax], not adopt
  // a zero window.
  ElisionSnapshot S;
  S.State = static_cast<uint32_t>(ElisionState::Disabled);
  S.Attempts = 8;
  S.Failures = 6;
  S.Skip = 2;
  S.SkipWindow = 0;
  ASSERT_TRUE(L.controller().restore(S));
  EXPECT_EQ(L.controller().state(), ElisionState::Disabled);
  EXPECT_EQ(L.controller().skipWindow(), tinyAdaptive().DisabledSkipMin);
  EXPECT_GE(L.controller().skipBudget(), 1);
}

TEST_F(ImageControllerTest, RestoreRejectsInconsistentSnapshots) {
  ElisionSnapshot Garbage;
  Garbage.State = 9; // no such state
  EXPECT_FALSE(L.controller().restore(Garbage));
  EXPECT_EQ(L.controller().state(), ElisionState::Elide);

  ElisionSnapshot Skewed;
  Skewed.State = static_cast<uint32_t>(ElisionState::Throttled);
  Skewed.Attempts = 3;
  Skewed.Failures = 9; // failures cannot exceed attempts
  EXPECT_FALSE(L.controller().restore(Skewed));
  EXPECT_EQ(L.controller().state(), ElisionState::Elide);
}

TEST_F(ImageControllerTest, RestoredReprobeFinishesItsWindow) {
  ElisionSnapshot S;
  S.State = static_cast<uint32_t>(ElisionState::Reprobe);
  S.Attempts = 4;
  S.Failures = 2;
  S.ReprobeLeft = 0; // exhausted budget: must clamp to >= 1, not wedge
  S.SkipWindow = 8;
  ASSERT_TRUE(L.controller().restore(S));
  EXPECT_EQ(L.controller().state(), ElisionState::Reprobe);
  // Clean sections must eventually re-enable elision.
  for (int I = 0; I < 64 && L.controller().state() != ElisionState::Elide; ++I)
    succeedingSection();
  EXPECT_EQ(L.controller().state(), ElisionState::Elide);
}

// --- BRAVO state -----------------------------------------------------------

TEST(ImageBravo, BiasRoundTrips) {
  RuntimeContext Ctx(quietConfig());
  BravoRwLock A(Ctx);
  A.synchronizedReadOnly([](ReadGuard &) { return 0; }); // sets the bias
  ASSERT_TRUE(A.readBiased());
  ImageWriter W;
  writeBravoState(W, A);

  BravoRwLock B(Ctx);
  ASSERT_FALSE(B.readBiased());
  ImageReader R(W.data());
  ASSERT_TRUE(readBravoState(R, B));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(B.readBiased());
}

TEST(ImageBravo, RestoreRefusedWhileReadersActive) {
  RuntimeContext Ctx(quietConfig());
  BravoRwLock L(Ctx);
  BravoSnapshot S;
  S.RBias = true;
  std::atomic<bool> InSection{false}, Release{false};
  std::thread Reader([&] {
    L.synchronizedReadOnly([&](ReadGuard &) {
      InSection.store(true);
      while (!Release.load())
        std::this_thread::yield();
      return 0;
    });
  });
  while (!InSection.load())
    std::this_thread::yield();
  EXPECT_FALSE(L.restore(S)); // not quiescent: refuse, stay cold
  Release.store(true);
  Reader.join();
  EXPECT_TRUE(L.restore(S)); // quiescent now
  EXPECT_TRUE(L.readBiased());
}

// --- Warm interpreter state ------------------------------------------------

/// mostly(obj, doWrite): statically Writing, ReadMostly once profiled —
/// the same guest warm_restart measures.
jit::Module buildMostlyGuest() {
  jit::MethodBuilder B("mostly", 2, 2);
  auto Skip = B.newLabel();
  B.load(0).syncEnter();
  B.load(1).jumpIfZero(Skip);
  B.load(0).constant(1).putField(1);
  B.bind(Skip);
  B.load(0).getField(0).pop();
  B.syncExit();
  B.constant(0).ret();
  jit::Module M;
  M.addMethod(B.take());
  return M;
}

/// Expects \p Got and \p Want to be the same threaded program: per method,
/// the same TInst (Op, A, B) sequence and the same PcMap.
void expectSameStream(const jit::TranslatedModule &Got,
                      const jit::TranslatedModule &Want) {
  ASSERT_EQ(Got.Methods.size(), Want.Methods.size());
  for (std::size_t Id = 0; Id < Want.Methods.size(); ++Id) {
    const jit::TranslatedMethod &G = Got.Methods[Id];
    const jit::TranslatedMethod &W = Want.Methods[Id];
    ASSERT_EQ(G.Code.size(), W.Code.size()) << "method " << Id;
    for (std::size_t I = 0; I < W.Code.size(); ++I) {
      EXPECT_EQ(G.Code[I].Op, W.Code[I].Op) << "method " << Id << " @" << I;
      EXPECT_EQ(G.Code[I].A, W.Code[I].A) << "method " << Id << " @" << I;
      EXPECT_EQ(G.Code[I].B, W.Code[I].B) << "method " << Id << " @" << I;
    }
    EXPECT_EQ(G.PcMap, W.PcMap) << "method " << Id;
  }
}

TEST(ImageInterp, RestoredWarmStateExecutesAndElides) {
  RuntimeContext Ctx(quietConfig());
  jit::Interpreter::Options Warm;
  Warm.CollectProfile = true;
  jit::Interpreter Donor(Ctx, buildMostlyGuest(), Warm);
  jit::GuestObject *DObj = Donor.allocateObject();
  DObj->F[0].write(11);
  for (int I = 0; I < 200; ++I)
    Donor.invoke("mostly", {jit::Value::ofRef(DObj), jit::Value::ofInt(0)});
  Donor.invoke("mostly", {jit::Value::ofRef(DObj), jit::Value::ofInt(1)});
  Donor.reclassifyWithProfile();
  Donor.endProfiling();
  ASSERT_EQ(Donor.classification().regions(0)[0].Kind, jit::RegionKind::ReadMostly);

  CheckpointContext Ckpt;
  InterpreterWarmState DonorRes("jit.warm", Donor);
  Ckpt.registerResource(&DonorRes);
  std::vector<uint8_t> Bytes = Ckpt.checkpointBytes();

  jit::Interpreter Fresh(Ctx, buildMostlyGuest(), jit::Interpreter::Options());
  ASSERT_EQ(Fresh.classification().regions(0)[0].Kind, jit::RegionKind::Writing);
  CheckpointContext Rest;
  InterpreterWarmState FreshRes("jit.warm", Fresh);
  Rest.registerResource(&FreshRes);
  RestoreReport Rep = Rest.restoreBytes(Bytes);
  ASSERT_TRUE(Rep.allWarm(Rest.resourceCount())) << Rep.summary();
  // The restored engine carries the profiled classification...
  EXPECT_EQ(Fresh.classification().regions(0)[0].Kind, jit::RegionKind::ReadMostly);
  // ...rebuilds the donor's stream locally (same options on both sides)...
  expectSameStream(Fresh.translated(), Donor.translated());

  // ...executes identically to the donor (differential check)...
  jit::GuestObject *FObj = Fresh.allocateObject();
  FObj->F[0].write(11);
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  for (int I = 0; I < 8; ++I) {
    int64_t DoWrite = (I == 5) ? 1 : 0;
    int64_t Got =
        Fresh
            .invoke("mostly", {jit::Value::ofRef(FObj),
                               jit::Value::ofInt(DoWrite)})
            .asInt();
    int64_t Want =
        Donor
            .invoke("mostly", {jit::Value::ofRef(DObj),
                               jit::Value::ofInt(DoWrite)})
            .asInt();
    EXPECT_EQ(Got, Want);
  }
  EXPECT_EQ(FObj->F[1].read(), DObj->F[1].read());
  // ...and elides from the very first section (no reprofiling phase).
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_GE(After.ElisionSuccesses - Before.ElisionSuccesses, 8u);
}

TEST(ImageInterp, MismatchedModuleFallsBackToRetranslation) {
  RuntimeContext Ctx(quietConfig());
  jit::Interpreter::Options Warm;
  Warm.CollectProfile = true;
  jit::Interpreter Donor(Ctx, buildMostlyGuest(), Warm);
  jit::GuestObject *DObj = Donor.allocateObject();
  for (int I = 0; I < 100; ++I)
    Donor.invoke("mostly", {jit::Value::ofRef(DObj), jit::Value::ofInt(0)});
  Donor.reclassifyWithProfile();
  Donor.endProfiling();
  CheckpointContext Ckpt;
  InterpreterWarmState DonorRes("jit.warm", Donor);
  Ckpt.registerResource(&DonorRes);
  std::vector<uint8_t> Bytes = Ckpt.checkpointBytes();

  // A *different* guest: the blob decodes but validation must reject it.
  jit::MethodBuilder B("other", 1, 2);
  B.load(0).syncEnter();
  B.load(0).getField(0).store(1);
  B.syncExit();
  B.load(1).ret();
  jit::Module Other;
  Other.addMethod(B.take());
  jit::Interpreter Victim(Ctx, std::move(Other), jit::Interpreter::Options());
  CheckpointContext Rest;
  InterpreterWarmState VictimRes("jit.warm", Victim);
  Rest.registerResource(&VictimRes);
  RestoreReport Rep = Rest.restoreBytes(Bytes);
  EXPECT_TRUE(Rep.ImageOk);
  EXPECT_EQ(Rep.Rejected, 1u); // adoption refused, cold state kept
  // The fallback *is* the fresh translation: execution still works.
  jit::GuestObject *VObj = Victim.allocateObject();
  VObj->F[0].write(21);
  EXPECT_EQ(Victim.invoke("other", {jit::Value::ofRef(VObj)}).asInt(), 21);
}

TEST(ImageInterp, RestoredStreamFollowsRestoringOptions) {
  RuntimeContext Ctx(quietConfig());
  // The donor is checkpointed mid-profiling: its own stream is unfused
  // and instrumented with ProfileCount.
  jit::Interpreter::Options Profiling;
  Profiling.CollectProfile = true;
  Profiling.FuseSuperinstructions = false;
  jit::Interpreter Donor(Ctx, buildMostlyGuest(), Profiling);
  jit::GuestObject *DObj = Donor.allocateObject();
  for (int I = 0; I < 100; ++I)
    Donor.invoke("mostly", {jit::Value::ofRef(DObj), jit::Value::ofInt(0)});
  Donor.reclassifyWithProfile();
  CheckpointContext Ckpt;
  InterpreterWarmState DonorRes("jit.warm", Donor);
  Ckpt.registerResource(&DonorRes);
  std::vector<uint8_t> Bytes = Ckpt.checkpointBytes();

  jit::Interpreter Fresh(Ctx, buildMostlyGuest(), jit::Interpreter::Options());
  CheckpointContext Rest;
  InterpreterWarmState FreshRes("jit.warm", Fresh);
  Rest.registerResource(&FreshRes);
  RestoreReport Rep = Rest.restoreBytes(Bytes);
  ASSERT_TRUE(Rep.allWarm(Rest.resourceCount())) << Rep.summary();
  ASSERT_EQ(Fresh.classification().regions(0)[0].Kind,
            jit::RegionKind::ReadMostly);

  // The stream follows the restoring engine's options, not the donor's.
  std::size_t ProfileCounts = 0;
  for (const jit::TranslatedMethod &TM : Fresh.translated().Methods)
    for (const jit::TInst &I : TM.Code)
      ProfileCounts += I.op() == jit::TOp::ProfileCount;
  EXPECT_EQ(ProfileCounts, 0u);
  jit::TranslatorOptions Production;
  Production.Fuse = true;
  Production.Profile = false;
  expectSameStream(Fresh.translated(),
                   jit::translateModule(Fresh.module(), Fresh.classification(),
                                        Production));

  // Concurrent clients leave the restored profile alone (an instrumented
  // stream would bump it unsynchronised from every thread).
  const std::vector<std::vector<uint64_t>> ProfBefore = Fresh.profile().Counts;
  jit::GuestObject *FObj = Fresh.allocateObject();
  std::vector<std::thread> Clients;
  for (int T = 0; T < 2; ++T)
    Clients.emplace_back([&] {
      for (int I = 0; I < 200; ++I)
        Fresh.invoke("mostly", {jit::Value::ofRef(FObj), jit::Value::ofInt(0)});
    });
  for (std::thread &C : Clients)
    C.join();
  EXPECT_EQ(Fresh.profile().Counts, ProfBefore);
}

// --- JSON emitter regressions ----------------------------------------------

std::string writtenJson(const JsonReport &Json) {
  std::string Path = ::testing::TempDir() + "/solero_image_json_test.json";
  EXPECT_TRUE(Json.write(Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  std::string Doc;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Doc.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  return Doc;
}

TEST(ImageJson, NonFiniteValuesEmitZero) {
  JsonReport Json("image_test");
  BenchResult R;
  R.OpsPerSec = std::numeric_limits<double>::quiet_NaN();
  Json.add("v", "P", 1, R,
           {{"a", std::numeric_limits<double>::infinity()},
            {"b", -std::numeric_limits<double>::infinity()}});
  std::string Doc = writtenJson(Json);
  // The old emitter printed literal nan/inf here, corrupting the file.
  EXPECT_EQ(Doc.find("nan"), std::string::npos) << Doc;
  EXPECT_EQ(Doc.find("inf"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"ops_per_sec\": 0"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"a\": 0"), std::string::npos) << Doc;
}

TEST(ImageJson, ControlCharactersEscapedNotDropped) {
  JsonReport Json("image_test");
  BenchResult R;
  Json.add(std::string("a\001b\tc"), "P\037", 1, R);
  std::string Doc = writtenJson(Json);
  // The old emitter silently dropped control characters.
  EXPECT_NE(Doc.find("a\\u0001b\\u0009c"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("P\\u001F"), std::string::npos) << Doc;
  EXPECT_EQ(Doc.find('\001'), std::string::npos);
}

TEST(ImageJson, ZeroAttemptWindowHasFiniteFailureRatio) {
  BenchResult R; // no attempts recorded at all
  EXPECT_EQ(R.failureRatio(), 0.0);
  R.Delta.ElisionFailures = RelaxedCounter{};
  EXPECT_TRUE(std::isfinite(R.failureRatio()));
}

// --- Concurrency: snapshot under live readers (TSan) -----------------------

TEST(ImageConcurrency, SnapshotUnderLiveReadersIsRaceFree) {
  RuntimeContext Ctx(quietConfig());
  SoleroLock L(Ctx, tinyAdaptiveConfig());
  ObjectHeader H;
  SharedField<int64_t> Data{3};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int T = 0; T < 2; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire))
        L.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
    });
  // Concurrent snapshots are documented safe (all-relaxed cell); only a
  // *restore* needs quiescence. TSan verifies the claim.
  for (int I = 0; I < 1000; ++I) {
    ElisionSnapshot S = L.controller().snapshot();
    ASSERT_LE(S.State, 3u);
  }
  Stop.store(true, std::memory_order_release);
  for (auto &R : Readers)
    R.join();

  // Quiesced now: restore of a live snapshot must succeed.
  ElisionSnapshot S = L.controller().snapshot();
  EXPECT_TRUE(L.controller().restore(S));
}

} // namespace
