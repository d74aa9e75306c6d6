//===- tests/ModelCheckerTest.cpp - Protocol model checker ----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The checker checking the checker: unit tests for the model-checking
/// substrate (state identity/hash, TSO and RA store-buffer machines),
/// soundness of the sleep-set reduction (verdicts must match with the
/// reduction off), the SC-vs-TSO divergence on the Dekker litmus, the
/// TSO-vs-RA divergence on the two-lock SOLERO store-buffering model,
/// golden-diffed counterexample rendering for the seeded blind-store FLC
/// release race, and the tier-1 bounded-exhaustive run of the shipped
/// protocol models.
///
//===----------------------------------------------------------------------===//

#include "verify/Checker.h"
#include "verify/Models.h"
#include "verify/Trace.h"

#include <gtest/gtest.h>

using namespace solero;
using namespace solero::verify;

namespace {

CheckConfig config(MemSemantics Mem, bool Por = true) {
  CheckConfig C;
  C.Mem = Mem;
  C.SleepSets = Por;
  return C;
}

//===----------------------------------------------------------------------===//
// Substrate: state identity, hashing, TSO store-buffer machine.
//===----------------------------------------------------------------------===//

TEST(McState, IdentityAndHashTrackEveryField) {
  McState A;
  A.clear();
  McState B = A;
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.hash(), B.hash());

  B.Mem[3] = 1;
  EXPECT_FALSE(A == B);
  EXPECT_NE(A.hash(), B.hash());

  B = A;
  B.BufVal[1][0] = 7; // buffered-but-unflushed state is distinct state
  EXPECT_FALSE(A == B);
  EXPECT_NE(A.hash(), B.hash());

  B = A;
  B.Local[2][5] = 1; // locals (e.g. a recorded SIG generation) count too
  EXPECT_FALSE(A == B);
  EXPECT_NE(A.hash(), B.hash());
}

TEST(Mach, TsoBuffersForwardAndFlushFifo) {
  McState S;
  S.clear();
  S.Mem[0] = 9;
  Mach M(S, /*Tid=*/0, MemSemantics::TSO);

  // A buffered store is invisible in memory but forwarded to own loads.
  EXPECT_TRUE(M.store(0, 1));
  EXPECT_TRUE(M.store(0, 2));
  EXPECT_EQ(S.Mem[0], 9);
  EXPECT_EQ(M.load(0), 2); // newest own entry wins

  // Another thread still reads memory.
  Mach Other(S, /*Tid=*/1, MemSemantics::TSO);
  EXPECT_EQ(Other.load(0), 9);

  // Fences and RMWs are blocked until scheduler flushes drain the FIFO.
  EXPECT_FALSE(M.fence());
  EXPECT_FALSE(M.rmwReady(0));
  EXPECT_TRUE(applyFlush(S, 0));
  EXPECT_EQ(S.Mem[0], 1); // oldest first
  EXPECT_TRUE(applyFlush(S, 0));
  EXPECT_EQ(S.Mem[0], 2);
  EXPECT_FALSE(applyFlush(S, 0)); // drained
  EXPECT_TRUE(M.fence());
  EXPECT_TRUE(M.rmwReady(0));

  // A full buffer disables further stores (store returns false).
  for (unsigned I = 0; I < McMaxBuf; ++I)
    EXPECT_TRUE(M.store(1, static_cast<uint8_t>(I)));
  EXPECT_FALSE(M.store(1, 99));
}

TEST(Mach, TsoSeqCstStoreDrainsFirstAndBypassesTheBuffer) {
  McState S;
  S.clear();
  Mach M(S, 0, MemSemantics::TSO);
  EXPECT_TRUE(M.store(0, 1));
  EXPECT_FALSE(M.store(1, 5, McOrder::SeqCst)); // XCHG waits for the drain
  EXPECT_TRUE(applyFlush(S, 0));
  EXPECT_TRUE(M.store(1, 5, McOrder::SeqCst));
  EXPECT_EQ(S.Mem[1], 5);
  EXPECT_EQ(S.BufLen[0], 0u);
}

TEST(Mach, RaBuffersRmwWritesAndReservesTheirVariable) {
  McState S;
  S.clear();
  Mach M(S, /*Tid=*/0, MemSemantics::RA);
  Mach Other(S, /*Tid=*/1, MemSemantics::RA);

  // A release/acquire CAS neither needs nor causes a drain: its write is
  // buffered behind the thread's earlier store, forwarded to its own
  // loads and invisible to everyone else's.
  EXPECT_TRUE(M.store(2, 7));
  ASSERT_TRUE(M.rmwReady(0));
  EXPECT_TRUE(M.cas(0, 0, 5));
  EXPECT_EQ(M.load(0), 5);
  EXPECT_EQ(Other.load(0), 0);
  EXPECT_EQ(S.Mem[0], 0);

  // The pending write reserves variable 0: the other thread may neither
  // CAS nor store it until the flush, so the CAS stays atomic.
  EXPECT_FALSE(Other.rmwReady(0));
  EXPECT_FALSE(Other.store(0, 9));
  EXPECT_TRUE(Other.rmwReady(3));

  // seq_cst operations drain first, then write memory directly.
  EXPECT_FALSE(M.rmwReady(3, McOrder::SeqCst));
  EXPECT_FALSE(M.store(3, 1, McOrder::SeqCst));
  EXPECT_FALSE(M.fence());
  EXPECT_TRUE(applyFlush(S, 0));
  EXPECT_TRUE(applyFlush(S, 0));
  EXPECT_EQ(S.Mem[0], 5);
  EXPECT_TRUE(Other.rmwReady(0));
  EXPECT_TRUE(M.store(3, 1, McOrder::SeqCst));
  EXPECT_EQ(S.Mem[3], 1);
  EXPECT_TRUE(M.cas(0, 5, 6, McOrder::SeqCst));
  EXPECT_EQ(S.Mem[0], 6);
  EXPECT_EQ(S.BufLen[0], 0u);
}

TEST(Mach, ScStoresAreImmediate) {
  McState S;
  S.clear();
  Mach M(S, 0, MemSemantics::SC);
  EXPECT_TRUE(M.store(4, 42));
  EXPECT_EQ(S.Mem[4], 42);
  EXPECT_EQ(S.BufLen[0], 0u);
  EXPECT_TRUE(M.fence());
  EXPECT_TRUE(M.cas(4, 42, 43));
  EXPECT_FALSE(M.cas(4, 42, 44)); // failed compare is a real step
  EXPECT_EQ(S.Mem[4], 43);
  EXPECT_EQ(M.readMask(), uint16_t(1u << 4));
  EXPECT_EQ(M.writeMask(), uint16_t(1u << 4));
}

//===----------------------------------------------------------------------===//
// Sleep-set reduction soundness: same verdict with the reduction off, and
// the reduction must not *increase* the transitions taken.
//===----------------------------------------------------------------------===//

struct NamedModel {
  const char *Tag;
  std::unique_ptr<ProtocolModel> M;
};

std::vector<NamedModel> equivalenceMatrix() {
  std::vector<NamedModel> Ms;
  Ms.push_back({"dekker", makeDekkerModel({})});
  Ms.push_back({"dekker/no-fence", makeDekkerModel({/*Fences=*/false})});
  Ms.push_back({"tasuki", makeTasukiModel({})});
  Ms.push_back({"tasuki/blind", makeTasukiModel({2, true})});
  Ms.push_back({"bravo", makeBravoModel({})});
  Ms.push_back({"bravo/no-fence", makeBravoModel({2, true})});
  Ms.push_back({"solero/blind", makeSoleroModel({2, true, true})});
  Ms.push_back({"solero-sb", makeSoleroSbModel({})});
  Ms.push_back({"solero-sb/entry-fence",
                makeSoleroSbModel({SoleroSbVariant::EntryFence})});
  Ms.push_back({"solero-sb/plain-release",
                makeSoleroSbModel({SoleroSbVariant::PlainRelease})});
  return Ms;
}

TEST(SleepSets, VerdictsMatchUnreducedExploration) {
  for (const NamedModel &NM : equivalenceMatrix()) {
    for (MemSemantics Mem :
         {MemSemantics::SC, MemSemantics::TSO, MemSemantics::RA}) {
      CheckResult Por = checkModel(*NM.M, config(Mem, true));
      CheckResult Full = checkModel(*NM.M, config(Mem, false));
      EXPECT_EQ(Por.V, Full.V)
          << NM.Tag << " under " << memSemanticsName(Mem);
      if (Por.V == Verdict::Violation) {
        // Both counterexamples are BFS-minimized over the unreduced
        // graph, so they must agree exactly.
        EXPECT_STREQ(Por.ViolationKind, Full.ViolationKind) << NM.Tag;
        EXPECT_EQ(Por.Trace.size(), Full.Trace.size()) << NM.Tag;
      }
      EXPECT_LE(Por.TransitionsTaken, Full.TransitionsTaken) << NM.Tag;
    }
  }
}

//===----------------------------------------------------------------------===//
// Dekker litmus: the substrate's SC-vs-TSO divergence in four cells.
//===----------------------------------------------------------------------===//

TEST(Dekker, StoreBufferingDivergesExactlyUnderTsoWithoutFences) {
  auto Fenced = makeDekkerModel({/*Fences=*/true});
  auto Bare = makeDekkerModel({/*Fences=*/false});
  EXPECT_EQ(checkModel(*Fenced, config(MemSemantics::SC)).V, Verdict::Pass);
  EXPECT_EQ(checkModel(*Fenced, config(MemSemantics::TSO)).V, Verdict::Pass);
  EXPECT_EQ(checkModel(*Bare, config(MemSemantics::SC)).V, Verdict::Pass);

  CheckResult R = checkModel(*Bare, config(MemSemantics::TSO));
  ASSERT_EQ(R.V, Verdict::Violation);
  EXPECT_NE(std::string(R.ViolationKind).find("mutual exclusion"),
            std::string::npos);
  // Shortest witness: both stores sit in their buffers, both loads read
  // the other flag's stale 0 from memory, and both threads stand at the
  // critical-section pc — 4 scheduled actions, no flush ever needed.
  EXPECT_EQ(R.Trace.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Golden counterexample for the seeded PR-3 blind-store FLC release race.
//===----------------------------------------------------------------------===//

TEST(SoleroModel, BlindStoreReleaseGoldenTrace) {
  auto M = makeSoleroModel({/*Writers=*/2, /*Reader=*/true,
                            /*BlindStoreRelease=*/true});
  CheckConfig C = config(MemSemantics::SC);
  CheckResult R = checkModel(*M, C);
  ASSERT_EQ(R.V, Verdict::Violation);
  EXPECT_STREQ(R.ViolationKind, DeadlockViolation);

  // BFS-minimized and fully deterministic, so the whole rendering is a
  // golden. The schedule: T0 acquires and loads a clean word for its
  // release decision; T1 and the reader (T2) then set FLC and park; T0's
  // blind store clobbers the FLC bit and publishes the free word without
  // a notify, leaving both contenders parked forever.
  const char *Expected =
      "counterexample (solero, SC): lost wakeup: unfinished threads are "
      "blocked forever (no enabled transition and no pending signal)\n"
      "  init              | word=00 x=0 y=0 sig=0 pc=0,0,13\n"
      "  step  1  T0 enter.load     | word=00 x=0 y=0 sig=0 pc=1,0,13\n"
      "  step  2  T0 enter.cas      | word=05 x=0 y=0 sig=0 pc=2,0,13\n"
      "  step  3  T0 cs.store-x     | word=05 x=1 y=0 sig=0 pc=3,0,13\n"
      "  step  4  T0 cs.store-y     | word=05 x=1 y=1 sig=0 pc=4,0,13\n"
      "  step  5  T0 rel.load       | word=05 x=1 y=1 sig=0 pc=6,0,13\n"
      "  step  6  T1 enter.load     | word=05 x=1 y=1 sig=0 pc=6,9,13\n"
      "  step  7  T1 flc.load       | word=05 x=1 y=1 sig=0 pc=6,10,13\n"
      "  step  8  T1 flc.cas        | word=07 x=1 y=1 sig=0 pc=6,11,13\n"
      "  step  9  T1 park.arm       | word=07 x=1 y=1 sig=0 pc=6,12,13\n"
      "  step 10  T2 spec.load      | word=07 x=1 y=1 sig=0 pc=6,12,0\n"
      "  step 11  T2 enter.load     | word=07 x=1 y=1 sig=0 pc=6,12,9\n"
      "  step 12  T2 flc.load       | word=07 x=1 y=1 sig=0 pc=6,12,11\n"
      "  step 13  T2 park.arm       | word=07 x=1 y=1 sig=0 pc=6,12,12\n"
      "  step 14  T0 rel.blind-store | word=10 x=1 y=1 sig=0 pc=18,12,12\n";
  EXPECT_EQ(renderTrace(*M, C, R), Expected);

  // The shipped release CAS closes the race: exhaustive pass both ways.
  auto Fixed = makeSoleroModel({2, true, false});
  EXPECT_EQ(checkModel(*Fixed, config(MemSemantics::SC)).V, Verdict::Pass);
  EXPECT_EQ(checkModel(*Fixed, config(MemSemantics::TSO)).V, Verdict::Pass);
}

TEST(BravoModel, RevocationFenceRemovalFailsOnlyUnderTso) {
  auto Bad = makeBravoModel({/*Readers=*/2, /*NoRevocationFence=*/true});
  EXPECT_EQ(checkModel(*Bad, config(MemSemantics::SC)).V, Verdict::Pass);
  CheckResult R = checkModel(*Bad, config(MemSemantics::TSO));
  ASSERT_EQ(R.V, Verdict::Violation);
  EXPECT_NE(std::string(R.ViolationKind).find("bias revocation"),
            std::string::npos);
  // The witness must include at least one store-buffer flush: the bug IS
  // the buffered RBias clear (or slot publish) being read stale.
  bool SawFlush = false;
  for (const TraceStep &T : R.Trace)
    SawFlush |= T.Flush;
  EXPECT_TRUE(SawFlush);
}

//===----------------------------------------------------------------------===//
// Two-lock store buffering: what the seq_cst releases are for.
//===----------------------------------------------------------------------===//

TEST(SoleroSbModel, PlainReleaseFailsOnlyWhereRmwsDoNotDrain) {
  auto Bad = makeSoleroSbModel({SoleroSbVariant::PlainRelease});
  // On SC and x86-TSO every acquisition is a locked RMW, so a holder is
  // visible before its later loads: no fence or seq_cst release needed.
  EXPECT_EQ(checkModel(*Bad, config(MemSemantics::SC)).V, Verdict::Pass);
  EXPECT_EQ(checkModel(*Bad, config(MemSemantics::TSO)).V, Verdict::Pass);

  CheckConfig C = config(MemSemantics::RA);
  CheckResult R = checkModel(*Bad, C);
  ASSERT_EQ(R.V, Verdict::Violation);
  EXPECT_NE(std::string(R.ViolationKind).find("store buffering"),
            std::string::npos);
  // Shortest witness: each thread runs its whole program while its
  // acquiring CAS, data store and release wait in its own buffer — 8
  // actions each, no flush. The last state shows both releases (the
  // free word 0x10 on lock 0 and on lock 1) still buffered.
  EXPECT_EQ(R.Trace.size(), 16u);
  for (const TraceStep &T : R.Trace)
    EXPECT_FALSE(T.Flush);
  std::string Rendered = renderTrace(*Bad, C, R);
  std::string Last = Rendered.substr(Rendered.rfind("step 16"));
  EXPECT_NE(Last.find("buf=0:05,2:01,0:10|1:09,3:01,1:10|-"),
            std::string::npos)
      << Last;
}

TEST(SoleroSbModel, ShippedAndEntryFencePassEverywhere) {
  auto Shipped = makeSoleroSbModel({SoleroSbVariant::Shipped});
  auto Fenced = makeSoleroSbModel({SoleroSbVariant::EntryFence});
  for (MemSemantics Mem :
       {MemSemantics::SC, MemSemantics::TSO, MemSemantics::RA}) {
    EXPECT_EQ(checkModel(*Shipped, config(Mem)).V, Verdict::Pass)
        << memSemanticsName(Mem);
    EXPECT_EQ(checkModel(*Fenced, config(Mem)).V, Verdict::Pass)
        << memSemanticsName(Mem);
  }
}

//===----------------------------------------------------------------------===//
// Tier-1 bounded-exhaustive run of the shipped protocol models.
//===----------------------------------------------------------------------===//

TEST(ShippedProtocols, ExhaustivelyPassUnderScAndTso) {
  struct Row {
    const char *Tag;
    std::unique_ptr<ProtocolModel> M;
    uint64_t MinStatesTso; // guards against the model degenerating
  };
  std::vector<Row> Rows;
  Rows.push_back({"solero", makeSoleroModel({}), 100000});
  Rows.push_back({"solero-sb", makeSoleroSbModel({}), 3000});
  Rows.push_back({"tasuki", makeTasukiModel({}), 500});
  Rows.push_back({"bravo", makeBravoModel({}), 1500});
  for (const Row &R : Rows) {
    for (MemSemantics Mem : {MemSemantics::SC, MemSemantics::TSO}) {
      CheckResult Res = checkModel(*R.M, config(Mem));
      EXPECT_EQ(Res.V, Verdict::Pass)
          << R.Tag << " under " << memSemanticsName(Mem) << ": "
          << (Res.ViolationKind ? Res.ViolationKind : "incomplete");
      if (Mem == MemSemantics::TSO) {
        EXPECT_GE(Res.StatesVisited, R.MinStatesTso) << R.Tag;
      }
    }
  }
}

TEST(Checker, DepthBoundReportsIncompleteNotPass) {
  auto M = makeSoleroModel({});
  CheckConfig C = config(MemSemantics::SC);
  C.DepthBound = 8; // far below the ~38 the full exploration needs
  EXPECT_EQ(checkModel(*M, C).V, Verdict::Incomplete);
}

} // namespace
