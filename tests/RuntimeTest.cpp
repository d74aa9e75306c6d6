//===- tests/RuntimeTest.cpp - Runtime substrate tests --------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "runtime/AsyncEventBus.h"
#include "runtime/MonitorTable.h"
#include "runtime/PerThreadSlots.h"
#include "runtime/ReadGuard.h"
#include "runtime/RuntimeContext.h"
#include "runtime/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

using namespace solero;

TEST(ThreadRegistry, TidBitsAreStableAndAligned) {
  ThreadState &TS = ThreadRegistry::current();
  EXPECT_NE(TS.tidBits(), 0u);
  EXPECT_EQ(TS.tidBits() & lockword::LowBitsMask, 0u);
  EXPECT_EQ(&TS, &ThreadRegistry::current()); // stable per thread
}

TEST(ThreadRegistry, DistinctThreadsGetDistinctIds) {
  // All threads must be alive simultaneously: slots are recycled at thread
  // exit, so ids are only unique among concurrently-live threads.
  constexpr int N = 8;
  std::vector<uint64_t> Ids(N);
  std::atomic<int> Registered{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I < N; ++I)
    Ts.emplace_back([&, I] {
      Ids[I] = ThreadRegistry::current().tidBits();
      Registered.fetch_add(1);
      while (Registered.load() < N)
        std::this_thread::yield();
    });
  for (auto &T : Ts)
    T.join();
  std::set<uint64_t> Unique(Ids.begin(), Ids.end());
  EXPECT_EQ(Unique.size(), static_cast<std::size_t>(N));
  EXPECT_EQ(Unique.count(ThreadRegistry::current().tidBits()), 0u);
}

TEST(ThreadRegistry, SlotsAreRecycledAfterThreadExit) {
  uint64_t FirstId = 0;
  std::thread A([&] { FirstId = ThreadRegistry::current().tidBits(); });
  A.join();
  uint64_t SecondId = 0;
  std::thread B([&] { SecondId = ThreadRegistry::current().tidBits(); });
  B.join();
  EXPECT_EQ(FirstId, SecondId);
}

TEST(ThreadRegistry, CountersSurviveThreadExit) {
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  std::thread T([&] { ThreadRegistry::current().Counters.WriteEntries += 5; });
  T.join();
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.WriteEntries - Before.WriteEntries, 5u);
}

TEST(ThreadRegistry, ReadRecordStackPushPop) {
  ThreadState &TS = ThreadRegistry::current();
  ObjectHeader H1, H2;
  EXPECT_EQ(TS.readDepth(), 0u);
  std::size_t D1 = TS.pushRead(H1, 100);
  std::size_t D2 = TS.pushRead(H2, 200);
  EXPECT_EQ(D1, 0u);
  EXPECT_EQ(D2, 1u);
  EXPECT_EQ(TS.readRecord(1).Header, &H2);
  TS.popRead();
  TS.popRead();
  EXPECT_EQ(TS.readDepth(), 0u);
}

TEST(ThreadRegistry, ReadHoldsGrowAndReleaseInAnyOrder) {
  ThreadState &TS = ThreadRegistry::current();
  int A, B, C;
  EXPECT_FALSE(TS.dropReadHold(&A));
  TS.addReadHold(&A);
  TS.addReadHold(&B);
  TS.addReadHold(&A);
  TS.addReadHold(&C);
  EXPECT_EQ(TS.readHoldsOn(&A), 2u);
  EXPECT_EQ(TS.readHoldsOn(&B), 1u);
  EXPECT_TRUE(TS.dropReadHold(&B)); // from the middle
  EXPECT_EQ(TS.readHoldsOn(&B), 0u);
  EXPECT_FALSE(TS.dropReadHold(&B));
  EXPECT_TRUE(TS.dropReadHold(&A));
  EXPECT_TRUE(TS.dropReadHold(&C));
  EXPECT_TRUE(TS.dropReadHold(&A));
  EXPECT_EQ(TS.readHoldsOn(&A), 0u);
  EXPECT_EQ(TS.readHoldsOn(&C), 0u);
}

TEST(PerThreadSlots, EveryCellOwnsItsCacheLine) {
  PerThreadSlots<uint32_t> Cells;
  for (uint32_t S = 0; S + 1 < ThreadRegistry::MaxThreads; ++S) {
    auto A = reinterpret_cast<uintptr_t>(&Cells[S]);
    auto B = reinterpret_cast<uintptr_t>(&Cells[S + 1]);
    ASSERT_EQ(A % CacheLineSize, 0u);
    ASSERT_GE(B - A, CacheLineSize);
  }
  EXPECT_EQ(Cells[ThreadRegistry::MaxThreads - 1], 0u); // value-initialized
  Cells.mine() = 7;
  EXPECT_EQ(Cells[ThreadRegistry::current().slot()], 7u);
  EXPECT_GT(Cells.usedSlots(), ThreadRegistry::current().slot());
  EXPECT_LE(Cells.usedSlots(), ThreadRegistry::MaxThreads);
}

TEST(MonitorTable, StableMappingPerObject) {
  MonitorTable T;
  ObjectHeader A, B;
  OsMonitor &MA = T.monitorFor(A);
  OsMonitor &MB = T.monitorFor(B);
  EXPECT_NE(&MA, &MB);
  EXPECT_EQ(&T.monitorFor(A), &MA);
  EXPECT_EQ(&T.byIndex(MA.index()), &MA);
  EXPECT_EQ(T.lookup(A), &MA);
  ObjectHeader C;
  EXPECT_EQ(T.lookup(C), nullptr);
  EXPECT_EQ(T.size(), 2u);
}

TEST(MonitorTable, InflatedWordRoundTripsThroughTable) {
  MonitorTable T;
  ObjectHeader A;
  OsMonitor &M = T.monitorFor(A);
  uint64_t W = M.inflatedWord();
  EXPECT_TRUE(lockword::isInflated(W));
  EXPECT_EQ(&T.byIndex(lockword::monitorIndex(W)), &M);
}

TEST(AsyncEventBus, PostSetsPollFlags) {
  ThreadState &TS = ThreadRegistry::current();
  TS.PollFlag.store(0);
  AsyncEventBus::postToAllThreads();
  EXPECT_EQ(TS.PollFlag.load(), 1u);
  TS.PollFlag.store(0);
}

TEST(AsyncEventBus, TickerRunsPeriodically) {
  AsyncEventBus Bus;
  ThreadState &TS = ThreadRegistry::current();
  TS.PollFlag.store(0);
  Bus.start(std::chrono::microseconds(200));
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(500);
  while (TS.PollFlag.load() == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  EXPECT_EQ(TS.PollFlag.load(), 1u);
  Bus.stop();
  EXPECT_GE(Bus.tickCount(), 1u);
  TS.PollFlag.store(0);
}

TEST(ReadGuard, CheckpointNoRecordsIsCheap) {
  ThreadState &TS = ThreadRegistry::current();
  TS.PollFlag.store(1);
  EXPECT_NO_THROW(speculationCheckpoint());
  EXPECT_EQ(TS.PollFlag.load(), 0u); // consumed
}

TEST(ReadGuard, CheckpointThrowsForInvalidatedRecord) {
  ThreadState &TS = ThreadRegistry::current();
  ObjectHeader H;
  H.word().store(0x100);
  TS.pushRead(H, 0x100);
  H.word().store(0x200); // a "writer" moved the counter
  TS.PollFlag.store(1);
  bool Thrown = false;
  try {
    speculationCheckpoint();
  } catch (SpeculationFault &F) {
    Thrown = true;
    EXPECT_EQ(F.Depth, 0u);
  }
  TS.popRead();
  EXPECT_TRUE(Thrown);
}

TEST(ReadGuard, CheckpointReportsOutermostFailure) {
  ThreadState &TS = ThreadRegistry::current();
  ObjectHeader H1, H2;
  H1.word().store(0x100);
  H2.word().store(0x100);
  TS.pushRead(H1, 0x100);
  TS.pushRead(H2, 0x100);
  H1.word().store(0x200); // outer invalidated
  H2.word().store(0x200); // inner invalidated too
  TS.PollFlag.store(1);
  bool Thrown = false;
  try {
    speculationCheckpoint();
  } catch (SpeculationFault &F) {
    Thrown = true;
    EXPECT_EQ(F.Depth, 0u); // outermost wins
  }
  TS.popRead();
  TS.popRead();
  EXPECT_TRUE(Thrown);
}

TEST(RuntimeContext, EventBusStartsWhenConfigured) {
  RuntimeConfig C;
  C.AsyncEventPeriod = std::chrono::microseconds(500);
  C.StartEventBus = true;
  RuntimeContext Ctx(C);
  EXPECT_TRUE(Ctx.eventBus().running());
}

TEST(RuntimeContext, EventBusCanBeDisabled) {
  RuntimeConfig C;
  C.StartEventBus = false;
  RuntimeContext Ctx(C);
  EXPECT_FALSE(Ctx.eventBus().running());
}
