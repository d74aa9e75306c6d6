//===- tests/ReadWriteLockTest.cpp - RW lock tests ------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "locks/ReadWriteLock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

using namespace solero;

namespace {

RuntimeConfig quietConfig() {
  RuntimeConfig C;
  C.StartEventBus = false;
  return C;
}

class ReadWriteLockTest : public ::testing::Test {
protected:
  ReadWriteLockTest() : Ctx(quietConfig()), L(Ctx) {}
  RuntimeContext Ctx;
  ReadWriteLock L;
};

} // namespace

TEST_F(ReadWriteLockTest, MultipleReadersShareTheLock) {
  L.readLock();
  L.readLock(); // reentrant
  EXPECT_EQ(L.readerCount(), 2u);
  std::thread Other([&] {
    L.readLock();
    EXPECT_EQ(L.readerCount(), 3u);
    L.readUnlock();
  });
  Other.join();
  L.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, WriterIsExclusive) {
  L.writeLock();
  EXPECT_TRUE(L.writeHeldByCurrentThread());
  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    Stage.store(1);
    L.readLock();
    Stage.store(2);
    L.readUnlock();
  });
  while (Stage.load() != 1)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Stage.load(), 1); // reader still excluded
  L.writeUnlock();
  Reader.join();
  EXPECT_EQ(Stage.load(), 2);
}

TEST_F(ReadWriteLockTest, WriterWaitsForReaders) {
  L.readLock();
  std::atomic<int> Stage{0};
  std::thread Writer([&] {
    Stage.store(1);
    L.writeLock();
    Stage.store(2);
    L.writeUnlock();
  });
  while (Stage.load() != 1)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Stage.load(), 1);
  L.readUnlock();
  Writer.join();
  EXPECT_EQ(Stage.load(), 2);
}

TEST_F(ReadWriteLockTest, WriteLockIsReentrant) {
  L.writeLock();
  L.writeLock();
  L.writeLock();
  EXPECT_TRUE(L.writeHeldByCurrentThread());
  L.writeUnlock();
  L.writeUnlock();
  EXPECT_TRUE(L.writeHeldByCurrentThread());
  L.writeUnlock();
  EXPECT_FALSE(L.writeHeldByCurrentThread());
}

TEST_F(ReadWriteLockTest, DowngradeWriteToRead) {
  L.writeLock();
  L.readLock(); // allowed while holding write
  L.writeUnlock();
  // Still a reader: writers must wait.
  EXPECT_EQ(L.readerCount(), 1u);
  std::atomic<bool> Acquired{false};
  std::thread Writer([&] {
    L.writeLock();
    Acquired.store(true);
    L.writeUnlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(Acquired.load());
  L.readUnlock();
  Writer.join();
  EXPECT_TRUE(Acquired.load());
}

TEST_F(ReadWriteLockTest, MutualExclusionMixedLoad) {
  constexpr int Threads = 4, Iters = 3000;
  int64_t Data = 0; // protected by write mode
  std::atomic<bool> TornRead{false};
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      for (int I = 0; I < Iters; ++I) {
        if (T == 0) {
          L.synchronizedWrite([&] { ++Data; });
        } else {
          int64_t Seen = L.synchronizedReadOnly(
              [&](ReadGuard &) { return Data; });
          if (Seen < 0 || Seen > Iters)
            TornRead.store(true);
        }
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Data, Iters);
  EXPECT_FALSE(TornRead.load());
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, SynchronizedHelpersReleaseOnException) {
  EXPECT_THROW(
      L.synchronizedWrite([&]() -> int { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_FALSE(L.writeHeldByCurrentThread());
  EXPECT_THROW(L.synchronizedReadOnly(
                   [&](ReadGuard &) -> int { throw std::runtime_error("y"); }),
               std::runtime_error);
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, ReaderCountSaturationAborts) {
  // The reader count lives in 16 bits of the packed word; hold 2^16-1 and
  // the next acquisition must abort with a diagnostic instead of silently
  // overflowing into the writer-recursion bits (which would corrupt the
  // writer side and break mutual exclusion).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr uint32_t Max = 0xffff;
  for (uint32_t I = 0; I < Max; ++I)
    L.readLock();
  EXPECT_EQ(L.readerCount(), Max);
  EXPECT_DEATH(L.readLock(), "reader count saturated");
  for (uint32_t I = 0; I < Max; ++I)
    L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, ReadAcquisitionCountsAtomicRmws) {
  // The cost model the paper cites: every read acquisition performs an
  // atomic RMW (unlike SOLERO's elided readers).
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  for (int I = 0; I < 100; ++I)
    L.synchronizedReadOnly([](ReadGuard &) { return 0; });
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_GE(After.AtomicRmws - Before.AtomicRmws, 200u); // lock + unlock
}

TEST_F(ReadWriteLockTest, ManyReadHoldsReleasedOutOfOrder) {
  // Read holds are kept per thread, so one thread may hold read on more
  // locks than the read-record stack is deep, nest some of them, and
  // release them in any order.
  constexpr std::size_t N = 200;
  static_assert(N > ThreadState::MaxReadDepth);
  std::vector<std::unique_ptr<ReadWriteLock>> Locks;
  for (std::size_t I = 0; I < N; ++I)
    Locks.push_back(std::make_unique<ReadWriteLock>(Ctx));
  auto Holds = [](std::size_t I) { return I % 3 == 0 ? 2u : 1u; };
  for (std::size_t I = 0; I < N; ++I)
    for (uint32_t H = 0; H < Holds(I); ++H)
      Locks[I]->readLock();
  ThreadState &TS = ThreadRegistry::current();
  for (std::size_t I = 0; I < N; ++I) {
    EXPECT_EQ(TS.readHoldsOn(Locks[I].get()), Holds(I));
    EXPECT_EQ(Locks[I]->readerCount(), Holds(I));
  }
  // 7 is coprime to 200, so this visits every lock once, in neither
  // acquisition order nor its reverse.
  for (std::size_t K = 0; K < N; ++K) {
    std::size_t I = (K * 7) % N;
    for (uint32_t H = 0; H < Holds(I); ++H)
      Locks[I]->readUnlock();
    EXPECT_EQ(Locks[I]->readerCount(), 0u);
    EXPECT_EQ(TS.readHoldsOn(Locks[I].get()), 0u);
  }
  for (std::size_t I = 0; I < N; ++I) {
    Locks[I]->writeLock(); // nothing left holding any of them
    Locks[I]->writeUnlock();
  }
}

TEST_F(ReadWriteLockTest, ReentrantReaderBypassesWaitingWriter) {
  L.readLock();
  std::atomic<bool> WriterIn{false}, FreshIn{false};
  std::thread Writer([&] {
    L.writeLock();
    WriterIn.store(true);
    L.writeUnlock();
  });
  while (L.waitingWriters() == 0)
    std::this_thread::yield();
  // The writer gate is up: a reader without a hold queues behind it...
  std::thread Fresh([&] {
    L.readLock();
    FreshIn.store(true);
    L.readUnlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(FreshIn.load());
  // ...but a reentrant reader passes it, or it would deadlock against the
  // writer that is waiting for its first hold.
  L.readLock();
  EXPECT_EQ(L.readerCount(), 2u);
  EXPECT_FALSE(WriterIn.load());
  L.readUnlock();
  L.readUnlock();
  Writer.join();
  Fresh.join();
  EXPECT_TRUE(WriterIn.load());
  EXPECT_TRUE(FreshIn.load());
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, ReadUnlockWithoutHoldAborts) {
  // A hold on another lock does not count: the check is per lock.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ReadWriteLock Other(Ctx);
  Other.readLock();
  EXPECT_DEATH(L.readUnlock(), "readUnlock without a read hold");
  Other.readUnlock();
}
