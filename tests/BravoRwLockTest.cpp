//===- tests/BravoRwLockTest.cpp - BRAVO biased RW lock tests -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The BRAVO layer's contract on top of ReadWriteLock: same reentrancy and
/// downgrade semantics in every bias state, writer revocation that really
/// waits out published readers, the adaptive inhibit window, and the cost
/// model (biased reads perform no shared-state RMW).
///
//===----------------------------------------------------------------------===//

#include "locks/BravoRwLock.h"

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

class BravoRwLockTest : public ::testing::Test {
protected:
  BravoRwLockTest() : Ctx(quietConfig()), L(Ctx) {}

  /// Bias starts false and is enabled on the reader slow path; one
  /// read/unlock round trip arms the fast path for everything after.
  void armBias() {
    L.readLock();
    L.readUnlock();
    ASSERT_TRUE(L.readBiased());
  }

  RuntimeContext Ctx;
  BravoRwLock L;
};

} // namespace

TEST_F(BravoRwLockTest, ReaderReentrancyAcrossBiasStates) {
  // First acquisition takes the underlying (unbiased) path and enables the
  // bias; the nested one lands on the biased fast path. Both unwind.
  EXPECT_FALSE(L.readBiased());
  L.readLock();
  EXPECT_TRUE(L.readBiased());
  L.readLock(); // nested: biased publication under an underlying hold
  EXPECT_EQ(L.readerCount(), 2u);
  L.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);

  // Now fully biased: nesting stays on the fast path under the single
  // publication, which counts once.
  L.readLock();
  L.readLock();
  L.readLock();
  EXPECT_EQ(L.readerCount(), 1u);
  L.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 1u);
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, WriterRevokesBiasAndWaitsOutPublishedReaders) {
  armBias();
  L.readLock(); // biased publication in the visible-readers table
  EXPECT_EQ(L.readerCount(), 1u);

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
  // The writer cleared the bias but must still be draining our slot.
  EXPECT_EQ(Stage.load(), 1);
  EXPECT_FALSE(L.readBiased());
  L.readUnlock();
  Writer.join();
  EXPECT_EQ(Stage.load(), 2);
  EXPECT_GE(L.revocations(), 1u);
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, DowngradeWriteToRead) {
  armBias();
  L.writeLock(); // revokes the bias
  EXPECT_FALSE(L.readBiased());
  L.readLock(); // downgrade read: must not re-enable bias while write held
  EXPECT_FALSE(L.readBiased());
  L.writeUnlock();
  // Still a reader: a competing writer has to wait for us.
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
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, WriteStormKeepsBiasDisabled) {
  // With a huge inhibit multiplier one revocation parks the bias for the
  // rest of the test, so a write-heavy phase pays the table scan exactly
  // once and then runs at plain-RWLock speed.
  BravoConfig Cfg;
  Cfg.InhibitMultiplier = 1u << 30;
  BravoRwLock Stormy(Ctx, Cfg);
  Stormy.readLock();
  Stormy.readUnlock();
  ASSERT_TRUE(Stormy.readBiased());
  for (int I = 0; I < 200; ++I) {
    Stormy.writeLock();
    Stormy.writeUnlock();
    Stormy.readLock(); // slow path; must not re-arm inside the window
    Stormy.readUnlock();
  }
  EXPECT_EQ(Stormy.revocations(), 1u);
  EXPECT_FALSE(Stormy.readBiased());
}

TEST_F(BravoRwLockTest, BiasDisabledConfigDegeneratesToUnderlying) {
  BravoConfig Cfg;
  Cfg.BiasEnabled = false;
  BravoRwLock Plain(Ctx, Cfg);
  Plain.readLock();
  EXPECT_FALSE(Plain.readBiased());
  EXPECT_EQ(Plain.readerCount(), 1u);
  Plain.readUnlock();
  Plain.writeLock();
  Plain.writeUnlock();
  EXPECT_EQ(Plain.revocations(), 0u);
}

TEST_F(BravoRwLockTest, BiasedReadsPerformNoSharedStateRmw) {
  // The whole point of the layer: while biased, a read acquisition is two
  // plain stores (publish, retire) and zero RMWs on shared lock state.
  armBias();
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  for (int I = 0; I < 100; ++I)
    L.synchronizedReadOnly([](ReadGuard &) { return 0; });
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.AtomicRmws - Before.AtomicRmws, 0u);
  EXPECT_GE(After.LockWordStores - Before.LockWordStores, 200u);
}

TEST_F(BravoRwLockTest, MutualExclusionMixedLoad) {
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
          int64_t Seen =
              L.synchronizedReadOnly([&](ReadGuard &) { return Data; });
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

TEST_F(BravoRwLockTest, SynchronizedHelpersReleaseOnException) {
  armBias();
  EXPECT_THROW(
      L.synchronizedWrite([&]() -> int { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_FALSE(L.writeHeldByCurrentThread());
  EXPECT_THROW(L.synchronizedReadOnly(
                   [&](ReadGuard &) -> int { throw std::runtime_error("y"); }),
               std::runtime_error);
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, TwoLocksShareAThreadWithoutCrosstalk) {
  // Distinct locks hash to (usually distinct) slots in the same
  // thread-owned group; even on a collision the second lock just takes the
  // underlying path. Either way the counts stay per-lock.
  BravoRwLock Other(Ctx);
  armBias();
  Other.readLock();
  Other.readUnlock();
  L.readLock();
  Other.readLock();
  EXPECT_EQ(L.readerCount(), 1u);
  EXPECT_EQ(Other.readerCount(), 1u);
  Other.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
  EXPECT_EQ(Other.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, SlotCollisionSendsSecondLockDownTheSlowPath) {
  // Allocate locks until one lands on the very slot of this thread's group
  // that L uses. While L publishes there, the colliding lock must queue on
  // its underlying lock, in both release orders, and leave nothing behind.
  BravoReaderTable &Table = BravoReaderTable::instance();
  BravoReaderTable::Slot *Shared = &Table.slotFor(&L).Published;
  std::vector<std::unique_ptr<BravoRwLock>> Pool;
  BravoRwLock *Other = nullptr;
  while (!Other) {
    ASSERT_LT(Pool.size(), 4096u) << "no lock hashed onto L's slot";
    Pool.push_back(std::make_unique<BravoRwLock>(Ctx));
    if (&Table.slotFor(Pool.back().get()).Published == Shared)
      Other = Pool.back().get();
  }
  armBias();
  Other->readLock();
  Other->readUnlock();
  ASSERT_TRUE(Other->readBiased());

  RelaxedCounter &Rmws = ThreadRegistry::current().Counters.AtomicRmws;
  for (bool OtherReleasesFirst : {true, false}) {
    SCOPED_TRACE(OtherReleasesFirst ? "Other released first"
                                    : "L released first");
    L.readLock();
    ASSERT_EQ(Shared->load(std::memory_order_relaxed), &L);
    uint64_t RmwsBefore = Rmws;
    Other->readLock();
    Other->readLock(); // nested: stays on the underlying path too
    EXPECT_GE(Rmws - RmwsBefore, 2u); // underlying reader-count CASes
    EXPECT_EQ(Shared->load(std::memory_order_relaxed), &L);
    EXPECT_EQ(Table.countReadersOf(Other), 0u);
    EXPECT_EQ(Other->readerCount(), 2u);
    EXPECT_EQ(L.readerCount(), 1u);
    Other->readUnlock();
    if (OtherReleasesFirst) {
      Other->readUnlock();
      L.readUnlock();
    } else {
      L.readUnlock();
      EXPECT_EQ(Shared->load(std::memory_order_relaxed), nullptr);
      Other->readUnlock(); // slot now empty: still the underlying release
    }
    EXPECT_EQ(Shared->load(std::memory_order_relaxed), nullptr);
    EXPECT_EQ(L.readerCount(), 0u);
    EXPECT_EQ(Other->readerCount(), 0u);
  }
  // Both locks still admit writers, so no hold leaked on either path.
  L.writeLock();
  L.writeUnlock();
  Other->writeLock();
  Other->writeUnlock();
}

TEST_F(BravoRwLockTest, SlowOuterHoldAndBiasedInnerHoldReleaseOnOwnPaths) {
  // An outer hold taken while bias is off sits in the underlying lock; once
  // bias re-arms, an inner hold publishes in the table. Each unlock must
  // retire its own kind of hold.
  BravoConfig Cfg;
  Cfg.InhibitMultiplier = 0; // the inhibit window is the 1 us floor
  BravoRwLock B(Ctx, Cfg);
  BravoReaderTable &Table = BravoReaderTable::instance();
  B.readLock();
  B.readUnlock();
  ASSERT_TRUE(B.readBiased());
  B.writeLock(); // revokes
  B.writeUnlock();
  ASSERT_FALSE(B.readBiased());

  B.readLock(); // outer: bias off, so the underlying path
  EXPECT_EQ(Table.countReadersOf(&B), 0u);
  EXPECT_EQ(B.readerCount(), 1u);
  // Slow-path round trips re-arm the bias once the window has passed.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int I = 0; I < 100000 && !B.readBiased(); ++I) {
    B.readLock();
    B.readUnlock();
  }
  ASSERT_TRUE(B.readBiased());
  EXPECT_EQ(B.readerCount(), 1u);

  B.readLock(); // inner: biased publication under the underlying hold
  EXPECT_EQ(Table.countReadersOf(&B), 1u);
  EXPECT_EQ(B.readerCount(), 2u);
  B.readUnlock(); // retires the publication, not the underlying hold
  EXPECT_EQ(Table.countReadersOf(&B), 0u);
  EXPECT_EQ(B.readerCount(), 1u);
  B.readUnlock(); // the underlying hold
  EXPECT_EQ(B.readerCount(), 0u);
  B.writeLock();
  B.writeUnlock();
}
