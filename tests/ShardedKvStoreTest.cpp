//===- tests/ShardedKvStoreTest.cpp - Sharded KV store tests --------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// kv/ShardedKvStore.h across the whole lock-policy portfolio: point ops
/// and scan consistency are typed over every policy, and so is the SCAN
/// kernel's reference check (every slot state, resizes, wrapping sums);
/// the resize-under-readers, scan-under-churn and tombstone-reuse
/// regressions run under SOLERO, the policy whose optimistic readers make
/// them dangerous.
///
//===----------------------------------------------------------------------===//

#include "kv/ShardedKvStore.h"
#include "support/Rng.h"
#include "workloads/LockPolicies.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace solero;
using namespace solero::kv;

namespace {

template <typename Policy> class ShardedKvStoreTest : public ::testing::Test {
protected:
  RuntimeContext Ctx;
};

using AllPolicies = ::testing::Types<TasukiPolicy, RwPolicy, BravoRwPolicy,
                                     SoleroPolicy, SeqLockPolicy>;

} // namespace

TYPED_TEST_SUITE(ShardedKvStoreTest, AllPolicies);

TYPED_TEST(ShardedKvStoreTest, PointOperationsRoundTrip) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{4, 16});

  EXPECT_FALSE(Store.get(1).has_value());
  EXPECT_TRUE(Store.put(1, 100));
  EXPECT_FALSE(Store.put(1, 200)); // overwrite, not insert
  ASSERT_TRUE(Store.get(1).has_value());
  EXPECT_EQ(*Store.get(1), 200u);

  EXPECT_TRUE(Store.put(2, 300));
  EXPECT_EQ(Store.size(), 2u);

  EXPECT_TRUE(Store.remove(1));
  EXPECT_FALSE(Store.remove(1));
  EXPECT_FALSE(Store.get(1).has_value());
  EXPECT_EQ(Store.size(), 1u);

  // Reinsert after a tombstone: the slot revives.
  EXPECT_TRUE(Store.put(1, 400));
  EXPECT_EQ(*Store.get(1), 400u);
  EXPECT_TRUE(Store.quiesce());
}

TYPED_TEST(ShardedKvStoreTest, ScanAccountsForEveryLiveEntry) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{4, 16});

  constexpr uint64_t Keys = 500;
  uint64_t ExpectedSum = 0;
  for (uint64_t K = 0; K < Keys; ++K) {
    EXPECT_TRUE(Store.put(K, K * 3));
    ExpectedSum += K * 3;
  }
  for (uint64_t K = 0; K < Keys; K += 5) {
    EXPECT_TRUE(Store.remove(K));
    ExpectedSum -= K * 3;
  }

  uint64_t ScannedLive = 0, ScannedSum = 0;
  for (unsigned S = 0; S < Store.shardCount(); ++S) {
    ShardTable::ScanStats St = Store.scanShard(S);
    ScannedLive += St.LiveEntries;
    ScannedSum += St.ValueSum;
  }
  EXPECT_EQ(ScannedLive, Store.size());
  EXPECT_EQ(ScannedLive, Keys - Keys / 5);
  EXPECT_EQ(ScannedSum, ExpectedSum);
  EXPECT_TRUE(Store.quiesce());
}

// The SCAN kernel against a reference map: a seeded random mix of fresh
// puts, overwrites, removes and same-key revivals, plus crafted probe
// collisions that make a fresh key reuse the first tombstone on its chain.
// Payloads are full 64-bit values, so ValueSum wraps mod 2^64. After every
// batch each shard's ScanStats must equal the reference exactly.
TYPED_TEST(ShardedKvStoreTest, ScanMatchesReferenceThroughResizesAndPurges) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{2, 16});
  std::unordered_map<uint64_t, uint64_t> Ref;
  std::vector<uint64_t> Dead; // removed keys, candidates for revival
  Xoshiro256StarStar Rng(20261018);
  uint64_t NextFresh = 0;
  bool TopBitSeen = false;

  // Only put resizes: after each one, tell a growth (capacity doubled)
  // from a same-capacity tombstone purge.
  std::vector<std::size_t> Caps, Resizes;
  for (unsigned S = 0; S < Store.shardCount(); ++S) {
    Caps.push_back(Store.shardTable(S).capacity());
    Resizes.push_back(Store.shardTable(S).resizeCount());
  }
  bool Grew = false, Purged = false;
  auto NoteResize = [&](unsigned S) {
    const ShardTable &T = Store.shardTable(S);
    if (T.resizeCount() == Resizes[S])
      return;
    (T.capacity() > Caps[S] ? Grew : Purged) = true;
    Caps[S] = T.capacity();
    Resizes[S] = T.resizeCount();
  };

  auto Put = [&](uint64_t K, uint64_t V) {
    EXPECT_EQ(Store.put(K, V), !Ref.count(K)) << "key " << K;
    NoteResize(Store.shardOf(K));
    Ref[K] = V;
    TopBitSeen |= (V >> 63) != 0;
  };
  auto Remove = [&](uint64_t K) {
    EXPECT_EQ(Store.remove(K), Ref.erase(K) == 1) << "key " << K;
    Dead.push_back(K);
  };
  auto AnyLive = [&] {
    auto It = Ref.begin();
    std::advance(It, static_cast<long>(Rng.nextBounded(Ref.size())));
    return It->first;
  };
  auto CheckScans = [&](const char *Phase) {
    for (unsigned S = 0; S < Store.shardCount(); ++S) {
      ShardTable::ScanStats Want;
      for (const auto &[K, V] : Ref)
        if (Store.shardOf(K) == S) {
          ++Want.LiveEntries;
          Want.ValueSum += V;
        }
      ShardTable::ScanStats Got = Store.scanShard(S);
      EXPECT_EQ(Got.LiveEntries, Want.LiveEntries) << Phase << " shard " << S;
      EXPECT_EQ(Got.ValueSum, Want.ValueSum) << Phase << " shard " << S;
      EXPECT_EQ(Store.shardTable(S).liveCount(), Want.LiveEntries);
    }
  };
  // Fresh keys whose home slot in shard 0 is the same at its current
  // capacity: inserted in order they form one probe chain.
  auto CollidingKeys = [&](unsigned N) {
    std::size_t Mask = Store.shardTable(0).capacity() - 1;
    std::vector<uint64_t> Keys;
    uint64_t Home = 0;
    for (; Keys.size() < N; ++NextFresh) {
      if (Store.shardOf(NextFresh) != 0)
        continue;
      uint64_t H = mixKey(NextFresh) & Mask;
      if (Keys.empty())
        Home = H;
      if (H == Home)
        Keys.push_back(NextFresh);
    }
    return Keys;
  };

  CheckScans("empty");

  // One growing batch (insert-heavy) in four. The churning batches between
  // them pull the live count back down to a low water mark and then hold
  // it there; their tombstones pile up until they trip the load trigger
  // and purge at the same capacity.
  constexpr std::size_t LowWater = 48;
  for (int Batch = 0; Batch < 24; ++Batch) {
    bool Growing = Batch % 4 == 0;
    for (int Op = 0; Op < 200; ++Op) {
      uint64_t Roll = Rng.nextBounded(100);
      uint64_t V = Rng.next();
      bool Shrink = !Growing && Ref.size() > LowWater;
      if (Ref.empty() || Roll < (Growing ? 60 : Shrink ? 10 : 45)) {
        Put(NextFresh++, V);
      } else if (Roll < (Growing ? 80 : 55)) {
        Put(AnyLive(), V); // overwrite in place
      } else if (Roll < 90) {
        Remove(AnyLive());
      } else if (!Dead.empty()) {
        std::size_t I = Rng.nextBounded(Dead.size());
        uint64_t K = Dead[I];
        Dead[I] = Dead.back();
        Dead.pop_back();
        if (!Ref.count(K))
          Put(K, V); // same-key revival
      }
    }
    CheckScans(Growing ? "growing" : "churning");

    // First-tombstone reuse: A and B share a home slot; removing A leaves
    // a tombstone ahead of B, and fresh C (same home) must land in it.
    std::vector<uint64_t> Chain = CollidingKeys(3);
    Put(Chain[0], Rng.next());
    Put(Chain[1], Rng.next());
    Remove(Chain[0]);
    Put(Chain[2], Rng.next());
    CheckScans("tombstone reuse");
  }
  EXPECT_TRUE(Grew) << "no batch forced a growth resize";
  EXPECT_TRUE(Purged) << "no batch forced a same-capacity tombstone purge";
  EXPECT_TRUE(TopBitSeen) << "ValueSum never wrapped";

  // A shard holding only tombstones scans as empty.
  for (const auto &[K, V] : std::unordered_map<uint64_t, uint64_t>(Ref))
    Remove(K);
  CheckScans("tombstones only");
  EXPECT_TRUE(Store.quiesce());
}

TYPED_TEST(ShardedKvStoreTest, KeysSpreadAcrossEveryShard) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{16, 16});
  for (uint64_t K = 0; K < 2048; ++K)
    Store.put(K, K);
  for (unsigned S = 0; S < Store.shardCount(); ++S)
    EXPECT_GT(Store.shardTable(S).liveCount(), 0u)
        << "sequential keys never reached shard " << S;
}

// Deleting and reinserting must reuse tombstoned slots instead of growing
// the table: a same-size churn workload that doubled capacity on every
// load-factor trip would never stop allocating.
TEST(ShardedKvStore, TombstoneChurnDoesNotGrowTheTable) {
  RuntimeContext Ctx;
  ShardedKvStore<SoleroPolicy> Store(Ctx, KvStoreConfig{1, 64});

  // 20 live keys in a 64-slot shard: well under the 70% trigger.
  for (uint64_t K = 0; K < 20; ++K)
    Store.put(K, K);
  std::size_t Cap = Store.shardTable(0).capacity();
  EXPECT_EQ(Cap, 64u);

  // Thousands of delete/reinsert cycles. Same-key reinsertion revives the
  // tombstone in place; alternating keys exercise first-tombstone reuse.
  for (int Cycle = 0; Cycle < 3000; ++Cycle) {
    uint64_t K = static_cast<uint64_t>(Cycle % 20);
    EXPECT_TRUE(Store.remove(K));
    EXPECT_TRUE(Store.put(K, K + 1000));
  }
  // Live count is unchanged, and any resize the churn tripped must have
  // been a same-size tombstone purge, never a doubling.
  EXPECT_EQ(Store.size(), 20u);
  EXPECT_EQ(Store.shardTable(0).capacity(), Cap);
  // The leak oracle: exactly one pool cell per live entry after a drain.
  EXPECT_TRUE(Store.quiesce());
}

// One writer churns a shard (inserts that force growth, removes that leave
// tombstones, revivals) while a reader scans it. A validated section must
// see the scan's live count and the table's own count agree, every time.
TEST(ShardedKvStore, ValidatedScanAgreesWithLiveCountUnderChurn) {
  RuntimeContext Ctx;
  ShardedKvStore<SoleroPolicy> Store(Ctx, KvStoreConfig{1, 16});
  std::atomic<bool> ReaderStarted{false}, WriterDone{false};

  std::thread Writer([&] {
    while (!ReaderStarted.load(std::memory_order_acquire))
      std::this_thread::yield();
    Xoshiro256StarStar Rng(7);
    for (uint64_t Round = 0; Round < 200; ++Round) {
      uint64_t Base = Round % 4 * 1000;
      for (int I = 0; I < 600; ++I)
        Store.put(Base + Rng.nextBounded(1000), Rng.next());
      for (int I = 0; I < 600; ++I)
        Store.remove(Base + Rng.nextBounded(1000));
    }
    WriterDone.store(true, std::memory_order_release);
  });

  auto ScanAndCount = [&] {
    return Store.readShard(0, [](const ShardTable &T, ReadGuard &) {
      return std::pair<uint64_t, uint64_t>(T.scan().LiveEntries,
                                           T.liveCount());
    });
  };
  uint64_t Scans = 0, Mismatches = 0;
  ReaderStarted.store(true, std::memory_order_release);
  while (!WriterDone.load(std::memory_order_acquire)) {
    auto [Scanned, Live] = ScanAndCount();
    Mismatches += Scanned != Live;
    ++Scans;
  }
  Writer.join();

  EXPECT_EQ(Mismatches, 0u) << "of " << Scans << " scans";
  auto [Scanned, Live] = ScanAndCount();
  EXPECT_EQ(Scanned, Live);
  EXPECT_EQ(Scanned, Store.size());
  EXPECT_GT(Scanned, 0u);
  EXPECT_GT(Store.totalResizes(), 0u);
  EXPECT_TRUE(Store.quiesce());
}

// A doomed optimistic scan stops at the loop guard instead of finishing
// the pass (paper §3.3). With the guard polled once per slot, a 4096-slot
// shard reaches the 4096-step forced validation on its last slot. The
// async event bus is off, so nothing else can abort the pass early.
TEST(ShardedKvStore, DoomedScanAbortsAtTheForcedValidation) {
  RuntimeConfig Quiet;
  Quiet.StartEventBus = false;
  RuntimeContext Ctx(Quiet);
  ShardedKvStore<SoleroPolicy> Store(Ctx, KvStoreConfig{1, 4096});
  Store.put(1, 10);
  ASSERT_EQ(Store.shardTable(0).capacity(), 4096u);
  speculationCheckpoint(); // clears any poll flag left by earlier tests

  const ProtocolCounters &C = ThreadRegistry::current().Counters;
  uint64_t AbortsBefore = C.AsyncAborts;
  int Executions = 0;
  ShardTable::ScanStats St =
      Store.readShard(0, [&](const ShardTable &T, ReadGuard &G) {
        if (Executions++ == 0) {
          EXPECT_TRUE(G.speculative());
          std::thread([&] { Store.put(2, 20); }).join(); // a foreign write
        }
        return T.scan();
      });
  EXPECT_EQ(Executions, 2);
  EXPECT_EQ(C.AsyncAborts - AbortsBefore, 1u);
  EXPECT_EQ(St.LiveEntries, 2u);
  EXPECT_EQ(St.ValueSum, 30u);
  EXPECT_TRUE(Store.quiesce());
}

// Readers keep probing (GET + SCAN) while a writer forces repeated
// resizes; epoch reclamation must keep every retired table dereferenceable
// and validation must discard every torn read.
TEST(ShardedKvStore, ResizeUnderConcurrentReadersLosesNothing) {
  RuntimeContext Ctx;
  ShardedKvStore<SoleroPolicy> Store(Ctx, KvStoreConfig{2, 16});

  constexpr uint64_t Keys = 3000;
  constexpr uint64_t ValueTag = 0x5000000000000000ull;
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> BadReads{0};

  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&, R] {
      uint64_t K = static_cast<uint64_t>(R);
      while (!Done.load(std::memory_order_acquire)) {
        auto V = Store.get(K % Keys);
        // A found key must carry the value its writer published — a torn
        // or stale-table read that escaped validation would not.
        if (V.has_value() && *V != (ValueTag | (K % Keys)))
          BadReads.fetch_add(1, std::memory_order_relaxed);
        if (K % 64 == 0)
          (void)Store.scanShard(static_cast<unsigned>(K) &
                                (Store.shardCount() - 1));
        ++K;
      }
    });

  for (uint64_t K = 0; K < Keys; ++K)
    EXPECT_TRUE(Store.put(K, ValueTag | K));
  Done.store(true, std::memory_order_release);
  for (auto &T : Readers)
    T.join();

  EXPECT_EQ(BadReads.load(), 0u);
  EXPECT_GT(Store.totalResizes(), 0u) << "growth workload never resized";
  EXPECT_EQ(Store.size(), Keys);
  for (uint64_t K = 0; K < Keys; ++K) {
    auto V = Store.get(K);
    ASSERT_TRUE(V.has_value()) << "key " << K << " lost across resizes";
    EXPECT_EQ(*V, ValueTag | K);
  }
  EXPECT_TRUE(Store.quiesce());
}
