//===- tests/MemoryTest.cpp - Pool and epoch reclamation tests ------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mm/EpochReclaimer.h"
#include "mm/TypeStablePool.h"

#include "runtime/SharedField.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <set>
#include <thread>
#include <vector>

using namespace solero;

namespace {

struct Node {
  SharedField<int64_t> Key;
  SharedField<Node *> Next;
};

} // namespace

TEST(TypeStablePool, RecyclesSlots) {
  TypeStablePool<Node, 8> Pool;
  Node *A = Pool.allocate();
  EXPECT_EQ(Pool.liveCount(), 1u);
  Pool.deallocate(A);
  EXPECT_EQ(Pool.liveCount(), 0u);
  Node *B = Pool.allocate();
  EXPECT_EQ(B, A); // LIFO recycling of the same typed slot
  Pool.deallocate(B);
}

TEST(TypeStablePool, GrowsByWholeSlabs) {
  TypeStablePool<Node, 8> Pool;
  std::vector<Node *> Ns;
  for (int I = 0; I < 20; ++I)
    Ns.push_back(Pool.allocate());
  EXPECT_EQ(Pool.liveCount(), 20u);
  EXPECT_EQ(Pool.capacity(), 24u); // three slabs of eight
  std::set<Node *> Unique(Ns.begin(), Ns.end());
  EXPECT_EQ(Unique.size(), 20u);
  for (Node *N : Ns)
    Pool.deallocate(N);
  EXPECT_EQ(Pool.liveCount(), 0u);
}

TEST(TypeStablePool, StaleSlotRemainsReadable) {
  // The type-stable property: a pointer kept across free/realloc still
  // points at a well-formed Node whose fields can be read (values are
  // garbage, which the SOLERO validation layer rejects).
  TypeStablePool<Node, 4> Pool;
  Node *A = Pool.allocate();
  A->Key.write(111);
  Node *Stale = A;
  Pool.deallocate(A);
  Node *B = Pool.allocate();
  B->Key.write(222);
  // Reading through the stale pointer is safe and sees the new value.
  EXPECT_EQ(Stale->Key.read(), 222);
  Pool.deallocate(B);
}

TEST(TypeStablePool, ConcurrentAllocateFree) {
  TypeStablePool<Node, 64> Pool;
  constexpr int Threads = 4, Iters = 2000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      std::vector<Node *> Mine;
      for (int I = 0; I < Iters; ++I) {
        Mine.push_back(Pool.allocate());
        if (Mine.size() > 8) {
          Pool.deallocate(Mine.back());
          Mine.pop_back();
          Pool.deallocate(Mine.front());
          Mine.erase(Mine.begin());
        }
      }
      for (Node *N : Mine)
        Pool.deallocate(N);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Pool.liveCount(), 0u);
}

namespace {

struct CountingTarget {
  static void deleter(void *Obj, void *Arg) {
    ++*static_cast<int *>(Arg);
    (void)Obj;
  }
};

} // namespace

TEST(EpochReclaimer, RetiredObjectsFreeEventually) {
  EpochReclaimer R;
  int Freed = 0;
  int Dummy;
  R.retire(&Dummy, CountingTarget::deleter, &Freed);
  EXPECT_EQ(R.pendingCount(), 1u);
  // No pinned threads: a few collects cycle the buckets and free it.
  R.collect();
  R.collect();
  R.collect();
  EXPECT_EQ(Freed, 1);
  EXPECT_EQ(R.pendingCount(), 0u);
}

TEST(EpochReclaimer, PinnedReaderBlocksReclamation) {
  EpochReclaimer R;
  int Freed = 0;
  int Dummy;
  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    EpochReclaimer::Pin P(R);
    Stage.store(1);
    while (Stage.load() != 2)
      std::this_thread::yield();
  });
  while (Stage.load() != 1)
    std::this_thread::yield();
  R.retire(&Dummy, CountingTarget::deleter, &Freed);
  // The reader pinned an older epoch: nothing can be freed.
  for (int I = 0; I < 5; ++I)
    R.collect();
  EXPECT_EQ(Freed, 0);
  Stage.store(2);
  Reader.join();
  for (int I = 0; I < 5; ++I)
    R.collect();
  EXPECT_EQ(Freed, 1);
}

TEST(EpochReclaimer, PinsFromEveryRegistrySlot) {
  // Every slot the registry can hand out must be trackable, and scanned:
  // hold enough threads live that some register above slot 512, pin from
  // those, and check the pins still hold back reclamation.
  constexpr std::ptrdiff_t N = 520;
  EpochReclaimer R;
  int Freed = 0;
  int Dummy;
  std::atomic<uint32_t> HighPins{0};
  std::latch Pinned(N), Release(1);
  std::vector<std::thread> Ts;
  for (std::ptrdiff_t I = 0; I < N; ++I)
    Ts.emplace_back([&] {
      if (ThreadRegistry::current().slot() < 512) {
        Pinned.count_down();
        Release.wait();
        return;
      }
      EpochReclaimer::Pin P(R);
      HighPins.fetch_add(1);
      Pinned.count_down();
      Release.wait();
    });
  Pinned.wait();
  EXPECT_GT(HighPins.load(), 0u);
  R.retire(&Dummy, CountingTarget::deleter, &Freed);
  for (int I = 0; I < 5; ++I)
    R.collect();
  EXPECT_EQ(Freed, 0);
  Release.count_down();
  for (auto &T : Ts)
    T.join();
  for (int I = 0; I < 5; ++I)
    R.collect();
  EXPECT_EQ(Freed, 1);
}

TEST(EpochReclaimer, PinIsReentrant) {
  EpochReclaimer R;
  {
    EpochReclaimer::Pin P1(R);
    EpochReclaimer::Pin P2(R);
  }
  // Fully unpinned: collection advances freely.
  int Freed = 0;
  int Dummy;
  R.retire(&Dummy, CountingTarget::deleter, &Freed);
  for (int I = 0; I < 4; ++I)
    R.collect();
  EXPECT_EQ(Freed, 1);
}

TEST(EpochReclaimer, ManyRetirementsAllFree) {
  EpochReclaimer R;
  int Freed = 0;
  std::vector<int> Objects(500);
  for (int &O : Objects)
    R.retire(&O, CountingTarget::deleter, &Freed);
  for (int I = 0; I < 6; ++I)
    R.collect();
  EXPECT_EQ(Freed, 500);
}

TEST(EpochReclaimer, DrainAllFreesEverything) {
  int Freed = 0;
  std::vector<int> Objects(50);
  {
    EpochReclaimer R;
    for (int &O : Objects)
      R.retire(&O, CountingTarget::deleter, &Freed);
    // Destructor drains.
  }
  EXPECT_EQ(Freed, 50);
}

TEST(EpochReclaimer, PoolIntegration) {
  // The intended composition: writers retire nodes into the reclaimer,
  // whose deleter recycles them into the type-stable pool.
  TypeStablePool<Node, 16> Pool;
  EpochReclaimer R;
  auto Recycle = +[](void *Obj, void *Arg) {
    static_cast<TypeStablePool<Node, 16> *>(Arg)->deallocate(
        static_cast<Node *>(Obj));
  };
  Node *N = Pool.allocate();
  R.retire(N, Recycle, &Pool);
  EXPECT_EQ(Pool.liveCount(), 1u); // still live until a grace period passes
  for (int I = 0; I < 4; ++I)
    R.collect();
  EXPECT_EQ(Pool.liveCount(), 0u);
}
