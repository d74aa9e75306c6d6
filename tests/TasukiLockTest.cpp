//===- tests/TasukiLockTest.cpp - Conventional lock tests -----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "locks/TasukiLock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace solero;
using namespace solero::lockword;

namespace {

RuntimeConfig quietConfig() {
  RuntimeConfig C;
  C.StartEventBus = false;
  return C;
}

class TasukiLockTest : public ::testing::Test {
protected:
  TasukiLockTest() : Ctx(quietConfig()), L(Ctx) {}
  RuntimeContext Ctx;
  TasukiLock L;
  ObjectHeader H;
};

} // namespace

TEST_F(TasukiLockTest, FastPathInstallsThreadId) {
  ThreadState &TS = ThreadRegistry::current();
  L.enter(H);
  EXPECT_EQ(H.word().load(), TS.tidBits());
  EXPECT_TRUE(L.heldByCurrentThread(H));
  L.exit(H);
  EXPECT_EQ(H.word().load(), 0u);
  EXPECT_FALSE(L.heldByCurrentThread(H));
}

TEST_F(TasukiLockTest, RecursionUsesRecursionBits) {
  ThreadState &TS = ThreadRegistry::current();
  L.enter(H);
  L.enter(H);
  L.enter(H);
  EXPECT_EQ(convRecursion(H.word().load()), 2u);
  EXPECT_EQ(highField(H.word().load()), TS.tidBits());
  L.exit(H);
  EXPECT_EQ(convRecursion(H.word().load()), 1u);
  L.exit(H);
  L.exit(H);
  EXPECT_EQ(H.word().load(), 0u);
}

TEST_F(TasukiLockTest, RecursionSaturationInflates) {
  // ConvRecMax nested levels fit in the bits; one more must inflate
  // (paper Section 2.1: "inflation can also occur when the bits of the
  // recursion counter saturate").
  const int Depth = static_cast<int>(ConvRecMax) + 2;
  for (int I = 0; I < Depth; ++I)
    L.enter(H);
  EXPECT_TRUE(isInflated(H.word().load()));
  EXPECT_TRUE(L.heldByCurrentThread(H));
  for (int I = 0; I < Depth; ++I) {
    EXPECT_TRUE(L.heldByCurrentThread(H));
    L.exit(H);
  }
  // Fully released; the final fat exit deflates back to the flat free word.
  EXPECT_EQ(H.word().load(), 0u);
  EXPECT_FALSE(L.heldByCurrentThread(H));
}

TEST_F(TasukiLockTest, SynchronizedWriteReturnsValue) {
  int X = L.synchronizedWrite(H, [&] { return 41 + 1; });
  EXPECT_EQ(X, 42);
  EXPECT_EQ(H.word().load(), 0u);
}

TEST_F(TasukiLockTest, ExceptionReleasesLock) {
  EXPECT_THROW(L.synchronizedWrite(H, [&]() -> int {
    throw std::runtime_error("guest");
  }),
               std::runtime_error);
  EXPECT_EQ(H.word().load(), 0u);
}

TEST_F(TasukiLockTest, ContentionInflatesAndDeflates) {
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  std::atomic<int> Stage{0};
  L.enter(H);
  std::thread Contender([&] {
    Stage.store(1);
    L.enter(H); // must park: the main thread holds the lock
    Stage.store(2);
    // We acquired through the monitor: the word designates fat mode.
    EXPECT_TRUE(isInflated(H.word().load()));
    EXPECT_TRUE(L.heldByCurrentThread(H));
    L.exit(H);
  });
  while (Stage.load() != 1)
    std::this_thread::yield();
  // Give the contender time to finish spinning and park. Its FLC bit marks
  // the end of the spin tier; a loaded host can stretch that past any fixed
  // sleep, and an exit before it would hand over the flat lock instead.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((H.word().load() & FlcBit) == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Stage.load(), 1); // still excluded
  L.exit(H);
  Contender.join();
  EXPECT_EQ(Stage.load(), 2);
  // Fully released: deflated back to the flat free word.
  EXPECT_EQ(H.word().load(), 0u);
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_GE(After.Inflations - Before.Inflations, 1u);
  EXPECT_GE(After.Deflations - Before.Deflations, 1u);
}

TEST_F(TasukiLockTest, MutualExclusionUnderContention) {
  constexpr int Threads = 4;
  constexpr int Iters = 5000;
  int64_t Unprotected = 0; // plain int: only safe if exclusion holds
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < Iters; ++I)
        L.synchronizedWrite(H, [&] { ++Unprotected; });
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Unprotected, static_cast<int64_t>(Threads) * Iters);
  EXPECT_EQ(H.word().load(), 0u);
}

TEST_F(TasukiLockTest, ReadOnlySectionIsPlainMutualExclusion) {
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
    EXPECT_FALSE(G.speculative());
    EXPECT_TRUE(L.heldByCurrentThread(H));
    return 7;
  });
  EXPECT_EQ(V, 7);
  EXPECT_EQ(H.word().load(), 0u);
}

TEST_F(TasukiLockTest, TwoLocksAreIndependent) {
  ObjectHeader H2;
  L.enter(H);
  L.enter(H2);
  EXPECT_TRUE(L.heldByCurrentThread(H));
  EXPECT_TRUE(L.heldByCurrentThread(H2));
  L.exit(H);
  EXPECT_FALSE(L.heldByCurrentThread(H));
  EXPECT_TRUE(L.heldByCurrentThread(H2));
  L.exit(H2);
}
