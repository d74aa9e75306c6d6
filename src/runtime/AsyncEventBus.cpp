//===- runtime/AsyncEventBus.cpp - Asynchronous read-validation events ----===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "runtime/AsyncEventBus.h"

#include "runtime/ThreadRegistry.h"

using namespace solero;

void AsyncEventBus::start(std::chrono::microseconds Period) {
  bool Expected = false;
  if (!Running.compare_exchange_strong(Expected, true,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
    return;
  Worker = std::thread([this, Period] {
    while (Running.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(Period);
      postToAllThreads();
      Ticks.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

void AsyncEventBus::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  if (Worker.joinable())
    Worker.join();
}

void AsyncEventBus::postToAllThreads() {
  ThreadRegistry::instance().forEachThread([](ThreadState &TS) {
    TS.PollFlag.store(1, std::memory_order_release);
  });
}
