//===- tests/AdaptiveElisionTest.cpp - Adaptive elision controller --------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Exercises the failure-ratio-driven speculation policy
/// (core/ElisionController.h): the Elide -> Throttled -> Disabled ->
/// Reprobe hysteresis under a deterministic forced-failure workload, the
/// skip-budget backoff, and the adaptive retry budget with ExpBackoff.
///
/// The forced-failure trick: a write section on the same lock *inside* the
/// read-only body. On a speculative execution the inner write bumps the
/// lock-word counter, so the outer validation is guaranteed to fail; on
/// the fallback (holding) execution it is a plain recursive acquisition.
///
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"

#include "runtime/SharedField.h"

#include <gtest/gtest.h>

using namespace solero;

namespace {

RuntimeConfig quietConfig() {
  RuntimeConfig C;
  C.StartEventBus = false;
  return C;
}

/// Tiny windows so transitions happen within a handful of sections.
AdaptiveElisionConfig tinyAdaptive() {
  AdaptiveElisionConfig A;
  A.Enabled = true;
  A.WindowAttempts = 8;
  A.ThrottleRatio = 0.30;
  A.DisableRatio = 0.60;
  A.ReenableRatio = 0.20;
  A.ElideMaxAttempts = 1; // 1 attempt/section: sections == attempts
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

class AdaptiveElisionTest : public ::testing::Test {
protected:
  AdaptiveElisionTest() : Ctx(quietConfig()), L(Ctx, tinyAdaptiveConfig()) {
    snap();
  }

  /// A section whose speculation always fails (see file comment).
  int64_t failingSection() {
    return L.synchronizedReadOnly(H, [&](ReadGuard &) {
      L.synchronizedWrite(H, [] {});
      return Data.read();
    });
  }

  /// A section whose speculation always succeeds.
  int64_t succeedingSection() {
    return L.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
  }

  ProtocolCounters delta() const {
    ProtocolCounters Now = ThreadRegistry::instance().totalCounters();
    ProtocolCounters D;
    D.ElisionAttempts = Now.ElisionAttempts - Base.ElisionAttempts;
    D.ElisionSuccesses = Now.ElisionSuccesses - Base.ElisionSuccesses;
    D.ElisionFailures = Now.ElisionFailures - Base.ElisionFailures;
    D.Fallbacks = Now.Fallbacks - Base.Fallbacks;
    D.ElisionSkips = Now.ElisionSkips - Base.ElisionSkips;
    D.SpecRetries = Now.SpecRetries - Base.SpecRetries;
    D.ThrottledAttempts = Now.ThrottledAttempts - Base.ThrottledAttempts;
    D.ReprobeAttempts = Now.ReprobeAttempts - Base.ReprobeAttempts;
    D.CtrlThrottles = Now.CtrlThrottles - Base.CtrlThrottles;
    D.CtrlDisables = Now.CtrlDisables - Base.CtrlDisables;
    D.CtrlReprobes = Now.CtrlReprobes - Base.CtrlReprobes;
    D.CtrlReenables = Now.CtrlReenables - Base.CtrlReenables;
    return D;
  }
  void snap() { Base = ThreadRegistry::instance().totalCounters(); }

  ElisionState state() { return L.controller().state(); }

  RuntimeContext Ctx;
  SoleroLock L;
  ObjectHeader H;
  SharedField<int64_t> Data{42};
  ProtocolCounters Base;
};

} // namespace

TEST_F(AdaptiveElisionTest, StartsInElideAndStaysThereOnSuccess) {
  EXPECT_EQ(state(), ElisionState::Elide);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(succeedingSection(), 42);
  EXPECT_EQ(state(), ElisionState::Elide);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionSuccesses, 100u);
  EXPECT_EQ(D.ElisionSkips, 0u);
  EXPECT_EQ(D.CtrlDisables, 0u);
}

TEST_F(AdaptiveElisionTest, ForcedFailuresDisableElision) {
  // One full window of guaranteed failures: ratio 1.0 >= DisableRatio.
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(failingSection(), 42);
  EXPECT_EQ(state(), ElisionState::Disabled);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionFailures, 8u);
  EXPECT_EQ(D.Fallbacks, 8u);
  EXPECT_EQ(D.CtrlDisables, 1u);
  EXPECT_EQ(D.ElisionSkips, 0u);

  // While Disabled, sections skip speculation entirely — no attempts, the
  // data still reads correctly under the real lock.
  snap();
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(succeedingSection(), 42);
  D = delta();
  EXPECT_EQ(D.ElisionSkips, 3u);
  EXPECT_EQ(D.ElisionAttempts, 0u);
  EXPECT_EQ(state(), ElisionState::Disabled);
}

TEST_F(AdaptiveElisionTest, ReprobeReenablesWhenFailuresStop) {
  for (int I = 0; I < 8; ++I)
    failingSection();
  ASSERT_EQ(state(), ElisionState::Disabled);

  // Burn the skip budget (DisabledSkipMin = 4: three skips, then the
  // fourth entry opens the re-probe window), then let the 4-sample
  // re-probe succeed.
  snap();
  for (int I = 0; I < 7; ++I)
    EXPECT_EQ(succeedingSection(), 42);
  EXPECT_EQ(state(), ElisionState::Elide);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionSkips, 3u);
  EXPECT_EQ(D.CtrlReprobes, 1u);
  EXPECT_EQ(D.ReprobeAttempts, 4u);
  EXPECT_EQ(D.CtrlReenables, 1u);
}

TEST_F(AdaptiveElisionTest, FailedReprobeBacksOffExponentially) {
  for (int I = 0; I < 8; ++I)
    failingSection();
  ASSERT_EQ(state(), ElisionState::Disabled);

  // Keep failing through the skip budget (3 skips) and the whole re-probe
  // window (4 samples): the controller must disable again with a doubled
  // skip budget (DisabledSkipMin 4 -> 8).
  snap();
  for (int I = 0; I < 7; ++I)
    failingSection();
  EXPECT_EQ(state(), ElisionState::Disabled);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.CtrlReprobes, 1u);
  EXPECT_EQ(D.CtrlDisables, 1u);
  EXPECT_EQ(L.controller().skipBudget(), 8);
}

TEST_F(AdaptiveElisionTest, MidRatioThrottlesThenRecovers) {
  // 3 failures + 5 successes fill the window at ratio 0.375: between
  // ThrottleRatio (0.30) and DisableRatio (0.60) -> Throttled.
  for (int I = 0; I < 3; ++I)
    failingSection();
  for (int I = 0; I < 5; ++I)
    succeedingSection();
  EXPECT_EQ(state(), ElisionState::Throttled);
  EXPECT_EQ(delta().CtrlThrottles, 1u);

  // The decayed window (4 attempts, 1 failure) plus 4 clean successes
  // re-fills it at ratio 1/8 <= ReenableRatio -> back to Elide.
  snap();
  for (int I = 0; I < 4; ++I)
    succeedingSection();
  EXPECT_EQ(state(), ElisionState::Elide);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ThrottledAttempts, 4u);
  EXPECT_EQ(D.CtrlReenables, 1u);
}

TEST_F(AdaptiveElisionTest, ElideRetriesWithBackoffBeforeFallingBack) {
  SoleroConfig C = tinyAdaptiveConfig();
  C.Adaptive.ElideMaxAttempts = 3;
  C.Adaptive.WindowAttempts = 1000; // keep the controller in Elide
  SoleroLock Retry(Ctx, C);
  snap();
  Retry.synchronizedReadOnly(H, [&](ReadGuard &G) {
    // A foreign write on every speculative attempt. (A nested write would
    // be a self-conflict, which falls back without retrying.)
    if (G.speculative())
      H.word().fetch_add(lockword::CounterUnit, std::memory_order_relaxed);
    return 0;
  });
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 3u); // adaptive MaxSpecAttempts
  EXPECT_EQ(D.SpecRetries, 2u);     // attempts 2 and 3, after ExpBackoff
  EXPECT_EQ(D.ElisionFailures, 3u);
  EXPECT_EQ(D.Fallbacks, 1u);
}

TEST_F(AdaptiveElisionTest, ElideReSpeculatesOnlyForeignConflicts) {
  SoleroConfig C = tinyAdaptiveConfig();
  C.Adaptive.ElideMaxAttempts = AdaptiveElisionConfig().ElideMaxAttempts;
  C.Adaptive.WindowAttempts = 1000; // keep the controller in Elide
  SoleroLock Elide(Ctx, C);
  int Executions = 0;
  Elide.synchronizedReadOnly(H, [&](ReadGuard &G) {
    EXPECT_TRUE(G.speculative());
    if (Executions++ == 0)
      H.word().fetch_add(lockword::CounterUnit, std::memory_order_relaxed);
    return 0;
  });
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 2u);
  EXPECT_EQ(D.SpecRetries, 1u);
  EXPECT_EQ(D.Fallbacks, 0u);

  snap();
  Elide.synchronizedReadOnly(H, [&](ReadGuard &) {
    Elide.synchronizedWrite(H, [] {});
    return 0;
  });
  D = delta();
  EXPECT_EQ(D.ElisionAttempts, 1u); // self-conflict: no retry
  EXPECT_EQ(D.SpecRetries, 0u);
  EXPECT_EQ(D.Fallbacks, 1u);
  EXPECT_EQ(Elide.controller().state(), ElisionState::Elide);
}

TEST_F(AdaptiveElisionTest, AdaptiveOffReproducesFixedPaperPolicy) {
  // Default config: controller off. The nested write is a self-conflict,
  // so the default budget of 2 still makes exactly the paper's 1 attempt.
  SoleroLock Fixed(Ctx);
  snap();
  Fixed.synchronizedReadOnly(H, [&](ReadGuard &) {
    Fixed.synchronizedWrite(H, [] {});
    return 0;
  });
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 1u);
  EXPECT_EQ(D.ElisionFailures, 1u);
  EXPECT_EQ(D.Fallbacks, 1u);
  EXPECT_EQ(D.ElisionSkips, 0u);
  EXPECT_EQ(D.SpecRetries, 0u);
  EXPECT_EQ(D.CtrlDisables + D.CtrlThrottles + D.CtrlReprobes, 0u);
  EXPECT_EQ(Fixed.controller().state(), ElisionState::Elide);
}

TEST_F(AdaptiveElisionTest, ReadMostlySectionsFeedTheController) {
  // The read-mostly engine consults the same controller: forced upgrade
  // conflicts disable speculation there too. An upgrade CAS fails when
  // the recorded entry word is stale; force that with the same inner
  // write before acquireForWrite.
  for (int I = 0; I < 8; ++I)
    L.synchronizedReadMostly(H, [&](WriteIntent &W) {
      if (!W.holding())
        L.synchronizedWrite(H, [] {}); // invalidates the recorded word
      W.acquireForWrite();
      return 0;
    });
  EXPECT_EQ(state(), ElisionState::Disabled);
  snap();
  L.synchronizedReadMostly(H, [&](WriteIntent &W) {
    EXPECT_TRUE(W.holding()); // Disabled: entered holding the real lock
    return 0;
  });
  EXPECT_EQ(delta().ElisionSkips, 1u);
}

TEST_F(AdaptiveElisionTest, StateNamesAreStable) {
  EXPECT_STREQ(elisionStateName(ElisionState::Elide), "Elide");
  EXPECT_STREQ(elisionStateName(ElisionState::Throttled), "Throttled");
  EXPECT_STREQ(elisionStateName(ElisionState::Disabled), "Disabled");
  EXPECT_STREQ(elisionStateName(ElisionState::Reprobe), "Reprobe");
}
