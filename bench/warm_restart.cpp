//===- bench/warm_restart.cpp - Warm-image time-to-peak ---------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Measures what a warm image (src/image/, DESIGN.md §16) buys: time to
/// peak elision throughput, cold versus restored.
///
/// The guest critical section writes only on every 64th entry, so static
/// classification says Writing (a putfield is a blocker) and the section
/// runs under the conventional lock until the profile proves it ReadMostly
/// (Section 5). A cold process therefore spends its first windows at
/// elide/op = 0 — profiling, reclassifying, retranslating — before
/// reaching peak. A restored process adopts the previous run's
/// classification, profile, and adaptive-controller state at startup,
/// retranslates its own stream from them, and should be within 10% of
/// steady-state elide/op in its *first* measurement window. The
/// "restore:" line reports the restore wall time, which includes that
/// re-translation.
///
/// Per window the bench reports ops/sec and elide/op (elision successes
/// per guest op — the deterministic warmth signal on a 1-vCPU host).
///
///   --checkpoint=FILE  write the warm image after the cold run
///   --restore=FILE     restore the warm run from FILE instead of memory
///
/// With neither flag the run is self-contained: cold run, in-memory
/// checkpoint, restored run, then a corrupted- and a truncated-image
/// restore demonstrating the cold-start fallback diagnostics.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "image/Checkpoint.h"
#include "image/Image.h"
#include "image/Resources.h"
#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"
#include "support/Stopwatch.h"

#include <cmath>
#include <limits>

using namespace solero;
using jit::Value;

namespace {

/// Entries between writes: below the classifier's 10% read-mostly
/// threshold, high enough that peak elide/op is unambiguous (63/64).
constexpr uint64_t WritePeriod = 64;

/// mostly(obj, doWrite) — synchronized { if (doWrite) obj.F1 = 1;
/// read obj.F0 }. Statically Writing; ReadMostly once profiled.
jit::Module buildWarmGuest() {
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

struct WindowRow {
  BenchResult R;
  double ElidePerOp = 0;
};

/// Runs one single-threaded measurement window of \p Ops guest calls.
/// \p OpIndex persists across windows so the write cadence is continuous.
WindowRow runWindow(jit::Interpreter &I, uint32_t MostlyId,
                    jit::GuestObject *Obj, uint64_t Ops, uint64_t &OpIndex) {
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  Stopwatch Clock;
  for (uint64_t K = 0; K < Ops; ++K, ++OpIndex) {
    int64_t DoWrite = (OpIndex % WritePeriod == 0) ? 1 : 0;
    I.invoke(MostlyId, {Value::ofRef(Obj), Value::ofInt(DoWrite)});
  }
  double Secs = Clock.elapsedSeconds();
  WindowRow W;
  W.R.Ops = Ops;
  W.R.Seconds = Secs;
  W.R.OpsPerSec = Secs > 0 ? static_cast<double>(Ops) / Secs : 0.0;
  W.R.Delta = countersDelta(Before, ThreadRegistry::instance().totalCounters());
  W.ElidePerOp = Ops ? static_cast<double>(W.R.Delta.ElisionSuccesses.value()) /
                           static_cast<double>(Ops)
                     : 0.0;
  return W;
}

struct Phase {
  std::vector<WindowRow> Windows;
  double steadyElide() const {
    return Windows.empty() ? 0.0 : Windows.back().ElidePerOp;
  }
  double firstElide() const {
    return Windows.empty() ? 0.0 : Windows.front().ElidePerOp;
  }
};

void emitPhase(JsonReport &Json, TablePrinter &T, const std::string &Variant,
               const Phase &P) {
  for (std::size_t W = 0; W < P.Windows.size(); ++W) {
    const WindowRow &Row = P.Windows[W];
    T.addRow({Variant, std::to_string(W),
              TablePrinter::num(Row.R.OpsPerSec, 0),
              TablePrinter::num(Row.ElidePerOp, 3),
              TablePrinter::percent(Row.R.failureRatio(), 2)});
    Json.add(Variant, "SOLERO", 1, Row.R,
             {{"window", static_cast<double>(W)},
              {"elide_per_op", Row.ElidePerOp}});
  }
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  printBanner(
      "Warm restart", "Time-to-peak elision, cold vs restored warm image",
      "No paper figure; CRaC-style expectation: the restored run is within "
      "10% of steady-state\nelide/op in its first measurement window, where "
      "the cold run starts at zero.");

  const uint64_t OpsPerWindow =
      static_cast<uint64_t>(Env.Args.getInt("ops", Env.Quick ? 4000 : 20000));
  const unsigned NumWindows =
      static_cast<unsigned>(Env.Args.getInt("windows", Env.Quick ? 4 : 6));
  // Windows spent profiling before reclassification (the cold run's
  // warm-up cost; the restored run skips it entirely).
  const unsigned ProfileWindows = Env.Quick ? 1 : 2;
  const std::string CkptPath = Env.Args.getString("checkpoint", "");
  const std::string RestPath = Env.Args.getString("restore", "");

  JsonReport Json("warm_restart");
  TablePrinter T({"variant", "window", "ops/s", "elide/op", "fail%"});

  // --- Cold run: profile, reclassify, reach peak -------------------------
  jit::Interpreter::Options ColdOpts;
  ColdOpts.CollectProfile = true;
  jit::Interpreter Cold(*Env.Ctx, buildWarmGuest(), ColdOpts);
  uint32_t MostlyId = Cold.module().methodId("mostly");
  jit::GuestObject *ColdObj = Cold.allocateObject();
  Phase ColdPhase;
  uint64_t ColdOp = 0;
  for (unsigned W = 0; W < NumWindows; ++W) {
    ColdPhase.Windows.push_back(
        runWindow(Cold, MostlyId, ColdObj, OpsPerWindow, ColdOp));
    if (W + 1 == ProfileWindows) {
      Cold.reclassifyWithProfile();
      Cold.endProfiling(); // the rest of the cold run is uninstrumented
    }
  }
  emitPhase(Json, T, "cold", ColdPhase);

  // --- Checkpoint the warmed engine --------------------------------------
  image::CheckpointContext Ckpt;
  image::InterpreterWarmState ColdWarm("jit.warm", Cold);
  Ckpt.registerResource(&ColdWarm);
  std::vector<uint8_t> ImageBytes = Ckpt.checkpointBytes();
  if (!CkptPath.empty()) {
    image::Diagnostic D;
    if (Ckpt.checkpointTo(CkptPath, D))
      std::printf("checkpoint: wrote %zu-byte warm image to %s\n",
                  ImageBytes.size(), CkptPath.c_str());
    else
      std::fprintf(stderr, "checkpoint: %s\n", D.render().c_str());
  }

  // --- Restored run: fresh process state, adopt the image ----------------
  jit::Interpreter Restored(*Env.Ctx, buildWarmGuest(),
                            jit::Interpreter::Options());
  image::CheckpointContext Rest;
  image::InterpreterWarmState RestWarm("jit.warm", Restored);
  Rest.registerResource(&RestWarm);
  Stopwatch RestoreClock;
  image::RestoreReport Report = RestPath.empty()
                                    ? Rest.restoreBytes(ImageBytes)
                                    : Rest.restoreFromFile(RestPath);
  const double RestoreUs = static_cast<double>(RestoreClock.elapsedNs()) * 1e-3;
  std::printf("restore: %s in %.1f us\n", Report.summary().c_str(),
              RestoreUs);
  for (const image::Diagnostic &D : Report.Diags)
    std::printf("restore: %s\n", D.render().c_str());

  jit::GuestObject *RestObj = Restored.allocateObject();
  Phase RestPhase;
  uint64_t RestOp = 0;
  for (unsigned W = 0; W < NumWindows; ++W)
    RestPhase.Windows.push_back(
        runWindow(Restored, MostlyId, RestObj, OpsPerWindow, RestOp));
  emitPhase(Json, T, "restored", RestPhase);
  T.print();

  // --- Acceptance: restored window 0 vs cold steady state ----------------
  double Steady = ColdPhase.steadyElide();
  double RestoredFirst = RestPhase.firstElide();
  double ColdFirst = ColdPhase.firstElide();
  std::printf("\nsteady-state elide/op (cold, last window): %.3f\n", Steady);
  std::printf("cold     first-window elide/op: %.3f\n", ColdFirst);
  std::printf("restored first-window elide/op: %.3f (%.0f%% of steady)\n",
              RestoredFirst, Steady > 0 ? 100.0 * RestoredFirst / Steady : 0.0);
  bool WarmFromWindowZero =
      Report.allWarm(Rest.resourceCount()) && Steady > 0 &&
      RestoredFirst >= 0.9 * Steady && ColdFirst < 0.9 * Steady;
  std::printf("warm-restart acceptance: %s\n",
              WarmFromWindowZero ? "PASS (restored run peaks in window 0)"
                                 : "FAIL");

  // --- Fallback demo: corrupted and truncated images degrade cleanly -----
  if (RestPath.empty()) {
    jit::Interpreter Victim(*Env.Ctx, buildWarmGuest(),
                            jit::Interpreter::Options());
    image::CheckpointContext VCtx;
    image::InterpreterWarmState VWarm("jit.warm", Victim);
    VCtx.registerResource(&VWarm);

    std::vector<uint8_t> Corrupt = ImageBytes;
    Corrupt[Corrupt.size() / 2] ^= 0x40;
    image::RestoreReport BadRep = VCtx.restoreBytes(Corrupt);
    std::printf("\ncorrupted image: %s\n", BadRep.summary().c_str());
    for (const image::Diagnostic &D : BadRep.Diags)
      std::printf("corrupted image: %s\n", D.render().c_str());

    image::RestoreReport ShortRep =
        VCtx.restoreBytes(ImageBytes.data(), ImageBytes.size() / 3);
    std::printf("truncated image: %s\n", ShortRep.summary().c_str());
    for (const image::Diagnostic &D : ShortRep.Diags)
      std::printf("truncated image: %s\n", D.render().c_str());

    // The victim still runs — cold, but alive (the whole point of the
    // fallback policy).
    jit::GuestObject *VObj = Victim.allocateObject();
    uint64_t VOp = 0;
    WindowRow Alive = runWindow(Victim, MostlyId, VObj,
                                std::min<uint64_t>(OpsPerWindow, 2000), VOp);
    std::printf("after rejected restores the engine still runs cold: "
                "%.0f ops/s, elide/op %.3f\n",
                Alive.R.OpsPerSec, Alive.ElidePerOp);
    if (BadRep.ImageOk || ShortRep.ImageOk)
      std::fprintf(stderr, "error: bad image validated as OK\n");
  }

  // Schema-probe row: exercises the JSON emitter's non-finite guard and
  // control-character escaping end to end. The CI smoke bans the
  // substrings "nan"/"inf" anywhere in the document and requires it to
  // parse, so this row fails the smoke if either fix regresses.
  BenchResult Probe;
  Probe.OpsPerSec = std::numeric_limits<double>::quiet_NaN();
  Json.add(std::string("probe\001ctl"), "Probe", 1, Probe,
           {{"guard_zero_a", std::numeric_limits<double>::quiet_NaN()},
            {"guard_zero_b", std::numeric_limits<double>::infinity()}});

  return Json.write(Env.JsonPath) ? 0 : 1;
}
