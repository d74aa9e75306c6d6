//===- bench/fig15_failure_ratio.cpp - Figure 15 ---------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Figure 15: ratio of failed speculative executions of read-only
/// synchronized blocks in SOLERO vs thread count, for the 5%-writes map
/// workloads. Paper at 16 threads: HashMap 5% ≈ 23%, TreeMap 5% ≈ 35%,
/// fine-grained HashMap 5% ≈ 3%; SPECjbb ≈ 0%.
///
//===----------------------------------------------------------------------===//

#include "MapBenchRunner.h"

#include "workloads/JbbWorkload.h"

#include "collections/JavaTreeMap.h"

using namespace solero;

namespace {

using HashMapT = JavaHashMap<int64_t, int64_t>;
using TreeMapT = JavaTreeMap<int64_t, int64_t>;

template <typename Policy>
BenchResult runJbb(BenchEnv &Env, int Threads) {
  JbbParams P;
  P.Warehouses = Threads;
  P.Seed = Env.Seed;
  JbbWorkload<Policy> W(*Env.Ctx, P);
  return runThroughput(Threads, Env.Opts, std::ref(W));
}

/// `--adaptive`: the controller sweep. Fixed-policy SOLERO vs
/// Adaptive-SOLERO on a TreeMap workload whose failure dial is the ratio
/// of misclassified-read-only sections (a nested write acquisition on the
/// same lock inside the read section, paper §3.2) — the one failure source
/// that is deterministic per section and so behaves identically on a
/// 1-vCPU host and a multiprocessor. At 0% the controller stays in Elide
/// and matches plain SOLERO; as the ratio rises it disables speculation
/// and stops paying the doomed speculative execution before every real
/// acquisition.
///
/// TreeMap rather than HashMap for two reasons: it is the collection the
/// paper's own Figure 15 shows with the worst failure ratio (35% at 16
/// threads), so it is where an adaptive policy matters; and its log-n
/// pointer-chasing get makes the section long enough (~100ns vs ~30ns)
/// that the sweep measures the policy — the cost of a doomed execution vs
/// a ~1ns controller tax — rather than the fence-dominated floor of a
/// near-empty section.
///
/// Yield-widened sections (the default fig15 tables) are deliberately NOT
/// used here: holding the lock across the mid-section yield is itself the
/// dominant cost on one vCPU, so both policies bottleneck on the same
/// scheduler handoff and the elision overhead being measured disappears
/// into it (see EXPERIMENTS.md, "Adaptive controller sweep").
int runAdaptiveSweep(BenchEnv &Env) {
  printBanner("Figure 15 — adaptive sweep",
              "Adaptive elision controller vs the paper's fixed policy",
              "Beyond the paper (Section 3.2/4.3 motivation): for sections "
              "whose speculation always\nfails, the fixed policy pays a "
              "doomed speculative execution plus the real acquisition\n"
              "every time; a BRAVO-style failure-ratio controller learns to "
              "skip straight to the\nacquisition.");
  // Patient spin tiers, same rationale as the widened-section table: keep
  // the lock thin on one vCPU so speculation stays possible at all.
  RuntimeConfig Patient;
  Patient.Tiers = SpinTiers{64, 32, 1 << 14};
  Env.Ctx = std::make_unique<RuntimeContext>(Patient);
  // One thread by default: this sweep measures the per-section *cost* of
  // elision policy (like the paper's single-thread figures), and on one
  // vCPU any extra thread turns short windows into scheduler-quantum
  // lotteries that drown the few-ns effect being measured. The failure
  // dial is per-section-deterministic, so it needs no concurrency;
  // --adaptive-threads restores the contended variant.
  int Threads =
      static_cast<int>(Env.Args.getInt("adaptive-threads", 1));
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 4 : 6));
  if (!Env.Args.has("window-ms"))
    Env.Opts.Window = std::chrono::milliseconds(Env.Quick ? 60 : 150);

  std::printf("\n--- TreeMap reads, %d threads; nested-write%% = share of "
              "read sections with a\nnested same-lock write (speculation "
              "deterministically fails there). Controller\ncolumns are "
              "Adaptive-SOLERO's: thr/dis/rep/ren = throttle/disable/"
              "re-probe/re-enable\ntransition counts ---\n",
              Threads);
  // "att/sec fixed": the fixed policy's speculative attempts per read
  // section. A nested write is a self-conflict, which never re-speculates,
  // so this stays at 1.00 at 100% however large the budget.
  TablePrinter T({"nested-write%", "SOLERO ops/s", "Adaptive ops/s",
                  "speedup", "fail% fixed", "att/sec fixed", "fail% adpt",
                  "skip%", "thr/dis/rep/ren"});
  for (unsigned Nw : {0u, 5u, 20u, 50u, 100u}) {
    // Both runners instantiate the same SoleroPolicy templates and differ
    // only in the runtime config, so the speedup column measures the
    // controller, not code-layout luck between two instantiations.
    TrialRunner Adaptive = makeMapRunner<TreeMapT, SoleroPolicy>(
        Env, "Adaptive-SOLERO", Threads, /*WritePercent=*/0, 1,
        /*YieldInReadSection=*/false, Nw, adaptiveSoleroConfig());
    TrialRunner Plain = makeMapRunner<TreeMapT, SoleroPolicy>(
        Env, "SOLERO", Threads, /*WritePercent=*/0, 1,
        /*YieldInReadSection=*/false, Nw, SoleroConfig{});
    std::vector<BenchResult> Best =
        runInterleavedBest({Plain, Adaptive}, Rounds);
    const BenchResult &P = Best[0], &A = Best[1];
    double FixedAttempts =
        safeRatio(P.Delta.ElisionAttempts, P.Delta.ReadOnlyEntries);
    T.addRow({std::to_string(Nw), TablePrinter::num(P.OpsPerSec, 0),
              TablePrinter::num(A.OpsPerSec, 0),
              TablePrinter::num(P.OpsPerSec > 0
                                    ? A.OpsPerSec / P.OpsPerSec
                                    : 0.0,
                                2) +
                  "x",
              TablePrinter::percent(P.failureRatio(), 1),
              TablePrinter::num(FixedAttempts, 2),
              TablePrinter::percent(A.failureRatio(), 1),
              TablePrinter::percent(A.skipRatio(), 1),
              A.controllerTransitions()});
  }
  T.print();
  std::printf("\nShape checks: at low ratios (0-20%%) the controller stays "
              "in Elide and the speedup\ncolumn reads ~1.0x — parity within "
              "harness noise (a null run of identical configs\nspreads a few "
              "percent either side of 1.0x here; the true bookkeeping cost "
              "is ~1ns per\nsection, measured by micro_primitives "
              "BM_ElisionControllerRoundTrip). skip%% and\nspeedup rise "
              "together as the failure ratio climbs; at 100%% the fixed "
              "policy executes\nevery read section twice and Adaptive-SOLERO "
              "should be >= 1.3x.\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  if (Env.Args.getBool("adaptive", false))
    return runAdaptiveSweep(Env);
  printBanner("Figure 15",
              "Speculative-execution failure ratio of read-only blocks",
              "At 16 threads: HashMap 5% writes ~23%, TreeMap 5% ~35%, "
              "fine-grained HashMap 5% ~3%,\nSPECjbb ~0%. Rises with thread "
              "count.");
  std::vector<int> Threads = Env.threadList({1, 2, 4, 8, 16});

  std::printf("\n--- natural sections (25-100ns: rarely preempted on one "
              "vCPU; see EXPERIMENTS.md) ---\n");
  {
    // "fb/ksec": HashMap5% fallbacks per 1000 read sections. A fallback's
    // release fails every speculation then in flight, so a convoy shows
    // here as fallbacks well above the write rate.
    TablePrinter T({"threads", "HashMap5%", "fb/ksec", "HashMap5% fine",
                    "TreeMap5%", "SPECjbb-like"});
    for (int N : Threads) {
      BenchResult H = runMapBench<HashMapT, SoleroPolicy>(Env, N, 5);
      BenchResult HF = runMapBench<HashMapT, SoleroPolicy>(Env, N, 5, N);
      BenchResult Tr = runMapBench<TreeMapT, SoleroPolicy>(Env, N, 5);
      BenchResult J = runJbb<SoleroPolicy>(Env, N);
      double FallbacksPerKSec =
          1000.0 * safeRatio(H.Delta.Fallbacks, H.Delta.ReadOnlyEntries);
      T.addRow({std::to_string(N), TablePrinter::percent(H.failureRatio(), 1),
                TablePrinter::num(FallbacksPerKSec, 1),
                TablePrinter::percent(HF.failureRatio(), 1),
                TablePrinter::percent(Tr.failureRatio(), 1),
                TablePrinter::percent(J.failureRatio(), 2)});
    }
    T.print();
  }

  std::printf("\n--- widened sections (reader yields mid-section, forcing "
              "writer overlap as on a real\n16-way machine) ---\n");
  {
    // Patient spin tiers: on one vCPU a writer descheduled mid-section
    // otherwise sends every reader down the inflation path, after which
    // the permanently-fat lock forbids speculation altogether (0 attempts,
    // hence 0 failures — the degenerate outcome). Letting readers out-wait
    // the writer keeps the lock thin, as it would be on a real
    // multiprocessor where the writer's 100ns section actually completes.
    RuntimeConfig Patient;
    Patient.Tiers = SpinTiers{64, 32, 1 << 14};
    Env.Ctx = std::make_unique<RuntimeContext>(Patient);
    TablePrinter T({"threads", "HashMap5%", "HashMap5% fine", "TreeMap5%"});
    for (int N : Threads) {
      BenchResult H =
          runMapBench<HashMapT, SoleroPolicy>(Env, N, 5, 1, true);
      BenchResult HF =
          runMapBench<HashMapT, SoleroPolicy>(Env, N, 5, N, true);
      BenchResult Tr =
          runMapBench<TreeMapT, SoleroPolicy>(Env, N, 5, 1, true);
      T.addRow({std::to_string(N), TablePrinter::percent(H.failureRatio(), 1),
                TablePrinter::percent(HF.failureRatio(), 1),
                TablePrinter::percent(Tr.failureRatio(), 1)});
    }
    T.print();
  }
  std::printf("\nPaper reference at 16 threads: HashMap5%%=23%%, "
              "fine-grained=3%%, TreeMap5%%=35%%, SPECjbb~0%%.\n"
              "Shape checks: failure ratio rises with thread count; "
              "fine-grained stays far lower\n(writes land on other maps' "
              "locks); SPECjbb stays ~0 (share-nothing).\n");
  return 0;
}
