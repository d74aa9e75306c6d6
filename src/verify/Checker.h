//===- verify/Checker.h - Exhaustive explicit-state exploration -*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explorer behind `bench/model_check` (DESIGN.md §18): exhaustive DFS
/// over all interleavings of a ProtocolModel's threads under SC, TSO or RA,
/// with full-state hashing and an optional sleep-set partial-order
/// reduction. Safety oracles run at every visited state; a terminal state
/// with blocked-but-unfinished threads is reported as a lost wakeup. On a
/// violation the result carries a deterministic counterexample that a BFS
/// repass has minimized to the shortest trace in the state graph.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_VERIFY_CHECKER_H
#define SOLERO_VERIFY_CHECKER_H

#include <cstdint>
#include <vector>

#include "verify/Mc.h"

namespace solero {
namespace verify {

/// Exploration parameters. The defaults are the CI-bounded configuration:
/// big enough that none of the shipped protocol models comes near them
/// (their state spaces close exhaustively), small enough that a runaway
/// model terminates with Verdict::Incomplete instead of eating the host.
struct CheckConfig {
  MemSemantics Mem = MemSemantics::SC;
  /// Sleep-set partial-order reduction on the DFS. Soundness is
  /// regression-tested by ModelCheckerTest's on/off verdict equivalence.
  bool SleepSets = true;
  /// Maximum schedule depth before a path is truncated (and the run
  /// reported Incomplete). 0 means unbounded.
  uint32_t DepthBound = 4096;
  /// Transition-count valve across the whole run (DFS + minimizer).
  uint64_t MaxTransitions = 20000000;
};

/// One scheduled action in a counterexample.
struct TraceStep {
  uint8_t Tid;
  bool Flush; ///< a store-buffer flush (TSO/RA), not a program action
  const char *Label;
};

enum class Verdict : uint8_t {
  Pass,      ///< every reachable interleaving satisfies every oracle
  Violation, ///< a reachable state breaks an oracle (see Trace)
  Incomplete ///< depth bound or transition valve hit before closure
};

struct CheckResult {
  Verdict V = Verdict::Pass;
  /// Static description of the broken oracle (Violation only).
  const char *ViolationKind = nullptr;
  /// BFS-minimized schedule from the initial state to the violation.
  std::vector<TraceStep> Trace;
  uint64_t StatesVisited = 0;
  uint64_t TransitionsTaken = 0;
  uint32_t MaxDepth = 0;
};

/// Explores \p M under \p C. Deterministic: same model + config => same
/// verdict, same counts, same counterexample.
CheckResult checkModel(const ProtocolModel &M, const CheckConfig &C);

/// Applies one store-buffer flush (oldest entry) of \p Tid to \p S.
/// Exposed for trace replay; returns false when the buffer is empty.
bool applyFlush(McState &S, unsigned Tid);

/// Static label used for flush steps in traces.
extern const char *const FlushLabel;

/// Static violation text used for terminal states with blocked threads.
extern const char *const DeadlockViolation;

} // namespace verify
} // namespace solero

#endif // SOLERO_VERIFY_CHECKER_H
