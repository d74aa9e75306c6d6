//===- verify/Checker.cpp - Exhaustive explicit-state exploration ---------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "verify/Checker.h"

#include <unordered_map>

#include "support/Assert.h"

using namespace solero;
using namespace solero::verify;

const char *const solero::verify::FlushLabel = "tso.flush";
const char *const solero::verify::DeadlockViolation =
    "lost wakeup: unfinished threads are blocked forever "
    "(no enabled transition and no pending signal)";

namespace {

/// Transition ids: [0, threads) are program steps, [McMaxThreads,
/// McMaxThreads + threads) are store-buffer flushes. Fits a uint8_t mask.
constexpr unsigned MaxTrans = 2 * McMaxThreads;

struct Succ {
  McState Next;
  uint8_t Id;
  uint8_t Tid;
  bool Flush;
  const char *Label;
  uint16_t Reads;
  uint16_t Writes;
};

struct StateHash {
  size_t operator()(const McState &S) const {
    return static_cast<size_t>(S.hash());
  }
};

/// Enumerates every enabled transition of \p S in deterministic order
/// (program steps by tid, then flushes by tid). Returns the count.
unsigned enumerate(const ProtocolModel &M, MemSemantics Sem, const McState &S,
                   Succ Out[MaxTrans]) {
  unsigned N = 0;
  for (unsigned Tid = 0; Tid < M.threads(); ++Tid) {
    if (M.done(S, Tid))
      continue;
    Succ &O = Out[N];
    O.Next = S;
    Mach Mc(O.Next, Tid, Sem);
    const char *Label = "?";
    if (!M.step(O.Next, Tid, Mc, &Label))
      continue; // disabled here (guard or TSO buffer constraint)
    O.Id = static_cast<uint8_t>(Tid);
    O.Tid = static_cast<uint8_t>(Tid);
    O.Flush = false;
    O.Label = Label;
    O.Reads = Mc.readMask();
    O.Writes = Mc.writeMask();
    ++N;
  }
  if (Sem != MemSemantics::SC) {
    for (unsigned Tid = 0; Tid < M.threads(); ++Tid) {
      if (S.BufLen[Tid] == 0)
        continue;
      Succ &O = Out[N];
      O.Next = S;
      uint8_t Var = O.Next.BufVar[Tid][0];
      applyFlush(O.Next, Tid);
      O.Id = static_cast<uint8_t>(McMaxThreads + Tid);
      O.Tid = static_cast<uint8_t>(Tid);
      O.Flush = true;
      O.Label = FlushLabel;
      O.Reads = 0;
      O.Writes = static_cast<uint16_t>(1u << Var);
      ++N;
    }
  }
  return N;
}

bool allDone(const ProtocolModel &M, const McState &S) {
  for (unsigned Tid = 0; Tid < M.threads(); ++Tid)
    if (!M.done(S, Tid))
      return false;
  return true;
}

/// Footprint independence: distinct threads whose write sets touch
/// neither the other's reads nor writes. Conservative under TSO (a
/// buffered store already counts as a write of its variable), which can
/// only shrink the reduction, never unsoundly grow it.
bool independent(const Succ &A, const Succ &B) {
  if (A.Tid == B.Tid)
    return false;
  return (A.Writes & (B.Reads | B.Writes)) == 0 &&
         (B.Writes & (A.Reads | A.Writes)) == 0;
}

/// Visited-state book-keeping for DFS + sleep sets + depth bound. A state
/// may be skipped only when it was already explored with a sleep set no
/// larger than the current one (so at least as many transitions were
/// followed) and with at least as much remaining depth.
struct VisitEntry {
  uint8_t Sleep;
  uint32_t Remaining;
};

class VisitedMap {
public:
  bool covers(const McState &S, uint8_t Sleep, uint32_t Remaining) const {
    auto It = Map.find(S);
    if (It == Map.end())
      return false;
    for (const VisitEntry &E : It->second)
      if ((E.Sleep & ~Sleep) == 0 && E.Remaining >= Remaining)
        return true;
    return false;
  }

  void insert(const McState &S, uint8_t Sleep, uint32_t Remaining) {
    std::vector<VisitEntry> &Es = Map[S];
    // Drop entries the new one dominates (larger sleep, shallower reach).
    std::size_t Keep = 0;
    for (std::size_t I = 0; I < Es.size(); ++I)
      if (!((Sleep & ~Es[I].Sleep) == 0 && Remaining >= Es[I].Remaining))
        Es[Keep++] = Es[I];
    Es.resize(Keep);
    Es.push_back({Sleep, Remaining});
  }

  std::size_t size() const { return Map.size(); }

private:
  std::unordered_map<McState, std::vector<VisitEntry>, StateHash> Map;
};

struct Frame {
  McState S;
  Succ Succs[MaxTrans];
  uint8_t N = 0;
  uint8_t Next = 0;     ///< index of the next successor to try
  uint8_t Sleep = 0;    ///< transition ids promised to be covered elsewhere
  uint8_t Explored = 0; ///< ids already followed from this frame
  uint8_t ChosenIdx = 0xff; ///< successor currently being descended into
};

/// BFS over the full (unreduced) graph for the shortest path to any
/// violating state. Used only after DFS has already proven a violation
/// exists, so the graph is known to contain one within the valve.
bool minimize(const ProtocolModel &M, const CheckConfig &C, CheckResult &R) {
  struct Node {
    McState S;
    uint32_t Parent;
    uint8_t Tid;
    bool Flush;
    const char *Label;
  };
  std::vector<Node> Nodes;
  std::unordered_map<McState, uint32_t, StateHash> Seen;
  McState Init;
  Init.clear();
  M.init(Init);
  Nodes.push_back({Init, 0xffffffffu, 0, false, nullptr});
  Seen.emplace(Init, 0);

  uint64_t Budget = C.MaxTransitions;
  auto Violates = [&](const McState &S) -> const char * {
    if (const char *Why = M.invariant(S))
      return Why;
    Succ Tmp[MaxTrans];
    if (enumerate(M, C.Mem, S, Tmp) == 0 && !allDone(M, S))
      return DeadlockViolation;
    return nullptr;
  };

  for (uint32_t Head = 0; Head < Nodes.size(); ++Head) {
    // Nodes is only appended to inside this loop, so the index is stable.
    McState S = Nodes[Head].S;
    if (const char *Why = Violates(S)) {
      R.ViolationKind = Why;
      std::vector<TraceStep> Rev;
      for (uint32_t I = Head; Nodes[I].Parent != 0xffffffffu;
           I = Nodes[I].Parent)
        Rev.push_back({Nodes[I].Tid, Nodes[I].Flush, Nodes[I].Label});
      R.Trace.assign(Rev.rbegin(), Rev.rend());
      return true;
    }
    Succ Succs[MaxTrans];
    unsigned N = enumerate(M, C.Mem, S, Succs);
    for (unsigned I = 0; I < N; ++I) {
      if (Budget-- == 0)
        return false;
      auto [It, Fresh] =
          Seen.emplace(Succs[I].Next, static_cast<uint32_t>(Nodes.size()));
      if (!Fresh)
        continue;
      Nodes.push_back(
          {Succs[I].Next, Head, Succs[I].Tid, Succs[I].Flush, Succs[I].Label});
    }
  }
  return false;
}

} // namespace

bool solero::verify::applyFlush(McState &S, unsigned Tid) {
  if (S.BufLen[Tid] == 0)
    return false;
  S.Mem[S.BufVar[Tid][0]] = S.BufVal[Tid][0];
  for (unsigned I = 1; I < S.BufLen[Tid]; ++I) {
    S.BufVar[Tid][I - 1] = S.BufVar[Tid][I];
    S.BufVal[Tid][I - 1] = S.BufVal[Tid][I];
  }
  --S.BufLen[Tid];
  S.BufVar[Tid][S.BufLen[Tid]] = 0;
  S.BufVal[Tid][S.BufLen[Tid]] = 0;
  return true;
}

CheckResult solero::verify::checkModel(const ProtocolModel &M,
                                       const CheckConfig &C) {
  SOLERO_CHECK(M.threads() <= McMaxThreads, "model exceeds thread capacity");
  CheckResult R;
  VisitedMap Visited;
  std::vector<Frame> Stack;
  Stack.reserve(256);

  const uint32_t Bound = C.DepthBound == 0 ? 0xffffffffu : C.DepthBound;
  uint64_t Budget = C.MaxTransitions;
  bool Truncated = false;

  auto Push = [&](const McState &S, uint8_t Sleep,
                  uint32_t Remaining) -> bool {
    // Returns true when a violation was found at S (caller unwinds).
    if (Visited.covers(S, Sleep, Remaining))
      return false;
    Visited.insert(S, Sleep, Remaining);
    ++R.StatesVisited;
    uint32_t Depth = static_cast<uint32_t>(Stack.size());
    if (Depth > R.MaxDepth)
      R.MaxDepth = Depth;

    if (const char *Why = M.invariant(S)) {
      R.V = Verdict::Violation;
      R.ViolationKind = Why;
      return true;
    }
    Frame F;
    F.S = S;
    F.N = static_cast<uint8_t>(enumerate(M, C.Mem, S, F.Succs));
    F.Sleep = Sleep;
    if (F.N == 0) {
      if (!allDone(M, S)) {
        R.V = Verdict::Violation;
        R.ViolationKind = DeadlockViolation;
        return true;
      }
      return false; // clean terminal state
    }
    if (Remaining == 0) {
      Truncated = true; // depth bound: subtree unexplored
      return false;
    }
    Stack.push_back(F);
    return false;
  };

  McState Init;
  Init.clear();
  M.init(Init);
  if (Push(Init, 0, Bound)) {
    R.Trace.clear(); // violation in the initial state: empty schedule
    return R;
  }

  while (!Stack.empty() && R.V == Verdict::Pass) {
    Frame &F = Stack.back();
    unsigned I = F.Next;
    // Skip successors promised to be explored on a sibling branch.
    while (I < F.N && C.SleepSets && (F.Sleep & (1u << F.Succs[I].Id)) != 0)
      ++I;
    if (I >= F.N) {
      Stack.pop_back();
      continue;
    }
    F.Next = static_cast<uint8_t>(I + 1);
    F.ChosenIdx = static_cast<uint8_t>(I);
    const Succ &T = F.Succs[I];

    if (Budget-- == 0) {
      Truncated = true;
      break;
    }
    ++R.TransitionsTaken;

    // Child sleep set: everything covered elsewhere that commutes with T
    // at this state (sleep-set rule; ids not enabled here are dropped,
    // which is always sound).
    uint8_t ChildSleep = 0;
    if (C.SleepSets) {
      uint8_t Covered = F.Sleep | F.Explored;
      for (unsigned J = 0; J < F.N; ++J) {
        const Succ &U = F.Succs[J];
        if (J != I && (Covered & (1u << U.Id)) != 0 && independent(U, T))
          ChildSleep |= static_cast<uint8_t>(1u << U.Id);
      }
      F.Explored |= static_cast<uint8_t>(1u << T.Id);
    }

    uint32_t Remaining = Bound == 0xffffffffu
                             ? Bound
                             : Bound - static_cast<uint32_t>(Stack.size());
    if (Push(T.Next, ChildSleep, Remaining))
      break; // violation under this child
  }

  if (R.V == Verdict::Violation) {
    // The DFS path is a witness; replace it with the shortest one.
    std::vector<TraceStep> DfsPath;
    for (const Frame &F : Stack)
      if (F.ChosenIdx != 0xff && F.ChosenIdx < F.N) {
        const Succ &T = F.Succs[F.ChosenIdx];
        DfsPath.push_back({T.Tid, T.Flush, T.Label});
      }
    R.Trace = DfsPath;
    CheckResult Min;
    Min.V = Verdict::Violation;
    if (minimize(M, C, Min)) {
      R.Trace = std::move(Min.Trace);
      R.ViolationKind = Min.ViolationKind;
    }
    return R;
  }

  if (Truncated)
    R.V = Verdict::Incomplete;
  return R;
}
