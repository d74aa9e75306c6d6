//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the clock,
/// exact percentiles, the span tracer of
/// the traced run, the client pinning, the stream digest of the
/// determinism self-check, and
/// the result that main() prints as the final JSON line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "runtime/ThreadRegistry.h"
#include "support/Stats.h"

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceDir; ///< where the traced run writes its spans
  std::string Stamp;    ///< host and build stamp (JSON object)
};

/// The share of the machine's CPU time since construction that was left
/// to this process: 1 minus the time other processes ran and the time the
/// hypervisor took for other guests (steal), over the time of all online
/// CPUs, from /proc/stat and the process's own CPU time.
///
/// On a shared host the hypervisor runs other guests on the vCPUs, and
/// other processes may run on the same VM. While a closed loop kept all
/// four vCPUs of the VM this benchmark was written on busy, steal alone
/// took between about 2% and 27% of their time, a share that moved from
/// minute to minute. Dividing a closed loop's throughput by the share left
/// gives its throughput on CPUs the clients had to themselves, which that
/// churn does not move. A CPU that sits idle while a client blocks is
/// counted as left to the process, so blocking is not mistaken for
/// interference.
class CpuShare {
public:
  CpuShare() : Start(sample()) {}
  double left() const {
    const Sample End = sample();
    const double Total = static_cast<double>(End.Total - Start.Total);
    const double Others = static_cast<double>(End.Busy - Start.Busy) -
                          static_cast<double>(End.OwnNs - Start.OwnNs) *
                              TicksPerNs;
    return Total > 0 ? std::clamp(1.0 - Others / Total, 0.05, 1.0) : 1.0;
  }

private:
  struct Sample {
    uint64_t Busy = 0, Total = 0; ///< /proc/stat ticks, all CPUs
    uint64_t OwnNs = 0;           ///< this process's CPU time
  };
  static inline const double TicksPerNs =
      static_cast<double>(sysconf(_SC_CLK_TCK)) * 1e-9;

  /// /proc/stat's aggregate cpu line: user nice system idle iowait irq
  /// softirq steal. Busy is all but idle and iowait.
  static Sample sample() {
    Sample S;
    timespec T{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
    S.OwnNs = static_cast<uint64_t>(T.tv_sec) * 1'000'000'000u +
              static_cast<uint64_t>(T.tv_nsec);
    std::ifstream F("/proc/stat");
    std::string Cpu;
    uint64_t X[8] = {};
    F >> Cpu;
    for (uint64_t &V : X)
      F >> V;
    if (!F || Cpu != "cpu")
      return S;
    S.Busy = X[0] + X[1] + X[2] + X[5] + X[6] + X[7];
    S.Total = S.Busy + X[3] + X[4];
    return S;
  }
  Sample Start;
};

/// How fast this host ran, measured against a reference CPU during the
/// run. The share of the CPU time a process gets (CpuShare) is not all of
/// it: on the VM this benchmark was written on, the speed of a vCPU
/// itself moved by up to about 2x within minutes, likely as other
/// tenants' load on the physical cores came and went. Single-threaded
/// set-up, map ops, GETs and scans all moved together with it. So the run
/// times a
/// fixed reference kernel, which calls no repository code, before every
/// window on 4 pinned threads at once, and the end-to-end metrics are
/// restated for the reference CPU: the one on which the kernel takes
/// RefKernelNs.
class HostSpeed {
public:
  /// Times the kernel on 4 pinned threads at once; records the median of
  /// their times.
  void sample();
  /// The median sampled kernel time over RefKernelNs: above 1 when the
  /// host ran slower than the reference CPU (1 when nothing was sampled).
  double slowdown() const;

private:
  std::vector<double> Ns;
};

/// The mean time in us an op spends in a closed loop of \p Clients that
/// issue their next op as soon as the last is done, at \p OpsPerSec
/// (Little's law; 0 when nothing completed).
inline double closedLoopLatencyUs(int Clients, double OpsPerSec) {
  return OpsPerSec > 0 ? Clients * 1e6 / OpsPerSec : 0.0;
}

/// Median of \p V (0 when empty).
inline double median(const std::vector<double> &V) {
  return V.empty() ? 0.0 : solero::quantile(V, 0.5);
}

/// The tag in the high 32 bits of every map and KV value the benchmark
/// stores, derived from the key: a read that returns another key's value,
/// or a torn one, fails the tag check.
inline uint32_t keyTag(uint64_t Key) {
  uint64_t Z = Key * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 29)) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<uint32_t>(Z >> 32) | 1u;
}
inline uint64_t taggedValue(uint64_t Key, uint64_t Low) {
  return (static_cast<uint64_t>(keyTag(Key)) << 32) | (Low & 0xffffffffu);
}
inline bool tagMatches(uint64_t Key, uint64_t Value) {
  return static_cast<uint32_t>(Value >> 32) == keyTag(Key);
}

/// FNV-1a over 64-bit words: the digest of a generated request stream.
class StreamDigest {
public:
  void add(uint64_t W) {
    for (int I = 0; I < 8; ++I) {
      H ^= (W >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// Recorded latencies in ns with exact nearest-rank percentiles. An order
/// statistic always lies within [min, max] of what was recorded, which
/// support/LatencyHistogram's bucket midpoints do not (its p99.9 can
/// exceed its own max), so the benchmark keeps the samples instead.
class Samples {
public:
  void reserve(std::size_t N) { V.reserve(N); }
  void record(uint64_t Ns) {
    V.push_back(Ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(Ns));
  }
  void append(const Samples &O) { V.insert(V.end(), O.V.begin(), O.V.end()); }
  /// The nearest-rank \p Q quantile in ns (0 when empty). Reorders the
  /// samples.
  double quantile(double Q);
  /// The interquartile mean in ns: the mean of the samples between the
  /// 25th and the 75th percentile (0 when empty). Like the median it
  /// ignores both tails, but it does not move in whole clock ticks.
  /// Reorders the samples.
  double midMean();
  /// "n=… p50=…(k beyond) p99=… max=… top=p99" in \p Scale units: each
  /// percentile that has at least ten samples beyond it, with that count,
  /// and the highest such percentile.
  std::string describe(double Scale, const char *Unit);

private:
  std::vector<uint32_t> V;
};

// --- Tracing ---------------------------------------------------------------

/// One span: a named interval on one thread, its parent span (an index in
/// the same lane, or NoParent) and the request it belongs to.
struct Span {
  uint64_t Start = 0;
  uint64_t End = 0; ///< 0 while open (an aborted speculative body stays 0)
  uint64_t Req = 0;
  uint32_t Parent = 0;
  uint16_t Name = 0;
};
constexpr uint32_t NoParent = std::numeric_limits<uint32_t>::max();

/// A per-thread ring of the spans of one traced window. Recording never
/// allocates. The ring is sized for a whole window at the sampling rates
/// used; should a window outgrow it, its oldest spans are overwritten and
/// counted.
class Lane {
public:
  static constexpr std::size_t Capacity = 1u << 17;
  Lane() : Ring(Capacity) {}
  uint32_t open(uint16_t Name, uint32_t Parent, uint64_t Req) {
    uint32_t I = static_cast<uint32_t>(Count++ & (Capacity - 1));
    Ring[I] = Span{nowNs(), 0, Req, Parent, Name};
    return I;
  }
  void close(uint32_t I) { Ring[I].End = nowNs(); }
  void reset() { Count = 0; }
  const std::vector<Span> &spans() const { return Ring; }
  std::size_t live() const {
    return Count < Capacity ? static_cast<std::size_t>(Count) : Capacity;
  }
  uint64_t overwritten() const { return Count - live(); }

private:
  std::vector<Span> Ring;
  uint64_t Count = 0;
};

/// Owns the span name table and the lanes. Names and lanes are created
/// before measurement; each lane is written by one thread only.
///
/// Spans are summarised per traced window: beginWindow() empties the
/// lanes, endWindow() adds the window's median duration and median self
/// time (span minus the child spans it covers) of every span name, and a
/// metric is the median of those over the traced windows, like the
/// untraced metrics. The lanes keep the last traced window's spans, which
/// write() puts out.
class Tracer {
public:
  uint16_t name(const std::string &N);
  Lane &lane(std::size_t Idx) {
    while (Lanes.size() <= Idx)
      Lanes.push_back(std::make_unique<Lane>());
    return *Lanes[Idx];
  }
  void beginWindow();
  void endWindow();
  /// Median over traced windows of the window's median self time of the
  /// spans named \p N, in ns (0 when none was recorded).
  double selfTime(const std::string &N) const;
  /// The same for the spans' durations.
  double duration(const std::string &N) const;
  int windows() const { return Windows; }
  uint64_t overwritten() const { return Overwritten; }
  /// Writes the last traced window's spans as TSV; false on I/O failure.
  bool write(const std::string &Path, const std::string &Header) const;

private:
  int find(const std::string &N) const;
  std::vector<std::string> Names;
  std::vector<std::unique_ptr<Lane>> Lanes;
  /// Per name, one median per traced window that recorded the name.
  std::vector<std::vector<double>> Self, Dur;
  int Windows = 0;
  uint64_t Overwritten = 0;
};

/// Pins closed-loop client \p T to its own CPU (T modulo the CPUs this
/// process may use), so the clients of a window never share a CPU and the
/// placement is the same in every window and run. Harmless where pinning
/// is refused.
bool pinClient(int T);

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// What a workload run produced; main() prints it as the final JSON line.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  HostSpeed Speed; ///< sampled by the workload before every window

  void add(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Records an oracle violation: the run is incorrect and exits nonzero.
  void violation(const std::string &What);
};

/// Writes \p T's last traced window to TraceDir/<workload>-seed<N>.tsv and
/// notes the path and the tracer's window count; a write failure is
/// reported but does not fail the run.
void writeTrace(const Options &O, const Tracer &T);

/// Prints one human-readable report line (stdout, before the JSON).
void note(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// The protocol-counter ratios over \p Ops operations: core.* (0 where no
/// SOLERO-family lock ran), locks.rmw_per_op and locks.stores_per_op.
void addPolicyCounters(Result &R, const solero::ProtocolCounters &D,
                       uint64_t Ops);
/// runtime.* rates over \p Ops operations.
void addRuntimeCounters(Result &R, const solero::ProtocolCounters &D,
                        uint64_t Ops);

/// The lock policy guarding the map of a map-* workload.
enum class MapPolicy { Solero, Adaptive, Bravo };

Result runMapWorkload(const Options &O, unsigned WritePercent,
                      MapPolicy Policy);
Result runKvOpenLoop(const Options &O);
Result runGuestConfig(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
