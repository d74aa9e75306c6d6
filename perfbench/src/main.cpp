//===- perfbench/src/main.cpp - Repository benchmark entry point -------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
///             [--git-sha=SHA] [--src-digest=HEX] [--trace-dir=DIR]
///
/// Runs one workload (README.md explains each), prints a human-readable
/// report, then as the last stdout line one JSON object with the keys
/// correct, attempted, failed and metrics. --trace=0 reports the
/// end-to-end metrics, restated for the reference CPU (HostSpeed);
/// --trace=1 runs traced and untraced windows
/// interleaved and reports the per-layer metrics derived from the spans
/// and counters, plus the tracing overhead. Exits 1 when any output
/// oracle failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <sys/utsname.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "support/NumaTopology.h"

namespace perfbench {

double Samples::quantile(double Q) {
  if (V.empty())
    return 0.0;
  std::size_t Rank = static_cast<std::size_t>(std::ceil(Q * V.size()));
  std::size_t I = Rank ? std::min(Rank, V.size()) - 1 : 0;
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(I),
                   V.end());
  return V[I];
}

double Samples::midMean() {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const std::size_t Lo = V.size() / 4, Hi = std::max(Lo + 1, V.size() - Lo);
  double Sum = 0;
  for (std::size_t I = Lo; I < Hi; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(Hi - Lo);
}

std::string Samples::describe(double Scale, const char *Unit) {
  static const struct {
    const char *Name;
    double Q;
  } Pcts[] = {{"p50", 0.5}, {"p99", 0.99}, {"p99.9", 0.999},
              {"p99.99", 0.9999}};
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  std::string S = "n=" + std::to_string(N);
  const char *Top = "none";
  char Buf[96];
  for (const auto &P : Pcts) {
    std::size_t Rank = static_cast<std::size_t>(std::ceil(P.Q * N));
    std::size_t Beyond = N - Rank;
    if (Beyond < 10)
      break;
    std::snprintf(Buf, sizeof(Buf), " %s=%.3f%s(%zu beyond)", P.Name,
                  V[Rank ? Rank - 1 : 0] / Scale, Unit, Beyond);
    S += Buf;
    Top = P.Name;
  }
  std::snprintf(Buf, sizeof(Buf), " max=%.3f%s top=%s",
                N ? V.back() / Scale : 0.0, Unit, Top);
  return S + Buf;
}

namespace {
/// The reference kernel's time on the reference CPU, with four copies
/// running at once. It took 340-390 us per copy on the 4-vCPU Xeon VM the
/// benchmark was written on while that VM's host was quiet.
constexpr double RefKernelNs = 300e3;

/// The reference kernel: four independent chains of loads from a 256 KB
/// table (L2-resident), each step mixed by a multiply, so it needs both
/// load latency and execution width, as the benchmark's hash probes and
/// pointer chasing do. It calls no repository code, so a change to the
/// repository cannot speed it up.
uint64_t referenceKernel() {
  constexpr std::size_t Words = 1u << 15;
  static const std::vector<uint64_t> Table = [] {
    std::vector<uint64_t> T(Words);
    uint64_t X = 0x9e3779b97f4a7c15ULL;
    for (uint64_t &W : T) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      W = X;
    }
    return T;
  }();
  uint64_t X[4] = {1, 2, 3, 4};
  for (int I = 0; I < 40000; ++I)
    for (uint64_t &C : X)
      C = (Table[C & (Words - 1)] ^ C) * 0xbf58476d1ce4e5b9ULL + (C >> 31);
  return X[0] ^ X[1] ^ X[2] ^ X[3];
}
} // namespace

void HostSpeed::sample() {
  constexpr int Threads = 4;
  std::array<double, Threads> T{};
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<uint64_t> Sink{0};
  std::vector<std::thread> Ws;
  for (int I = 0; I < Threads; ++I)
    Ws.emplace_back([&, I] {
      pinClient(I);
      referenceKernel(); // fault in and cache the table
      Ready.fetch_add(1, std::memory_order_acq_rel);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      const uint64_t T0 = nowNs();
      Sink.fetch_add(referenceKernel(), std::memory_order_relaxed);
      T[static_cast<std::size_t>(I)] = static_cast<double>(nowNs() - T0);
    });
  while (Ready.load(std::memory_order_acquire) < Threads)
    std::this_thread::yield();
  Go.store(true, std::memory_order_release);
  for (auto &W : Ws)
    W.join();
  Ns.push_back(median(std::vector<double>(T.begin(), T.end())));
}

double HostSpeed::slowdown() const {
  return Ns.empty() ? 1.0 : median(Ns) / RefKernelNs;
}

uint16_t Tracer::name(const std::string &N) {
  int I = find(N);
  if (I >= 0)
    return static_cast<uint16_t>(I);
  Names.push_back(N);
  return static_cast<uint16_t>(Names.size() - 1);
}

int Tracer::find(const std::string &N) const {
  for (std::size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == N)
      return static_cast<int>(I);
  return -1;
}

namespace {
/// A span is a valid child of \p P when it names P as parent, belongs to
/// the same request and lies inside it (ring overwrites break all three).
bool childOf(const Span &C, const Span &P) {
  return C.Req == P.Req && C.Start >= P.Start && C.End <= P.End && C.End;
}
} // namespace

void Tracer::beginWindow() {
  for (auto &L : Lanes)
    L->reset();
}

void Tracer::endWindow() {
  std::vector<std::vector<double>> WinSelf(Names.size()), WinDur(Names.size());
  std::vector<uint64_t> Covered;
  for (const auto &L : Lanes) {
    const std::vector<Span> &S = L->spans();
    const std::size_t N = L->live();
    Covered.assign(N, 0);
    for (std::size_t I = 0; I < N; ++I)
      if (S[I].Parent != NoParent && S[I].Parent < N &&
          childOf(S[I], S[S[I].Parent]))
        Covered[S[I].Parent] += S[I].End - S[I].Start;
    for (std::size_t I = 0; I < N; ++I)
      if (S[I].End) {
        const double D = static_cast<double>(S[I].End - S[I].Start);
        WinDur[S[I].Name].push_back(D);
        WinSelf[S[I].Name].push_back(D - static_cast<double>(Covered[I]));
      }
    Overwritten += L->overwritten();
  }
  Self.resize(Names.size());
  Dur.resize(Names.size());
  for (std::size_t K = 0; K < Names.size(); ++K)
    if (!WinDur[K].empty()) {
      Self[K].push_back(median(WinSelf[K]));
      Dur[K].push_back(median(WinDur[K]));
    }
  ++Windows;
}

double Tracer::selfTime(const std::string &N) const {
  int Id = find(N);
  return Id < 0 || static_cast<std::size_t>(Id) >= Self.size() ? 0.0
                                                               : median(Self[Id]);
}

double Tracer::duration(const std::string &N) const {
  int Id = find(N);
  return Id < 0 || static_cast<std::size_t>(Id) >= Dur.size() ? 0.0
                                                              : median(Dur[Id]);
}

bool Tracer::write(const std::string &Path, const std::string &Header) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "# " << Header << "\n# lane\tspan\tname\tstart_ns\tend_ns\tparent\treq\n";
  for (std::size_t L = 0; L < Lanes.size(); ++L)
    for (std::size_t I = 0; I < Lanes[L]->live(); ++I) {
      const Span &S = Lanes[L]->spans()[I];
      F << L << '\t' << I << '\t' << Names[S.Name] << '\t' << S.Start << '\t'
        << S.End << '\t'
        << (S.Parent == NoParent ? std::string("-") : std::to_string(S.Parent))
        << '\t' << S.Req << '\n';
    }
  return static_cast<bool>(F);
}

void writeTrace(const Options &O, const Tracer &T) {
  if (O.TraceDir.empty())
    return;
  std::string Path = O.TraceDir + "/" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".tsv";
  note("trace: %d traced windows, %llu spans overwritten by ring wrap",
       T.windows(), static_cast<unsigned long long>(T.overwritten()));
  if (T.write(Path, O.Stamp))
    note("trace: last traced window's spans written to %s", Path.c_str());
  else
    note("trace: could not write %s", Path.c_str());
}

bool pinClient(int T) {
  return solero::NumaTopology::pinCurrentThreadToCpu(
      static_cast<unsigned>(T) % solero::NumaTopology::cpuCount());
}

void Result::violation(const std::string &What) {
  Correct = false;
  note("ORACLE VIOLATION: %s", What.c_str());
}

void note(const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  std::vprintf(Fmt, Ap);
  va_end(Ap);
  std::printf("\n");
}

void addPolicyCounters(Result &R, const solero::ProtocolCounters &D,
                       uint64_t Ops) {
  using solero::safeRatio;
  const double Kops = Ops ? static_cast<double>(Ops) / 1000.0 : 1.0;
  R.add("core.failure_ratio", safeRatio(D.ElisionFailures, D.ElisionAttempts),
        "ratio");
  R.add("core.useful_ratio", safeRatio(D.ElisionSuccesses, D.ReadOnlyEntries),
        "ratio");
  R.add("core.fallbacks_per_kop", static_cast<double>(D.Fallbacks.value()) / Kops,
        "1/kop");
  R.add("core.spec_retries_per_kop",
        static_cast<double>(D.SpecRetries.value()) / Kops, "1/kop");
  R.add("core.skips_per_kop", static_cast<double>(D.ElisionSkips.value()) / Kops,
        "1/kop");
  R.add("core.ctrl_transitions",
        static_cast<double>(D.CtrlThrottles + D.CtrlDisables + D.CtrlReprobes +
                            D.CtrlReenables),
        "count");
  R.add("locks.rmw_per_op", safeRatio(D.AtomicRmws, Ops), "1/op");
  R.add("locks.stores_per_op", safeRatio(D.LockWordStores, Ops), "1/op");
}

void addRuntimeCounters(Result &R, const solero::ProtocolCounters &D,
                        uint64_t Ops) {
  const double Kops = Ops ? static_cast<double>(Ops) / 1000.0 : 1.0;
  R.add("runtime.inflations_per_kop",
        static_cast<double>(D.Inflations.value()) / Kops, "1/kop");
  R.add("runtime.deflations_per_kop",
        static_cast<double>(D.Deflations.value()) / Kops, "1/kop");
  R.add("runtime.flc_waits_per_kop",
        static_cast<double>(D.FlcWaits.value()) / Kops, "1/kop");
}

} // namespace perfbench

using namespace perfbench;

namespace {

std::string readCpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0) {
      std::size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

/// The host and build stamp printed with every result.
std::string stamp(const std::string &GitSha, const std::string &Digest) {
  utsname U{};
  uname(&U);
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"nproc\": %u, \"cpu_model\": \"%s\", \"numa_nodes\": %u, "
      "\"kernel\": \"%s %s\", \"build_type\": \"%s\", "
      "\"injection_points\": \"on\", \"git_sha\": \"%s\", "
      "\"src_digest\": \"%s\"}",
      solero::NumaTopology::cpuCount(), jsonEscape(readCpuModel()).c_str(),
      solero::NumaTopology::instance().nodeCount(), U.sysname, U.release,
      PERFBENCH_BUILD_TYPE, jsonEscape(GitSha).c_str(),
      jsonEscape(Digest).c_str());
  return Buf;
}

void printResult(const Result &R) {
  std::string J = "{\"correct\": ";
  J += R.Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  char Buf[64];
  for (std::size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    const char *Eq = std::strchr(A, '=');
    if (std::strncmp(A, "--", 2) != 0 || !Eq) {
      std::fprintf(stderr, "perfbench: expected --flag=value, got '%s'\n", A);
      return 2;
    }
    Args[std::string(A + 2, Eq)] = Eq + 1;
  }
  Options O;
  O.Workload = Args["workload"];
  O.Seed = std::strtoull(Args.count("seed") ? Args["seed"].c_str() : "1",
                         nullptr, 10);
  O.Seconds = std::atof(Args.count("seconds") ? Args["seconds"].c_str() : "10");
  O.Trace = Args["trace"] == "1";
  O.TraceDir = Args["trace-dir"];
  if (O.Seconds < 1 || O.Seconds > 60) {
    std::fprintf(stderr, "perfbench: --seconds must be in [1, 60]\n");
    return 2;
  }

  const std::string Stamp =
      stamp(Args.count("git-sha") ? Args["git-sha"] : "none",
            Args.count("src-digest") ? Args["src-digest"] : "none");
  O.Stamp = Stamp;
  note("stamp %s", Stamp.c_str());
  note("run workload=%s seed=%llu seconds=%g trace=%d", O.Workload.c_str(),
       static_cast<unsigned long long>(O.Seed), O.Seconds, O.Trace ? 1 : 0);

  static const struct {
    const char *Name;
    unsigned WritePercent;
    MapPolicy Policy;
  } MapWorkloads[] = {
      {"map-readonly-solero", 0, MapPolicy::Solero},
      {"map-readonly-adaptive", 0, MapPolicy::Adaptive},
      {"map-readonly-bravo", 0, MapPolicy::Bravo},
      {"map-contended-solero", 5, MapPolicy::Solero},
      {"map-contended-adaptive", 5, MapPolicy::Adaptive},
      {"map-contended-bravo", 5, MapPolicy::Bravo},
  };
  Result R;
  const auto *Map = std::find_if(
      std::begin(MapWorkloads), std::end(MapWorkloads),
      [&](const auto &W) { return O.Workload == W.Name; });
  if (Map != std::end(MapWorkloads))
    R = runMapWorkload(O, Map->WritePercent, Map->Policy);
  else if (O.Workload == "kv-open-loop")
    R = runKvOpenLoop(O);
  else if (O.Workload == "guest-config")
    R = runGuestConfig(O);
  else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (R.Failed)
    R.Correct = false;
  // The end-to-end metrics, restated for the reference CPU (HostSpeed).
  const double Slow = R.Speed.slowdown();
  note("host speed: reference kernel %.4g x the reference CPU's time",
       Slow);
  for (Metric &M : R.Metrics) {
    const double Raw = M.Value;
    if (M.Name == "ops_per_s")
      M.Value *= Slow;
    else if (M.Name == "setup_s" || M.Name == "latency_us")
      M.Value /= Slow;
    else
      continue;
    note("%s %.6g %s as measured, %.6g on the reference CPU", M.Name.c_str(),
         Raw, M.Unit.c_str(), M.Value);
  }
  std::fflush(stdout);
  printResult(R);
  return R.Correct ? 0 : 1;
}
