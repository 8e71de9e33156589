//===- perfbench/Main.cpp - The repository benchmark ----------------------===//
//
// Part of the chute project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the public API (parseProgram, Verifier, Verifier::checkProof,
/// gen::generateSuite, daemon::Server/Client) from one process and
/// times every call from outside. See perfbench/README.md for the
/// workloads, the metric definitions and the layer-to-metric map.
///
///   chute_perfbench --workload W --seed N --seconds S --trace 0|1
///                   [--spans PATH] [--work-dir DIR]
///
/// Every timed metric is built from per-row (or per-pass) medians over
/// passes interleaved inside one run: all rows, then all rows again.
/// Single passes on a shared VM vary by up to 2x per row; medians over
/// interleaved passes do not. What medians cannot cancel is the host's
/// drift between runs, so reported times are scaled by a host speed
/// reference measured during the run in a helper process (HostReference);
/// the raw times are printed too.
///
/// The last line of standard output is the result object
/// {"correct", "attempted", "failed", "metrics"}; the lines before it
/// are a human-readable report (every verdict failure, every unknown
/// row's FailureInfo, the count fingerprint of the run).
///
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "corpus/Corpus.h"
#include "daemon/Client.h"
#include "daemon/Server.h"
#include "expr/Expr.h"
#include "gen/Generator.h"
#include "obs/Trace.h"
#include "program/Parser.h"
#include "support/TaskPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <z3.h>

using namespace chute;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         1e-9 * static_cast<double>(Ts.tv_nsec);
}

double peakRssMb() {
  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile (numpy's default), \p Q in [0,1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  auto Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return S;
}

//===----------------------------------------------------------------------===//
// Host speed reference
//===----------------------------------------------------------------------===//

/// Typical time of the reference problem on the 4-vCPU host the bounds
/// in BENCHMARK.json were measured on: one solve, and four at once.
constexpr double NominalRefMs = 11.0;
constexpr double NominalParallelRefMs = 40.0;

/// A fixed Z3 problem solved outside chute, between the timed calls of a
/// run: 5 pigeons in 4 holes over linear integer arithmetic (unsat). Z3
/// takes about 90% of chute's time, so the reference slows down with the
/// host the same way the workloads do. Medians over interleaved passes
/// cancel noise within a run, but not the host's drift from one run to
/// the next (about 10% between runs minutes apart); dividing by the
/// run's median reference time does.
///
/// The solves run in a helper process, forked before any chute work and
/// driven over a pipe. It shares only the host with the program under
/// test: not its Z3 state, its allocator, its caches or its threads. So
/// a change that grows chute's memory or leaves its threads busy does
/// not slow the reference, and its regression shows in full. A single
/// solve runs on the CPU the benchmark's thread was on when it asked,
/// which waits for the answer meanwhile: a shared VM slows its vCPUs
/// unevenly, and the reference must see the one the workload ran on.
///
/// A parallel workload's wall time also depends on how many cores the
/// host leaves it, so for one the helper solves Width copies at once,
/// one per thread and on no CPU in particular, and times the batch.
class HostReference {
public:
  /// Forks the helper; call while the process has a single thread.
  HostReference(unsigned Width, double NominalMs)
      : Width(std::max(1u, Width)), NominalMs(NominalMs) {
    int ToHelper[2], FromHelper[2];
    if (pipe(ToHelper) != 0 || pipe(FromHelper) != 0)
      return;
    Helper = fork();
    if (Helper == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      close(ToHelper[1]);
      close(FromHelper[0]);
      serve(ToHelper[0], FromHelper[1], this->Width);
      _exit(0);
    }
    close(ToHelper[0]);
    close(FromHelper[1]);
    if (Helper < 0) {
      close(ToHelper[1]);
      close(FromHelper[0]);
      return;
    }
    Request = ToHelper[1];
    Reply = FromHelper[0];
  }
  /// Closes the pipe, which ends the helper, and waits for it.
  ~HostReference() {
    if (Helper <= 0)
      return;
    close(Request);
    close(Reply);
    int Status = 0;
    waitpid(Helper, &Status, 0);
  }
  HostReference(const HostReference &) = delete;
  HostReference &operator=(const HostReference &) = delete;

  /// Has the helper solve the reference once on every context; false
  /// when Z3 does not answer unsat or the helper is gone.
  bool sample() {
    int Cpu = Width == 1 ? sched_getcpu() : -1;
    const auto Size = static_cast<ssize_t>(sizeof(Cpu));
    Answer A;
    if (Helper <= 0 || write(Request, &Cpu, sizeof(Cpu)) != Size ||
        !readAll(Reply, &A, sizeof(A)) || !A.Unsat)
      return false;
    Ms.push_back(A.Ms);
    return true;
  }

  /// Samples once, plus once per RefEveryS of \p WorkS, so that the
  /// reference weighs each stretch of the run by its length.
  bool sampleAfter(double WorkS) {
    bool Ok = true;
    for (double Left = WorkS; Ok; Left -= RefEveryS) {
      Ok = sample();
      if (Left < RefEveryS)
        break;
    }
    return Ok;
  }

  double medianMs() const { return median(Ms); }
  std::size_t samples() const { return Ms.size(); }
  /// Factor that turns this host's times into reference-host times.
  double factor() const { return Ms.empty() ? 1.0 : NominalMs / medianMs(); }
  double nominalMs() const { return NominalMs; }

private:
  struct Answer {
    double Ms;
    bool Unsat;
  };

  static bool readAll(int Fd, void *Buf, std::size_t N) {
    auto *P = static_cast<char *>(Buf);
    while (N > 0) {
      ssize_t Got = read(Fd, P, N);
      if (Got <= 0)
        return false;
      P += Got;
      N -= static_cast<std::size_t>(Got);
    }
    return true;
  }

  /// The helper's loop: one batch of Width solves per request, which
  /// names the CPU to solve on (or -1), until the pipe closes.
  static void serve(int In, int Out, unsigned Width) {
    std::vector<Z3_context> Ctxs;
    for (unsigned I = 0; I < Width; ++I) {
      Z3_config Cfg = Z3_mk_config();
      Ctxs.push_back(Z3_mk_context(Cfg));
      Z3_del_config(Cfg);
    }
    int Cpu;
    while (readAll(In, &Cpu, sizeof(Cpu))) {
      if (Cpu >= 0) {
        cpu_set_t Set;
        CPU_ZERO(&Set);
        CPU_SET(Cpu, &Set);
        sched_setaffinity(0, sizeof(Set), &Set);
      }
      auto T0 = Clock::now();
      std::atomic<bool> Unsat{solveOn(Ctxs[0])};
      std::vector<std::thread> Threads;
      for (std::size_t I = 1; I < Ctxs.size(); ++I)
        Threads.emplace_back([&Ctxs, I, &Unsat] {
          if (!solveOn(Ctxs[I]))
            Unsat = false;
        });
      for (auto &Th : Threads)
        Th.join();
      Answer A{secondsSince(T0) * 1e3, Unsat};
      if (write(Out, &A, sizeof(A)) != static_cast<ssize_t>(sizeof(A)))
        break;
    }
    for (Z3_context C : Ctxs)
      Z3_del_context(C);
  }

  static bool solveOn(Z3_context Ctx) {
    constexpr int Holes = 4;
    Z3_solver S = Z3_mk_solver(Ctx);
    Z3_solver_inc_ref(Ctx, S);
    Z3_sort Int = Z3_mk_int_sort(Ctx);
    std::vector<Z3_ast> X;
    for (int I = 0; I <= Holes; ++I) {
      X.push_back(Z3_mk_const(Ctx, Z3_mk_int_symbol(Ctx, I), Int));
      Z3_solver_assert(Ctx, S, Z3_mk_ge(Ctx, X[I], Z3_mk_int(Ctx, 1, Int)));
      Z3_solver_assert(Ctx, S, Z3_mk_le(Ctx, X[I], Z3_mk_int(Ctx, Holes, Int)));
    }
    for (int I = 0; I <= Holes; ++I)
      for (int J = I + 1; J <= Holes; ++J)
        Z3_solver_assert(Ctx, S, Z3_mk_not(Ctx, Z3_mk_eq(Ctx, X[I], X[J])));
    bool Unsat = Z3_solver_check(Ctx, S) == Z3_L_FALSE;
    Z3_solver_dec_ref(Ctx, S);
    return Unsat;
  }

  static constexpr double RefEveryS = 0.5;
  unsigned Width;
  double NominalMs;
  pid_t Helper = -1;
  int Request = -1;
  int Reply = -1;
  std::vector<double> Ms;
};

//===----------------------------------------------------------------------===//
// Benchmark spans: kept in memory, written once at exit
//===----------------------------------------------------------------------===//

/// The benchmark's own spans around each call into the program: name,
/// start, end, parent span and the row or request id. Disabled spans
/// cost one branch.
class SpanLog {
public:
  explicit SpanLog(bool On) : On(On), Epoch(Clock::now()) {}

  /// Opens a span; returns its index (or -1 when disabled).
  long open(const char *Name, long Parent, long Item) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back({Name, nowUs(), -1.0, Parent, Item, threadTag()});
    return static_cast<long>(Spans.size() - 1);
  }

  void close(long Index) {
    if (Index < 0)
      return;
    double End = nowUs();
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[static_cast<std::size_t>(Index)].EndUs = End;
  }

  std::size_t size() const { return Spans.size(); }

  /// Writes JSON lines with the keys id, name, start_us, end_us,
  /// parent, item and thread.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
          << "\",\"start_us\":" << S.StartUs << ",\"end_us\":" << S.EndUs
          << ",\"parent\":" << S.Parent << ",\"item\":" << S.Item
          << ",\"thread\":" << S.Thread << "}\n";
    }
    return static_cast<bool>(Out);
  }

private:
  struct Span {
    const char *Name;
    double StartUs;
    double EndUs;
    long Parent;
    long Item;
    std::size_t Thread;
  };

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }
  static std::size_t threadTag() {
    return std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000;
  }

  bool On;
  Clock::time_point Epoch;
  std::mutex Mu;
  std::vector<Span> Spans;
};

/// Scoped span over SpanLog.
class Scope {
public:
  Scope(SpanLog &L, const char *Name, long Parent, long Item)
      : L(L), Index(L.open(Name, Parent, Item)) {}
  ~Scope() { L.close(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  long index() const { return Index; }

private:
  SpanLog &L;
  long Index;
};

//===----------------------------------------------------------------------===//
// Result reporting
//===----------------------------------------------------------------------===//

class Metrics {
public:
  void put(const std::string &Name, double Value, const std::string &Unit) {
    Entries.push_back({Name, Value, Unit});
  }

  /// Scales every time by \p F and every rate by 1/\p F.
  void scaleTimes(double F) {
    for (Entry &E : Entries) {
      if (E.Unit == "s" || E.Unit == "ms" || E.Unit == "us")
        E.Value *= F;
      else if (E.Unit == "1/s")
        E.Value /= F;
    }
  }

  /// Human-readable table, one metric per line.
  void print(std::ostream &OS) const {
    for (const Entry &E : Entries) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.6g", E.Value);
      OS << "  " << E.Name << " = " << Buf << " " << E.Unit << "\n";
    }
  }

  std::string json() const {
    std::ostringstream OS;
    OS << "{";
    for (std::size_t I = 0; I < Entries.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", Entries[I].Value);
      OS << (I ? ", " : "") << "\"" << Entries[I].Name
         << "\": {\"value\": " << Buf << ", \"unit\": \"" << Entries[I].Unit
         << "\"}";
    }
    OS << "}";
    return OS.str();
  }

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

struct Row {
  unsigned Id = 0;
  std::string Program;
  std::string Property;
  bool ExpectHolds = true;
};

/// Figure 6 programs used by every fig6-based workload. The paper's
/// table pairs program K's property (row K) with its negation (row
/// K + 27). Programs 1-9 with both polarities (rows 1-9 and 28-36)
/// take about 2 s per pass, so one run affords about ten interleaved
/// passes; the full table takes about 25 s per pass. See README.md.
constexpr unsigned Fig6Programs = 9;
constexpr unsigned Fig6Base = 27;

std::vector<Row> fig6Rows() {
  std::vector<Row> Out;
  const auto &All = corpus::fig6Rows();
  for (const auto &R : All) {
    unsigned Program = R.Id > Fig6Base ? R.Id - Fig6Base : R.Id;
    if (Program <= Fig6Programs)
      Out.push_back({R.Id, R.Program, R.Property, R.ExpectHolds});
  }
  return Out;
}

/// The generator layer is timed in the traced run of the in-process
/// workloads: the suite bench_generated draws by default (its seed and
/// count), so the cases are the rows of BENCH_generated.json.
constexpr std::uint64_t GenSeed = 0xc407e0001ull;
constexpr unsigned GenCount = 40;

/// Per-row budget, far above the slowest row (about 3.5 s), so that
/// host noise cannot flip a verdict to unknown.
constexpr unsigned RowBudgetMs = 60000;

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 20.0;
  bool Trace = false;
  std::string SpansPath;
};

//===----------------------------------------------------------------------===//
// In-process workloads: fig6-seq, fig6-par
//===----------------------------------------------------------------------===//

/// The per-row counts the repeat guard compares across passes.
struct Counts {
  std::uint64_t V[10] = {};
  static constexpr const char *Names[10] = {
      "rounds",       "refinements", "backtracks", "cache_hits",
      "cache_misses", "core_hits",   "inc_checks", "inc_resets",
      "retries",      "verdict"};

  static Counts of(const VerifyResult &R) {
    Counts C;
    C.V[0] = R.Rounds;
    C.V[1] = R.Refinements;
    C.V[2] = R.Backtracks;
    C.V[3] = R.CacheStats.Hits;
    C.V[4] = R.CacheStats.Misses;
    C.V[5] = R.CacheStats.CoreHits;
    C.V[6] = R.SessionStats.Checks;
    C.V[7] = R.SessionStats.Resets;
    C.V[8] = R.SmtStats.Retries;
    C.V[9] = static_cast<std::uint64_t>(R.V);
    return C;
  }
  bool operator==(const Counts &O) const {
    return std::equal(std::begin(V), std::end(V), std::begin(O.V));
  }
  std::string str() const {
    std::string S;
    for (unsigned I = 0; I < 10; ++I)
      S += std::string(I ? " " : "") + Names[I] + "=" + std::to_string(V[I]);
    return S;
  }
};

/// One verify() call's observations.
struct Sample {
  double WallS = 0.0;
  double CpuS = 0.0;
  Counts C;
  obs::TraceSummary Trace;
  bool Traced = false;
};

struct RowState {
  std::vector<double> SetupMs; ///< parse + Verifier construction
  std::vector<double> ParseMs;
  std::vector<double> CtorMs;
  std::vector<Sample> Samples;
  std::vector<double> CheckMs;
};

struct Tally {
  unsigned Attempted = 0;
  unsigned Failed = 0;
  unsigned Decided = 0;
  void fail(const std::string &Why) {
    ++Failed;
    std::cout << "FAIL " << Why << "\n";
  }
};

/// Shuffled visiting order for one pass ("staggered"), drawn from the
/// run seed and the pass index. Every pass still visits every row.
std::vector<std::size_t> passOrder(std::size_t N, std::uint64_t Seed,
                                   unsigned Pass) {
  std::vector<std::size_t> Order(N);
  for (std::size_t I = 0; I < N; ++I)
    Order[I] = I;
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + Pass);
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

/// Set-up repetitions per row visit (parse plus Verifier construction),
/// and per traced pass for the generator. Spread over every pass, so
/// set-up is timed under the same host conditions as verify().
constexpr unsigned SetupReps = 5;
/// Interleaved passes every run makes at least; more while --seconds
/// allows.
constexpr unsigned MinPasses = 3;

/// The inclusive per-layer times and counts of the program's tracer.
void putTraceLayers(Metrics &M, const obs::TraceSummary &T) {
  using obs::Category;
  using obs::Counter;
  static const std::pair<const char *, Category> Times[] = {
      {"core.refine_us", Category::Refine},
      {"core.universal_us", Category::Universal},
      {"core.synth_us", Category::Synth},
      {"analysis.rcr_us", Category::Rcr},
      {"analysis.path_search_us", Category::PathSearch},
      {"qe.us", Category::Qe},
      {"smt.us", Category::Smt}};
  static const std::pair<const char *, Counter> Counts[] = {
      {"qe.fm_calls", Counter::QeFourierMotzkin},
      {"qe.z3_calls", Counter::QeZ3Tactic},
      {"analysis.path_searches", Counter::PathSearches},
      {"analysis.rcr_checks", Counter::RcrChecks},
      {"core.obligations", Counter::Obligations}};
  for (const auto &[Name, C] : Times)
    M.put(Name, static_cast<double>(T.of(C).Micros), "us");
  for (const auto &[Name, C] : Counts)
    M.put(Name, static_cast<double>(T.count(C)), "count");
}

/// Daemon-only layer metrics, zero on the in-process workloads (the
/// result object carries every per-layer metric on every workload).
void putDaemonLayersAbsent(Metrics &M) {
  for (const char *N : {"daemon.server_verify_ms.p50", "daemon.overhead_ms.p50",
                        "daemon.stop_ms"})
    M.put(N, 0.0, "ms");
  for (const char *N : {"daemon.queued", "daemon.shed",
                        "daemon.programs_interned", "daemon.disk_loads",
                        "daemon.disk_saves"})
    M.put(N, 0.0, "count");
  M.put("daemon.prime_s", 0.0, "s");
}

/// What one workload run reports.
struct Outcome {
  Metrics M;
  unsigned Attempted = 0;
  unsigned Failed = 0;
  bool Correct = false;
};

/// Times one gen::generateSuite draw into \p GenMs; false when it
/// differs from the non-empty \p Prev it replaces (generation must be
/// deterministic).
bool timeGenerator(std::vector<gen::GeneratedCase> &Prev,
                   std::vector<double> &GenMs) {
  auto T0 = Clock::now();
  std::vector<gen::GeneratedCase> Drawn = gen::generateSuite(GenSeed, GenCount);
  GenMs.push_back(secondsSince(T0) * 1e3);
  using Case = gen::GeneratedCase;
  bool Same = Prev.empty() ||
              std::equal(Prev.begin(), Prev.end(), Drawn.begin(), Drawn.end(),
                         [](const Case &X, const Case &Y) {
                           return X.Source == Y.Source &&
                                  X.Property == Y.Property &&
                                  X.ExpectHolds == Y.ExpectHolds;
                         });
  Prev = std::move(Drawn);
  return Same;
}

/// Parses and constructs a Verifier for \p R, timing both.
std::unique_ptr<Verifier> setUp(const Row &R, const VerifierOptions &Opts,
                                ExprContext &Ctx,
                                std::unique_ptr<Program> &Prog,
                                RowState &St, std::string &Err) {
  auto T0 = Clock::now();
  Prog = parseProgram(Ctx, R.Program, Err);
  double ParseMs = secondsSince(T0) * 1e3;
  if (!Prog)
    return nullptr;
  auto T1 = Clock::now();
  auto V = std::make_unique<Verifier>(*Prog, Opts);
  double CtorMs = secondsSince(T1) * 1e3;
  St.ParseMs.push_back(ParseMs);
  St.CtorMs.push_back(CtorMs);
  St.SetupMs.push_back(ParseMs + CtorMs);
  return V;
}

/// Runs an in-process workload over \p Rows. Every row has a definite
/// expected verdict, so an unknown verdict is a failure.
Outcome runInProcess(const Args &A, const std::vector<Row> &Rows,
                     unsigned Jobs, HostReference &Ref, SpanLog &Spans) {
  const bool RepeatGuard = Jobs == 1;
  std::vector<double> GenMs;
  std::vector<gen::GeneratedCase> Drawn;
  const std::size_t N = Rows.size();
  std::vector<RowState> St(N);
  Tally T;
  if (N == 0) {
    T.fail("workload has no rows");
    return {Metrics(), 1, 1, false};
  }
  bool Repeats = true;
  Scope RunSp(Spans, "run", -1, -1);

  VerifierOptions Opts;
  Opts.Jobs = Jobs;
  Opts.BudgetMs = RowBudgetMs;
  TaskPool::configureGlobal(Jobs);
  obs::Tracer::global().disable();

  // Timed passes. In a traced run, passes alternate untraced/traced so
  // the tracing overhead is measured inside the run.
  auto Start = Clock::now();
  unsigned Passes = 0;
  double LastPassS = 0.0;
  while (Passes < MinPasses ||
         secondsSince(Start) + LastPassS <= A.Seconds) {
    bool Traced = A.Trace && Passes % 2 == 1;
    if (Traced)
      obs::Tracer::global().enable(obs::TraceLevel::Stats);
    else
      obs::Tracer::global().disable();
    auto PassT0 = Clock::now();
    Scope PassSp(Spans, Traced ? "pass-traced" : "pass", RunSp.index(), Passes);
    // The generator layer, timed in traced runs only: outside set-up
    // and outside every verify() call.
    for (unsigned Rep = 0; A.Trace && Rep < SetupReps; ++Rep) {
      Scope Sp(Spans, "generateSuite", PassSp.index(), Rep);
      if (!timeGenerator(Drawn, GenMs))
        T.fail("generateSuite drew different cases on repetition");
    }
    for (std::size_t I : passOrder(N, A.Seed, Passes)) {
      const Row &R = Rows[I];
      Scope RowSp(Spans, "row", PassSp.index(), R.Id);
      ++T.Attempted;
      std::string Err;
      for (unsigned Rep = 1; Rep < SetupReps; ++Rep) {
        Scope Sp(Spans, "setUp", RowSp.index(), R.Id);
        ExprContext Ctx;
        std::unique_ptr<Program> P;
        setUp(R, Opts, Ctx, P, St[I], Err);
      }
      ExprContext Ctx;
      std::unique_ptr<Program> P;
      std::unique_ptr<Verifier> V;
      {
        Scope Sp(Spans, "setUp", RowSp.index(), R.Id);
        V = setUp(R, Opts, Ctx, P, St[I], Err);
      }
      if (!V) {
        T.fail("row " + std::to_string(R.Id) + ": parse error: " + Err);
        continue;
      }
      Sample S;
      S.Traced = Traced;
      VerifyResult Res;
      try {
        Scope Sp(Spans, "verify", RowSp.index(), R.Id);
        double Cpu0 = processCpuSeconds();
        auto T0 = Clock::now();
        Res = V->verify(R.Property, Err);
        S.WallS = secondsSince(T0);
        S.CpuS = processCpuSeconds() - Cpu0;
      } catch (const std::exception &E) {
        T.fail("row " + std::to_string(R.Id) + ": verify threw: " + E.what());
        continue;
      }
      if (!Ref.sampleAfter(S.WallS))
        T.fail("host reference: no unsat answer from the helper");
      S.C = Counts::of(Res);
      S.Trace = Res.Trace;

      bool Definite = Res.proved() || Res.disproved();
      if (Definite) {
        ++T.Decided;
        if (Res.proved() != R.ExpectHolds)
          T.fail("row " + std::to_string(R.Id) + ": wrong verdict " +
                 toString(Res.V));
        Scope Sp(Spans, "checkProof", RowSp.index(), R.Id);
        auto C0 = Clock::now();
        CheckReport Rep = V->checkProof(Res);
        St[I].CheckMs.push_back(secondsSince(C0) * 1e3);
        if (!Rep.Ok)
          T.fail("row " + std::to_string(R.Id) + ": checkProof rejected: " +
                 (Rep.Failures.empty() ? "" : Rep.Failures.front()));
      } else {
        T.fail("row " + std::to_string(R.Id) + " pass " +
               std::to_string(Passes) + ": unknown: " +
               (Res.Failure.valid() ? Res.Failure.toString()
                                    : "incomplete (no FailureInfo)"));
      }

      if (RepeatGuard && !St[I].Samples.empty() &&
          !(St[I].Samples.front().C == S.C)) {
        Repeats = false;
        std::cout << "COUNT MISMATCH row " << R.Id << " pass " << Passes
                  << "\n  first: " << St[I].Samples.front().C.str()
                  << "\n  now:   " << S.C.str() << "\n";
      }
      St[I].Samples.push_back(std::move(S));
    }
    LastPassS = secondsSince(PassT0);
    ++Passes;
  }
  obs::Tracer::global().disable();

  // Aggregate: per-row medians over the (untraced) passes.
  std::vector<double> RowWallMs, RowCpuS, RowSetupMs, RowParseMs, RowCtorMs,
      RowTracedMs, CheckMs;
  obs::TraceSummary Layers;
  double Counters[10] = {};
  for (std::size_t I = 0; I < N; ++I) {
    std::vector<double> W, C, TW;
    std::vector<const Sample *> TracedSamples;
    for (const Sample &S : St[I].Samples) {
      if (S.Traced) {
        TW.push_back(S.WallS * 1e3);
        TracedSamples.push_back(&S);
      } else {
        W.push_back(S.WallS * 1e3);
        C.push_back(S.CpuS);
      }
    }
    if (W.empty())
      continue;
    RowWallMs.push_back(median(W));
    RowCpuS.push_back(median(C));
    if (!TW.empty())
      RowTracedMs.push_back(median(TW));
    RowSetupMs.push_back(median(St[I].SetupMs));
    RowParseMs.push_back(median(St[I].ParseMs));
    RowCtorMs.push_back(median(St[I].CtorMs));
    if (!St[I].CheckMs.empty())
      CheckMs.push_back(median(St[I].CheckMs));
    // Counts: median over passes (identical at Jobs=1, see the guard).
    for (unsigned K = 0; K < 9; ++K) {
      std::vector<double> Vs;
      for (const Sample &S : St[I].Samples)
        Vs.push_back(static_cast<double>(S.C.V[K]));
      Counters[K] += median(Vs);
    }
    if (!TracedSamples.empty())
      Layers += TracedSamples.front()->Trace;
  }

  double SuiteS = sum(RowWallMs) / 1e3;
  double CpuS = sum(RowCpuS);
  double SetupS = sum(RowSetupMs) / 1e3;
  double Attempted = std::max(1u, T.Attempted);

  // Count fingerprint: lets the noise report check that counts repeat
  // across runs, not only across the passes of one run.
  std::uint64_t Fp = 1469598103934665603ull;
  for (const RowState &S : St)
    if (!S.Samples.empty())
      for (std::uint64_t X : S.Samples.front().C.V)
        Fp = (Fp ^ X) * 1099511628211ull;

  std::cout << "workload " << A.Workload << ": " << N << " rows x " << Passes
            << " passes, jobs " << Jobs << ", count fingerprint " << std::hex
            << Fp << std::dec
            << (!RepeatGuard ? "" : Repeats ? " (repeats)" : " (MISMATCH)")
            << "\n";
  std::cout << "  failed_share = " << T.Failed / Attempted
            << " (" << T.Failed << "/" << T.Attempted << ")\n";

  Metrics M;
  if (!A.Trace) {
    M.put("suite_s", SuiteS, "s");
    M.put("latency_ms.p50", quantile(RowWallMs, 0.50), "ms");
    M.put("latency_ms.p75", quantile(RowWallMs, 0.75), "ms");
    M.put("latency_ms.p95", quantile(RowWallMs, 0.95), "ms");
    M.put("throughput_rps", static_cast<double>(RowWallMs.size()) / SuiteS,
          "1/s");
    M.put("decided_share", T.Decided / Attempted, "share");
    M.put("cpu_s", CpuS, "s");
    M.put("peak_rss_mb", peakRssMb(), "MB");
    M.put("setup_s", SetupS, "s");
  } else {
    M.put("program.parse_ms", sum(RowParseMs), "ms");
    M.put("core.ctor_ms", sum(RowCtorMs), "ms");
    M.put("gen.generate_ms", median(GenMs), "ms");
    M.put("core.check_ms", sum(CheckMs), "ms");
    M.put("core.rounds", Counters[0], "count");
    M.put("core.refinements", Counters[1], "count");
    M.put("core.backtracks", Counters[2], "count");
    M.put("smt.cache_hits", Counters[3], "count");
    M.put("smt.cache_misses", Counters[4], "count");
    M.put("smt.core_hits", Counters[5], "count");
    double Lookups = Counters[3] + Counters[4];
    M.put("smt.hit_ratio", Lookups == 0 ? 0.0 : Counters[3] / Lookups, "ratio");
    M.put("smt.inc_checks", Counters[6], "count");
    M.put("smt.inc_resets", Counters[7], "count");
    M.put("smt.retries", Counters[8], "count");
    M.put("pool.busy_cores", CpuS / SuiteS, "cores");
    putDaemonLayersAbsent(M);
    putTraceLayers(M, Layers);
    M.put("trace.overhead", RowTracedMs.size() == RowWallMs.size() && SuiteS > 0
                                ? sum(RowTracedMs) / 1e3 / SuiteS
                                : 0.0,
          "ratio");
    M.put("trace.spans", static_cast<double>(Spans.size()), "count");
  }
  return {std::move(M), T.Attempted, T.Failed, T.Failed == 0 && Repeats};
}

//===----------------------------------------------------------------------===//
// daemon-warm: a closed loop against an in-process chuted
//===----------------------------------------------------------------------===//

/// One daemon request: a Figure 6 program with its property (row K)
/// and the property's negation (row K + 27).
struct Request {
  unsigned Program = 0;
  std::string Text;
  std::vector<std::string> Props;
  std::vector<bool> Expect;
};

std::vector<Request> daemonRequests() {
  std::map<unsigned, Request> ByProgram;
  for (const Row &R : fig6Rows()) {
    unsigned K = R.Id > Fig6Base ? R.Id - Fig6Base : R.Id;
    Request &Q = ByProgram[K];
    Q.Program = K;
    Q.Text = R.Program;
    Q.Props.push_back(R.Property);
    Q.Expect.push_back(R.ExpectHolds);
  }
  std::vector<Request> Out;
  for (auto &KV : ByProgram)
    Out.push_back(std::move(KV.second));
  return Out;
}

/// One request as the client saw it.
struct Reply {
  double LatencyMs = 0.0;
  double ServerMs = 0.0; ///< sum of WireVerdict::Seconds
  unsigned Rounds = 0;
};

/// Closed-loop load: Clients threads each take the next request of
/// the pass's staggered order and wait for its reply before taking
/// another.
class ClosedLoop {
public:
  ClosedLoop(const std::vector<Request> &Reqs, std::string Endpoint,
             unsigned Clients, std::uint64_t Seed, SpanLog &Spans)
      : Reqs(Reqs), Endpoint(std::move(Endpoint)), Clients(Clients),
        Seed(Seed), Spans(Spans) {}

  struct PassResult {
    double WallS = 0.0;
    double CpuS = 0.0;
    std::vector<Reply> Replies; ///< indexed like Reqs
    unsigned Properties = 0;
    unsigned Decided = 0;
    std::vector<std::string> Failures;
  };

  PassResult pass(unsigned PassId, long ParentSpan) {
    PassResult Out;
    Out.Replies.resize(Reqs.size());
    std::vector<std::size_t> Order = passOrder(Reqs.size(), Seed, PassId);
    std::atomic<std::size_t> Next{0};
    std::mutex Mu;
    double Cpu0 = processCpuSeconds();
    auto T0 = Clock::now();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        daemon::ClientOptions CO;
        CO.Endpoint = Endpoint;
        CO.OverloadRetries = 3;
        // Unique per client and pass: request ids come from this seed,
        // and a repeated id would be answered from the replay cache.
        CO.Seed = (Seed << 20) ^ (static_cast<std::uint64_t>(PassId) << 8) ^
                  (C + 1);
        daemon::Client Cl(CO);
        for (std::size_t Slot; (Slot = Next.fetch_add(1)) < Order.size();) {
          std::size_t I = Order[Slot];
          const Request &Q = Reqs[I];
          Scope Sp(Spans, "request", ParentSpan, Q.Program);
          auto R0 = Clock::now();
          daemon::ClientResult CR = Cl.request(Q.Text, Q.Props);
          double Ms = secondsSince(R0) * 1e3;
          std::lock_guard<std::mutex> Lock(Mu);
          record(Q, CR, Ms, Out.Replies[I], Out);
        }
      });
    for (auto &Th : Threads)
      Th.join();
    Out.WallS = secondsSince(T0);
    Out.CpuS = processCpuSeconds() - Cpu0;
    return Out;
  }

private:
  static void record(const Request &Q, const daemon::ClientResult &CR,
                     double Ms, Reply &Rp, PassResult &Out) {
    Rp.LatencyMs = Ms;
    Out.Properties += static_cast<unsigned>(Q.Props.size());
    std::string Tag = "program " + std::to_string(Q.Program);
    if (CR.Outcome != daemon::ClientOutcome::Done ||
        CR.Verdicts.size() != Q.Props.size()) {
      Out.Failures.push_back(Tag + ": client " + toString(CR.Outcome) + " " +
                             CR.Error);
      return;
    }
    if (CR.Replayed)
      Out.Failures.push_back(Tag + ": answered from the replay cache");
    for (const daemon::WireVerdict &V : CR.Verdicts) {
      Rp.ServerMs += V.Seconds * 1e3;
      Rp.Rounds += V.Rounds;
      if (V.Index >= Q.Props.size())
        continue;
      bool Definite = V.St == daemon::WireStatus::Proved ||
                      V.St == daemon::WireStatus::Disproved;
      if (!Definite) {
        // Every Figure 6 property has a definite expected verdict.
        Out.Failures.push_back(Tag + " property " + std::to_string(V.Index) +
                               ": " + daemon::toString(V.St) + " " +
                               V.Failure);
        continue;
      }
      ++Out.Decided;
      if ((V.St == daemon::WireStatus::Proved) != Q.Expect[V.Index])
        Out.Failures.push_back(Tag + " property " + std::to_string(V.Index) +
                               ": wrong verdict " + daemon::toString(V.St));
    }
  }

  const std::vector<Request> &Reqs;
  std::string Endpoint;
  unsigned Clients;
  std::uint64_t Seed;
  SpanLog &Spans;
};

/// Restart rounds of the daemon: each round's restart plus warm pass is
/// one set-up sample.
constexpr unsigned DaemonRounds = 10;

Outcome runDaemon(const Args &A, const std::string &WorkDir,
                  HostReference &Ref, SpanLog &Spans) {
  namespace fs = std::filesystem;
  const std::vector<Request> Reqs = daemonRequests();
  const unsigned Clients = std::max(1u, std::thread::hardware_concurrency());
  Tally T;
  Scope RunSp(Spans, "run", -1, -1);

  const std::string Dir = WorkDir + "/daemon-" + std::to_string(getpid());
  const std::string Primed = Dir + "/primed", Live = Dir + "/cache";
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::create_directories(Primed, Ec);

  daemon::ServerOptions SO;
  SO.Endpoint = "unix:" + Dir + "/sock";
  SO.MaxInFlight = Clients;
  SO.Verify.CacheDir = Primed;
  SO.Verify.BudgetMs = RowBudgetMs;
  // chuted's default: one worker per request; requests run in parallel.
  TaskPool::configureGlobal(1);
  obs::Tracer::global().disable();
  ClosedLoop Loop(Reqs, *SO.Endpoint, Clients, A.Seed, Spans);

  // Every pass's verdicts are checked; decided_share counts the timed
  // passes only.
  unsigned TimedProps = 0, TimedDecided = 0;
  auto Check = [&](const ClosedLoop::PassResult &P, bool Timed) {
    for (const std::string &F : P.Failures)
      T.fail(F);
    T.Attempted += P.Properties;
    if (Timed) {
      TimedProps += P.Properties;
      TimedDecided += P.Decided;
    }
  };
  auto StartServer = [&](std::unique_ptr<daemon::Server> &S) {
    S = std::make_unique<daemon::Server>(SO);
    std::string Err;
    if (!S->start(Err)) {
      T.fail("daemon start: " + Err);
      return false;
    }
    return true;
  };

  // Priming: one cold pass fills the per-program caches; stop() then
  // persists them to the slab store under CacheDir.
  double PrimeS = 0.0;
  {
    Scope Sp(Spans, "prime", RunSp.index(), -1);
    auto T0 = Clock::now();
    std::unique_ptr<daemon::Server> S;
    if (!StartServer(S))
      return {Metrics(), 1, 1, false};
    Check(Loop.pass(100000, Sp.index()), false);
    S->stop();
    PrimeS = secondsSince(T0);
  }

  // Benchmark-side parse and Verifier construction of the same
  // programs: what interning parses once and what every request
  // constructs.
  std::vector<double> ParseMs(Reqs.size()), CtorMs(Reqs.size());
  for (std::size_t I = 0; I < Reqs.size(); ++I) {
    std::vector<double> Ps, Cs;
    for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
      ExprContext Ctx;
      std::string Err;
      auto T0 = Clock::now();
      auto P = parseProgram(Ctx, Reqs[I].Text, Err);
      Ps.push_back(secondsSince(T0) * 1e3);
      if (!P) {
        T.fail("program " + std::to_string(Reqs[I].Program) +
               ": parse error: " + Err);
        return {Metrics(), T.Attempted, T.Failed, false};
      }
      auto T1 = Clock::now();
      Verifier V(*P, SO.Verify);
      Cs.push_back(secondsSince(T1) * 1e3);
    }
    ParseMs[I] = median(Ps);
    CtorMs[I] = median(Cs);
  }

  std::vector<double> SetupS, StopMs, Rps, PassCpuS, UntracedWallS,
      TracedWallS, Latencies, ServerMs, OverheadMs, RoundsPerPass, Interned,
      DiskLoads, DiskSaves;
  std::vector<std::vector<double>> PerRequestMs(Reqs.size());
  double Queued = 0, Shed = 0;
  obs::TraceSummary Layers;
  unsigned TracedPasses = 0;
  // Round R's timed passes end at (R+1)/DaemonRounds of the run's
  // window, so the whole run, set-up included, takes about --seconds.
  const auto RunStart = Clock::now();
  unsigned PassId = 0;

  // Every round restarts on a fresh copy of the primed store: stop()
  // persists what a round learned, and a store that grew round over
  // round would make each round's set-up slower than the last.
  SO.Verify.CacheDir = Live;
  for (unsigned Round = 0; Round < DaemonRounds; ++Round) {
    Scope RoundSp(Spans, "round", RunSp.index(), Round);
    fs::remove_all(Live, Ec);
    fs::copy(Primed, Live, fs::copy_options::recursive, Ec);
    if (Ec) {
      T.fail("copying the primed cache: " + Ec.message());
      return {Metrics(), T.Attempted, T.Failed, false};
    }
    std::unique_ptr<daemon::Server> S;
    auto T0 = Clock::now();
    {
      Scope Sp(Spans, "restart+warm", RoundSp.index(), Round);
      if (!StartServer(S))
        return {Metrics(), 1, 1, false};
      Check(Loop.pass(200000 + Round, Sp.index()), false);
    }
    SetupS.push_back(secondsSince(T0));
    daemon::ServerStats Before = S->stats();

    const double RoundEndS = A.Seconds * (Round + 1) / DaemonRounds;
    for (unsigned P = 0; P < MinPasses || secondsSince(RunStart) < RoundEndS;
         ++P, ++PassId) {
      bool Traced = A.Trace && P % 2 == 1;
      obs::TraceSummary Snap0;
      if (Traced) {
        obs::Tracer::global().enable(obs::TraceLevel::Stats);
        Snap0 = obs::Tracer::global().snapshot();
      }
      Scope Sp(Spans, Traced ? "pass-traced" : "pass", RoundSp.index(), PassId);
      ClosedLoop::PassResult R = Loop.pass(PassId, Sp.index());
      if (!Ref.sampleAfter(R.WallS))
        T.fail("host reference: no unsat answer from the helper");
      if (Traced) {
        Layers += obs::Tracer::global().snapshot() - Snap0;
        obs::Tracer::global().disable();
        ++TracedPasses;
        TracedWallS.push_back(R.WallS);
      } else {
        UntracedWallS.push_back(R.WallS);
        Rps.push_back(static_cast<double>(Reqs.size()) / R.WallS);
        PassCpuS.push_back(R.CpuS);
        double Rounds = 0;
        for (std::size_t I = 0; I < Reqs.size(); ++I) {
          const Reply &Rp = R.Replies[I];
          Latencies.push_back(Rp.LatencyMs);
          ServerMs.push_back(Rp.ServerMs);
          OverheadMs.push_back(Rp.LatencyMs - Rp.ServerMs);
          PerRequestMs[I].push_back(Rp.LatencyMs);
          Rounds += Rp.Rounds;
        }
        RoundsPerPass.push_back(Rounds);
      }
      Check(R, true);
    }

    daemon::ServerStats After = S->stats();
    Queued += static_cast<double>(After.Queued - Before.Queued);
    Shed += static_cast<double>(After.Shed - Before.Shed);
    if (After.Replays != 0)
      T.fail("daemon answered " + std::to_string(After.Replays) +
             " requests from its replay cache");
    auto S0 = Clock::now();
    {
      Scope Sp(Spans, "stop", RoundSp.index(), Round);
      S->stop();
    }
    StopMs.push_back(secondsSince(S0) * 1e3);
    daemon::ServerStats Final = S->stats();
    Interned.push_back(static_cast<double>(Final.ProgramsInterned));
    DiskLoads.push_back(static_cast<double>(Final.DiskLoads));
    DiskSaves.push_back(static_cast<double>(Final.DiskSaves));
  }
  fs::remove_all(Dir, Ec);

  std::vector<double> RequestMedians;
  for (const auto &V : PerRequestMs)
    RequestMedians.push_back(median(V));
  double SuiteS = sum(RequestMedians) / 1e3;
  double Attempted = std::max(1u, T.Attempted);

  std::cout << "workload " << A.Workload << ": " << Reqs.size()
            << " requests x " << UntracedWallS.size() + TracedWallS.size()
            << " passes over " << DaemonRounds << " rounds, " << Clients
            << " clients\n";
  std::cout << "  failed_share = " << T.Failed / Attempted << " (" << T.Failed
            << "/" << T.Attempted << ")\n";

  Metrics M;
  if (!A.Trace) {
    M.put("suite_s", SuiteS, "s");
    M.put("latency_ms.p50", quantile(Latencies, 0.50), "ms");
    M.put("latency_ms.p75", quantile(Latencies, 0.75), "ms");
    M.put("latency_ms.p95", quantile(Latencies, 0.95), "ms");
    M.put("throughput_rps", median(Rps), "1/s");
    M.put("decided_share",
          static_cast<double>(TimedDecided) / std::max(1u, TimedProps),
          "share");
    M.put("cpu_s", median(PassCpuS), "s");
    M.put("peak_rss_mb", peakRssMb(), "MB");
    M.put("setup_s", median(SetupS), "s");
  } else {
    using obs::Counter;
    double Passes = std::max(1u, TracedPasses);
    auto PerPass = [&](Counter C) {
      return static_cast<double>(Layers.count(C)) / Passes;
    };
    M.put("program.parse_ms", sum(ParseMs), "ms");
    M.put("core.ctor_ms", sum(CtorMs), "ms");
    M.put("gen.generate_ms", 0.0, "ms");
    M.put("core.check_ms", 0.0, "ms");
    M.put("core.rounds", median(RoundsPerPass), "count");
    M.put("core.refinements", 0.0, "count");
    M.put("core.backtracks", 0.0, "count");
    double Hits = PerPass(Counter::SmtCacheHits);
    double Misses = PerPass(Counter::SmtCacheMisses);
    M.put("smt.cache_hits", Hits, "count");
    M.put("smt.cache_misses", Misses, "count");
    M.put("smt.core_hits", PerPass(Counter::SmtIncCorePruned), "count");
    M.put("smt.hit_ratio", Hits + Misses == 0 ? 0.0 : Hits / (Hits + Misses),
          "ratio");
    M.put("smt.inc_checks", PerPass(Counter::SmtIncChecks), "count");
    M.put("smt.inc_resets", PerPass(Counter::SmtIncResets), "count");
    M.put("smt.retries", PerPass(Counter::SmtRetries), "count");
    M.put("pool.busy_cores", median(PassCpuS) / median(UntracedWallS), "cores");
    M.put("daemon.server_verify_ms.p50", median(ServerMs), "ms");
    M.put("daemon.overhead_ms.p50", median(OverheadMs), "ms");
    M.put("daemon.stop_ms", median(StopMs), "ms");
    M.put("daemon.queued", Queued, "count");
    M.put("daemon.shed", Shed, "count");
    M.put("daemon.programs_interned", median(Interned), "count");
    M.put("daemon.disk_loads", median(DiskLoads), "count");
    M.put("daemon.disk_saves", median(DiskSaves), "count");
    M.put("daemon.prime_s", PrimeS, "s");
    obs::TraceSummary Avg;
    const auto Div = static_cast<std::uint64_t>(Passes);
    for (unsigned C = 0; C < obs::NumCategories; ++C)
      Avg.Categories[C].Micros = Layers.Categories[C].Micros / Div;
    for (unsigned C = 0; C < obs::NumCounters; ++C)
      Avg.Counters[C] = Layers.Counters[C] / Div;
    putTraceLayers(M, Avg);
    M.put("trace.overhead",
          TracedWallS.empty() ? 0.0
                              : median(TracedWallS) / median(UntracedWallS),
          "ratio");
    M.put("trace.spans", static_cast<double>(Spans.size()), "count");
  }
  return {std::move(M), T.Attempted, T.Failed, T.Failed == 0};
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Args &A, std::string &WorkDir) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--spans")
      A.SpansPath = V;
    else if (K == "--work-dir")
      WorkDir = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string WorkDir = ".";
  if (!parseArgs(Argc, Argv, A, WorkDir)) {
    std::cerr << "usage: chute_perfbench --workload fig6-seq|fig6-par|"
                 "daemon-warm --seed N --seconds S --trace 0|1\n"
                 "                       [--spans PATH] [--work-dir DIR]\n";
    return 2;
  }
  const unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  // First, while this process has one thread and has done no chute work.
  // daemon-warm, like fig6-par, keeps up to nproc verifications running.
  const bool Parallel =
      A.Workload == "fig6-par" || A.Workload == "daemon-warm";
  HostReference Ref(Parallel ? Nproc : 1,
                    Parallel ? NominalParallelRefMs : NominalRefMs);
  SpanLog Spans(A.Trace);

  Outcome O;
  if (A.Workload == "fig6-seq") {
    O = runInProcess(A, fig6Rows(), 1, Ref, Spans);
  } else if (A.Workload == "fig6-par") {
    O = runInProcess(A, fig6Rows(), Nproc, Ref, Spans);
  } else if (A.Workload == "daemon-warm") {
    O = runDaemon(A, WorkDir, Ref, Spans);
  } else {
    std::cerr << "unknown workload '" << A.Workload << "'\n";
    return 2;
  }

  std::cout << "raw times on this host:\n";
  O.M.print(std::cout);
  O.M.scaleTimes(Ref.factor());
  std::cout << "host reference: median " << Ref.medianMs() << " ms over "
            << Ref.samples() << " solves (nominal " << Ref.nominalMs()
            << " ms); reported times are scaled by " << Ref.factor() << ":\n";
  if (A.Trace)
    O.M.put("host.ref_ms", Ref.medianMs(), "ms");
  O.M.print(std::cout);
  if (A.Trace && !A.SpansPath.empty()) {
    if (Spans.write(A.SpansPath))
      std::cout << "spans: " << Spans.size() << " written to " << A.SpansPath
                << "\n";
    else
      std::cout << "spans: could not write " << A.SpansPath << "\n";
  }
  std::cout << "{\"correct\": " << (O.Correct ? "true" : "false")
            << ", \"attempted\": " << std::max(1u, O.Attempted)
            << ", \"failed\": " << O.Failed << ", \"metrics\": " << O.M.json()
            << "}" << std::endl;
  return O.Correct ? 0 : 1;
}
