//===- perfbench/src/main.cpp - Repo benchmark entry point ----------------===//
///
/// \file
/// One run of one workload:
///
///   jsmm-perfbench --workload campaign|ring|wide|sweep --seed N
///                  --seconds S --trace 0|1 [--golden-dir DIR]
///
/// With --trace 0 it times the workload through the public front doors and
/// prints the end-to-end metrics; with --trace 1 it runs the workload once
/// untraced, then replays it layer by layer (Replay.cpp) and prints the
/// per-layer metrics. Every verdict is checked against a reference that
/// does not come from the timed configuration (Reference.cpp). The last
/// stdout line is one JSON object: {"correct", "attempted", "failed",
/// "metrics", "info"}; perfbench/run.py adds the process-level metrics and
/// reshapes it into the benchmark's result line.
///
/// Other modes: --emit-jobs (print the generated litmus jobs, for the
/// determinism test) and --write-golden DIR (write the oracle digests of
/// the default seed).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Str.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>

using namespace jsmm;
using namespace perfbench;

namespace {

// Workload sizes. Each service workload is sized by job count; the mix
// inside is fixed (see Gen.cpp), so every seed holds the same work.
constexpr unsigned CampaignJobs = 2000;
constexpr unsigned WidePrograms = 72;
constexpr unsigned RingThreads = 6;
constexpr unsigned RingPassJobs = 8;
constexpr unsigned MinSweepPasses = 3;
constexpr unsigned SetupRepeats = 5;

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 0; ///< required for a timed or traced run
  bool Trace = false;
  std::string GoldenDir;
  bool EmitJobs = false;
  std::string WriteGolden;
};

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest percentile with at least ten samples beyond it (the
/// smallest sample when there are ten or fewer).
double tail(std::vector<double> V, double &Percentile) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Idx = V.size() > 10 ? V.size() - 11 : 0;
  Percentile = 100.0 * (Idx + 1) / V.size();
  return V[Idx];
}

/// Interquartile range over median: the run's own pass-to-pass noise.
double spread(std::vector<double> V) {
  if (V.size() < 4)
    return 0;
  std::sort(V.begin(), V.end());
  double Med = median(V);
  return Med > 0 ? (V[3 * V.size() / 4] - V[V.size() / 4]) / Med : 0;
}

unsigned hwThreads() {
  unsigned HW = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, HW ? HW : 1u));
}

/// Pins the calling thread to the \p Round-th CPU (cyclically) of \p Allowed,
/// the process's own CPU set; \returns false when it could not.
bool pinToCpu(const cpu_set_t &Allowed, unsigned Round) {
  unsigned N = static_cast<unsigned>(CPU_COUNT(&Allowed));
  if (N == 0)
    return false;
  unsigned Want = Round % N;
  for (unsigned Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed) || Want--)
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    return sched_setaffinity(0, sizeof(One), &One) == 0;
  }
  return false;
}

bool serviceWorkload(const std::string &W) {
  return W == "campaign" || W == "ring" || W == "wide";
}

std::vector<BenchJob> generate(const Options &O) {
  if (O.Workload == "campaign")
    return campaignJobs(O.Seed, CampaignJobs);
  if (O.Workload == "ring")
    return ringJobs(O.Seed, RingPassJobs, RingThreads, hwThreads());
  return wideJobs(O.Seed, WidePrograms);
}

/// The worker count each service workload states.
ServiceConfig serviceConfig(const std::string &W) {
  return ServiceConfig{W == "ring" ? 1u : std::min(4u, hwThreads()), true};
}

std::vector<LitmusJob> litmusJobs(const std::vector<BenchJob> &Jobs) {
  std::vector<LitmusJob> Out;
  for (const BenchJob &J : Jobs)
    Out.push_back(J.Job);
  return Out;
}

/// Workload generation, service construction and warm-up, as one set-up.
void setUp(const Options &O, std::vector<BenchJob> &Jobs,
           std::vector<SweepQuestion> &Questions) {
  if (O.Workload == "sweep") {
    Questions = sweepQuestions(O.Seed, hwThreads());
    // Every question once at a bound of four events.
    for (SweepQuestion Q : Questions) {
      Q.MaxEvents = std::min(Q.MaxEvents, 4u);
      (void)answer(Q);
    }
    return;
  }
  Jobs = generate(O);
  LitmusService Warm(serviceConfig(O.Workload));
  if (O.Workload == "ring") {
    // One ring job of the same size, outside the timed list: it faults in
    // the heap the timed jobs reuse.
    Warm.run({ringJobs(O.Seed + 1, 1, RingThreads, hwThreads())[0].Job});
    return;
  }
  // One untimed pass of the whole batch at the stated worker count.
  Warm.run(litmusJobs(Jobs));
}

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Mismatches = 0;
  /// First mismatching job, for the report.
  std::string FirstMismatch;

  void check(const BenchJob &J, const LitmusJobResult &R, uint64_t Ref) {
    ++Attempted;
    if (!R.ok())
      ++Failed;
    if (tableDigest(renderTable(R)) != Ref) {
      ++Mismatches;
      if (FirstMismatch.empty())
        FirstMismatch = J.Job.Name + "\n" + renderTable(R);
    }
  }
};

std::string num(double V) {
  std::ostringstream S;
  S.precision(10);
  S << V;
  return S.str();
}

struct Report {
  bool Correct = true;
  Tally T;
  std::vector<std::pair<std::string, double>> Metrics;
  std::vector<std::pair<std::string, std::string>> Info;

  void metric(const std::string &Name, double V) { Metrics.push_back({Name, V}); }
  void info(const std::string &Name, const std::string &V) {
    Info.push_back({Name, V});
  }
  void print() const {
    std::string Out = std::string("{\"correct\": ") +
                      (Correct && T.Mismatches == 0 ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(T.Attempted) +
                      ", \"failed\": " + std::to_string(T.Failed) +
                      ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I)
      Out += (I ? ", \"" : "\"") + Metrics[I].first + "\": " +
             num(Metrics[I].second);
    Out += "}, \"info\": {";
    for (size_t I = 0; I < Info.size(); ++I)
      Out += (I ? ", \"" : "\"") + Info[I].first + "\": " + Info[I].second;
    Out += "}}";
    std::cout << Out << std::endl;
  }
};

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C == '\n' ? ' ' : C;
  }
  return Out + "\"";
}

void recordShares(const std::vector<BenchJob> &Jobs, Report &R) {
  WorkloadShares S = sharesOf(Jobs);
  R.info("jobs", std::to_string(S.Jobs));
  R.info("share_duplicates", num(S.Duplicates));
  R.info("share_uni_size", num(S.UniSize));
  R.info("share_armv8_eligible", num(S.Armv8Eligible));
  R.info("share_above_sat_threshold", num(S.AboveSat));
  R.info("events_min", std::to_string(S.MinEvents));
  R.info("events_max", std::to_string(S.MaxEvents));
}

std::vector<uint64_t> references(const Options &O,
                                 const std::vector<BenchJob> &Jobs,
                                 Report &R) {
  std::string Golden;
  if (!O.GoldenDir.empty())
    Golden = O.GoldenDir + "/" + O.Workload + "-seed" +
             std::to_string(O.Seed) + ".tsv";
  bool FromGolden = false;
  Clock::time_point T0 = Clock::now();
  std::vector<uint64_t> Ref = referenceDigests(Jobs, Golden, FromGolden);
  R.info("reference", quoted(O.Workload == "ring" ? "closed-form"
                             : FromGolden         ? "golden"
                                                  : "oracle"));
  R.info("reference_s", num(since(T0)));
  return Ref;
}

/// End-to-end timing of a service workload.
void timeService(const Options &O, const std::vector<BenchJob> &Jobs,
                 const std::vector<uint64_t> &Ref, Report &R) {
  ServiceConfig Cfg = serviceConfig(O.Workload);
  std::vector<LitmusJob> Batch = litmusJobs(Jobs);
  std::vector<double> PassWalls, Rates, Latencies;
  Clock::time_point Start = Clock::now();
  if (O.Workload == "ring") {
    // One worker: each job is its own LitmusService::run call, timed from
    // outside; a pass is the fixed ring job list.
    uint64_t Ok = 0;
    double Busy = 0;
    while (PassWalls.size() < 2 || since(Start) < O.Seconds) {
      LitmusService S(Cfg);
      double Pass = 0;
      for (size_t I = 0; I < Jobs.size(); ++I) {
        Clock::time_point T0 = Clock::now();
        std::vector<LitmusJobResult> Res = S.run({Batch[I]});
        double W = since(T0);
        Pass += W;
        Latencies.push_back(W * 1e3);
        Ok += Res[0].ok();
        R.T.check(Jobs[I], Res[0], Ref[I]);
      }
      PassWalls.push_back(Pass);
      Busy += Pass;
    }
    Rates.push_back(Ok / Busy);
  } else {
    // Rounds until the budget is spent, each of (1) every job alone
    // through runOne on a fresh service, timed from outside, and (2)
    // whole-batch passes, each on a fresh (cold-cache) service at the
    // stated worker count, until all passes so far have taken as long as
    // all of (1) so far. Counting over the run, not per round, keeps that
    // split even where a pass takes longer than a round's part (1). A
    // job's latency is its fastest time over the rounds, and the batch
    // figures come from the fastest pass: on a shared host the fastest
    // time is the one least disturbed by other tenants, and it drifts far
    // less between runs than the median, the more samples it is taken
    // over. So after the second round, part (1) skips a job whose fastest
    // of two or more times is more than twice the current job_tail_ms:
    // more samples cannot bring it below the tail, so they could not move
    // job_p50_ms or job_tail_ms. One time alone is not enough, because a
    // single run can take many times the job's usual time. In wide the
    // few jobs this skips take most of part (1), so every other job gets
    // about twice the samples. Part (1) runs on one CPU, a different one
    // each round, so a CPU that another tenant slows down for the whole
    // run cannot set every job's latency. The sample count (and with it
    // the tail percentile) is the job count.
    cpu_set_t Allowed;
    CPU_ZERO(&Allowed);
    bool Rotate = sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0;
    double Settled = 0, TailPct = 0, Singles = 0, Passes = 0;
    uint64_t Runs = 0;
    for (unsigned Round = 0; PassWalls.size() < 3 || since(Start) < O.Seconds;
         ++Round) {
      bool Pinned = Rotate && pinToCpu(Allowed, Round);
      LitmusService One(Cfg);
      Clock::time_point RoundStart = Clock::now();
      for (size_t I = 0; I < Jobs.size(); ++I) {
        if (Round > 1 && Latencies[I] > Settled)
          continue;
        Clock::time_point T0 = Clock::now();
        LitmusJobResult Res = One.runOne(Batch[I]);
        double Ms = since(T0) * 1e3;
        ++Runs;
        if (Round)
          Latencies[I] = std::min(Latencies[I], Ms);
        else
          Latencies.push_back(Ms);
        R.T.check(Jobs[I], Res, Ref[I]);
      }
      Settled = 2 * tail(Latencies, TailPct);
      Singles += since(RoundStart);
      if (Pinned)
        sched_setaffinity(0, sizeof(Allowed), &Allowed);
      while (Passes < Singles) {
        LitmusService S(Cfg);
        Clock::time_point T0 = Clock::now();
        std::vector<LitmusJobResult> Res = S.run(Batch);
        double W = since(T0);
        uint64_t Ok = 0;
        for (size_t I = 0; I < Res.size(); ++I) {
          Ok += Res[I].ok();
          R.T.check(Jobs[I], Res[I], Ref[I]);
        }
        PassWalls.push_back(W);
        Rates.push_back(Ok / W);
        Passes += W;
      }
      // Hand the round's freed heap back, so peak_rss_mb is one round's
      // working set and not the allocator's fragmentation over the rounds.
      malloc_trim(0);
    }
    size_t Slowest = static_cast<size_t>(
        std::max_element(Latencies.begin(), Latencies.end()) -
        Latencies.begin());
    R.info("per_job_runs", std::to_string(Runs));
    R.info("slowest_job", quoted(Jobs[Slowest].Job.Name + " " +
                                 num(Latencies[Slowest]) + " ms"));
  }
  double Pct = 0;
  bool Ring = O.Workload == "ring";
  R.metric("jobs_per_s", Ring ? Rates[0]
                              : *std::max_element(Rates.begin(), Rates.end()));
  R.metric("job_p50_ms", median(Latencies));
  R.metric("job_tail_ms", tail(Latencies, Pct));
  R.metric("sweep_s", Ring ? median(PassWalls)
                           : *std::min_element(PassWalls.begin(),
                                               PassWalls.end()));
  R.info("passes", std::to_string(PassWalls.size()));
  R.info("pass_spread", num(spread(PassWalls)));
  R.info("latency_samples", std::to_string(Latencies.size()));
  R.info("tail_percentile", num(Pct));
}

/// Passes over the §5 questions until the budget is spent, at least
/// MinSweepPasses. A question's latency is its fastest time over the
/// passes (see timeService); sweep_s sums them, and job_tail_ms is the
/// slowest question.
void timeSweep(const Options &O, const std::vector<SweepQuestion> &Qs,
               Report &R) {
  std::vector<std::vector<double>> PerQuestion(Qs.size());
  unsigned Ok = 0, Passes = 0;
  Clock::time_point Start = Clock::now();
  for (; Passes < MinSweepPasses || since(Start) < O.Seconds; ++Passes) {
    for (size_t I = 0; I < Qs.size(); ++I) {
      Clock::time_point T0 = Clock::now();
      SweepAnswer A = answer(Qs[I]);
      double W = since(T0);
      PerQuestion[I].push_back(W);
      ++R.T.Attempted;
      if (answerMatchesPaper(Qs[I], A)) {
        ++Ok;
      } else {
        ++R.T.Mismatches;
        if (R.T.FirstMismatch.empty())
          R.T.FirstMismatch = Qs[I].name();
      }
    }
  }
  double Sweep = 0;
  std::vector<double> Latencies;
  for (const std::vector<double> &W : PerQuestion) {
    double Fastest = *std::min_element(W.begin(), W.end());
    Sweep += Fastest;
    Latencies.push_back(Fastest * 1e3);
  }
  R.metric("jobs_per_s", Ok / (Sweep * Passes));
  R.metric("job_p50_ms", median(Latencies));
  R.metric("job_tail_ms", *std::max_element(Latencies.begin(), Latencies.end()));
  R.metric("sweep_s", Sweep);
  R.info("passes", std::to_string(Passes));
  R.info("latency_samples", std::to_string(Latencies.size()));
  R.info("tail_percentile", "100");
}

struct CpuTimes {
  double User = 0, Sys = 0;
};

CpuTimes cpuNow() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto S = [](timeval T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return {S(U.ru_utime), S(U.ru_stime)};
}

/// The replay times analysis::analyzeValues on its own, but the engine
/// call that follows repeats it inside its span: the probe is reported as
/// analysis.values_us and left out of every sum of layer time.
const char *const ValuesProbe = "analysis.values";

/// The per-layer metrics of the traced replay. Times are µs per call of
/// the layer (per job for the parser); counts are totals over the replay.
void layerMetrics(const std::vector<Span> &Spans, Report &R) {
  std::map<std::string, double> Secs, Calls, Sum;
  unsigned NJobs = 0;
  for (const Span &S : Spans) {
    if (S.Parent < 0) {
      ++NJobs;
      continue;
    }
    Secs[S.Name] += S.seconds();
    Calls[S.Name] += 1;
    for (const auto &[K, V] : S.Counts) {
      Sum[S.Name + "/" + K] += V;
      if (S.Name.rfind("engine.", 0) == 0)
        Sum["engine/" + K] += V;
      if (K.rfind("solver.", 0) == 0)
        Sum[K] += V;
    }
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  auto PerCall = [&](const std::string &N) {
    return Ratio(Secs[N] * 1e6, Calls[N]);
  };
  R.metric("parser.us_per_job", Ratio(Secs["parser"] * 1e6, NJobs));
  R.metric("analysis.classify_us", PerCall("analysis.classify"));
  R.metric("analysis.values_us", PerCall("analysis.values"));
  R.metric("compile.arm_us", PerCall("compile.arm"));
  R.metric("compile.uni_us", PerCall("compile.uni"));
  R.metric("armv8.us", PerCall("armv8"));
  R.metric("armv8.candidates", Sum["armv8/candidates"]);
  R.metric("armv8.consistent_ratio",
           Ratio(Sum["armv8/consistent"], Sum["armv8/candidates"]));
  R.metric("unisize.ref_us", PerCall("unisize"));
  R.metric("engine.target.us", PerCall("engine.target"));
  R.metric("engine.target.candidates", Sum["engine.target/candidates"]);
  R.metric("engine.js.us", PerCall("engine.js"));
  R.metric("engine.js.candidates", Sum["engine.js/candidates"]);
  R.metric("engine.js.valid_ratio",
           Ratio(Sum["engine.js/valid"], Sum["engine.js/candidates"]));
  R.metric("engine.js.us_per_candidate",
           Ratio(Secs["engine.js"] * 1e6, Sum["engine.js/candidates"]));
  for (const char *K : {"work_items", "pruned_subtrees", "slept_branches",
                        "static_rf_pruned", "static_paths_pruned"})
    R.metric(std::string("engine.") + K, Sum[std::string("engine/") + K]);
  R.metric("exec.outcomes", Sum["engine/outcomes"]);
  R.metric("exec.outcomes_per_valid",
           Ratio(Sum["engine/outcomes"], Sum["engine/valid"]));
  for (const char *K : {"solver.queries", "solver.propagate_branches",
                        "solver.sat_decisions", "solver.sat_conflicts",
                        "solver.sat_learned"})
    R.metric(K, Sum[K]);
  R.metric("search.skeletons", Sum["search/skeletons"]);
  R.metric("search.rbf_candidates", Sum["search/rbf_candidates"]);
  R.metric("search.arm_checks", Sum["search/arm_checks"]);
  R.metric("search.us_per_rbf_candidate",
           Ratio(Secs["search"] * 1e6, Sum["search/rbf_candidates"]));
}

/// Σ layer time of the replay over the untraced wall of the same jobs:
/// work the front door does that the replay leaves out lowers it.
double layerSeconds(const std::vector<Span> &Spans) {
  double Sum = 0;
  for (const Span &S : Spans)
    if (S.Parent >= 0 && S.Name != ValuesProbe)
      Sum += S.seconds();
  return Sum;
}

/// The traced run: the workload once untraced through the front doors,
/// then the layer-by-layer replay of the same jobs.
void traceService(const Options &O, const std::vector<BenchJob> &Jobs,
                  const std::vector<uint64_t> &Ref, Report &R) {
  ServiceConfig Cfg = serviceConfig(O.Workload);
  unsigned Workers = LitmusService(Cfg).effectiveWorkers();
  // (1) The batch at the stated worker count: cache behaviour, process CPU.
  LitmusService Batch(Cfg);
  CpuTimes C0 = cpuNow();
  Clock::time_point T0 = Clock::now();
  std::vector<LitmusJobResult> BatchRes = Batch.run(litmusJobs(Jobs));
  double BatchWall = since(T0);
  CpuTimes C1 = cpuNow();
  for (size_t I = 0; I < Jobs.size(); ++I)
    R.T.check(Jobs[I], BatchRes[I], Ref[I]);
  LitmusService::CacheStats CS = Batch.cacheStats();
  // (2) Each job alone through runOne: the untraced per-job wall.
  LitmusService Seq(Cfg);
  std::vector<LitmusJobResult> SeqRes;
  std::vector<double> SeqWall;
  for (const BenchJob &J : Jobs) {
    Clock::time_point T = Clock::now();
    SeqRes.push_back(Seq.runOne(J.Job));
    SeqWall.push_back(since(T));
  }
  // (3) The replay, same order, with spans.
  Replayer Rp(Clock::now());
  unsigned ReplayMismatches = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    LitmusJobResult Res = Rp.replay(Jobs[I], static_cast<unsigned>(I));
    if (renderTable(Res) != renderTable(SeqRes[I]))
      ++ReplayMismatches;
  }
  // Per-job layer self time, for the service's own overhead.
  std::vector<double> JobWall(Jobs.size(), 0), LayerWall(Jobs.size(), 0);
  for (const Span &S : Rp.Spans)
    if (S.Name != ValuesProbe)
      (S.Parent < 0 ? JobWall : LayerWall)[S.JobId] += S.seconds();
  double SeqSum = 0, ReplaySum = 0, Overhead = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    SeqSum += SeqWall[I];
    ReplaySum += JobWall[I];
    Overhead += SeqWall[I] - LayerWall[I];
  }
  layerMetrics(Rp.Spans, R);
  double Lookups = static_cast<double>(CS.Hits + CS.Misses);
  R.metric("service.cache_hit_ratio", Lookups ? CS.Hits / Lookups : 0);
  R.metric("service.worker_busy_ratio", SeqSum / (Workers * BatchWall));
  R.metric("service.overhead_us", Overhead * 1e6 / Jobs.size());
  double User = C1.User - C0.User, Sys = C1.Sys - C0.Sys;
  R.metric("proc.user_cpu_s", User);
  R.metric("proc.sys_cpu_s", Sys);
  R.metric("proc.sys_share", User + Sys > 0 ? Sys / (User + Sys) : 0);
  R.metric("trace.coverage", layerSeconds(Rp.Spans) / SeqSum);
  R.metric("trace.overhead", ReplaySum / SeqSum);
  R.info("replay_mismatches", std::to_string(ReplayMismatches));
  R.info("batch_wall_s", num(BatchWall));
  R.Correct = ReplayMismatches == 0;
}

void traceSweep(const std::vector<SweepQuestion> &Qs, Report &R) {
  CpuTimes C0 = cpuNow();
  double Untraced = 0;
  for (const SweepQuestion &Q : Qs) {
    Clock::time_point T = Clock::now();
    SweepAnswer A = answer(Q);
    Untraced += since(T);
    ++R.T.Attempted;
    if (!answerMatchesPaper(Q, A))
      ++R.T.Mismatches;
  }
  CpuTimes C1 = cpuNow();
  Replayer Rp(Clock::now());
  unsigned ReplayMismatches = 0;
  for (size_t I = 0; I < Qs.size(); ++I)
    if (!answerMatchesPaper(Qs[I], Rp.replay(Qs[I], static_cast<unsigned>(I))))
      ++ReplayMismatches;
  double Replayed = 0;
  for (const Span &S : Rp.Spans)
    if (S.Parent < 0)
      Replayed += S.seconds();
  layerMetrics(Rp.Spans, R);
  R.metric("service.cache_hit_ratio", 0);
  R.metric("service.worker_busy_ratio", 0);
  R.metric("service.overhead_us", 0);
  double User = C1.User - C0.User, Sys = C1.Sys - C0.Sys;
  R.metric("proc.user_cpu_s", User);
  R.metric("proc.sys_cpu_s", Sys);
  R.metric("proc.sys_share", User + Sys > 0 ? Sys / (User + Sys) : 0);
  R.metric("trace.coverage", layerSeconds(Rp.Spans) / Untraced);
  R.metric("trace.overhead", Replayed / Untraced);
  R.info("replay_mismatches", std::to_string(ReplayMismatches));
  R.Correct = ReplayMismatches == 0;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--workload") {
      if (!Value(O.Workload))
        return false;
    } else if (A == "--seed") {
      std::optional<uint64_t> S;
      if (!Value(V) || !(S = parseUnsigned64(V)))
        return false;
      O.Seed = *S;
    } else if (A == "--seconds") {
      std::optional<unsigned> S;
      if (!Value(V) || !(S = parseUnsigned(V)) || *S == 0)
        return false;
      O.Seconds = *S;
    } else if (A == "--trace") {
      if (!Value(V) || (V != "0" && V != "1"))
        return false;
      O.Trace = V == "1";
    } else if (A == "--golden-dir") {
      if (!Value(O.GoldenDir))
        return false;
    } else if (A == "--emit-jobs") {
      O.EmitJobs = true;
    } else if (A == "--write-golden") {
      if (!Value(O.WriteGolden))
        return false;
    } else {
      return false;
    }
  }
  if (!O.EmitJobs && O.WriteGolden.empty() && O.Seconds <= 0)
    return false;
  return O.Workload == "sweep" || serviceWorkload(O.Workload);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::cerr << "usage: jsmm-perfbench --workload campaign|ring|wide|sweep "
                 "[--seed N] --seconds S [--trace 0|1] [--golden-dir DIR]\n"
                 "       jsmm-perfbench --workload W [--seed N] "
                 "(--emit-jobs | --write-golden DIR)\n";
    return 2;
  }

  if (O.EmitJobs) {
    if (O.Workload == "sweep") {
      for (const SweepQuestion &Q : sweepQuestions(O.Seed, hwThreads()))
        std::cout << Q.name() << "\n";
      return 0;
    }
    for (const BenchJob &J : generate(O))
      std::cout << "### " << J.Job.Name << " " << J.Job.Model << "\n"
                << J.Job.Litmus;
    return 0;
  }
  if (!O.WriteGolden.empty()) {
    if (!serviceWorkload(O.Workload) || O.Workload == "ring")
      return 2;
    std::string Path = O.WriteGolden + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + ".tsv";
    return writeGolden(generate(O), Path) ? 0 : 1;
  }

  Report R;
  std::vector<BenchJob> Jobs;
  std::vector<SweepQuestion> Questions;
  std::vector<double> Setups;
  for (unsigned I = 0; I < (O.Trace ? 1 : SetupRepeats); ++I) {
    Clock::time_point T0 = Clock::now();
    setUp(O, Jobs, Questions);
    Setups.push_back(since(T0));
  }

  if (O.Workload == "sweep") {
    if (O.Trace) {
      traceSweep(Questions, R);
    } else {
      timeSweep(O, Questions, R);
      R.metric("setup_s", median(Setups));
    }
  } else {
    recordShares(Jobs, R);
    std::vector<uint64_t> Ref = references(O, Jobs, R);
    if (O.Trace) {
      traceService(O, Jobs, Ref, R);
    } else {
      timeService(O, Jobs, Ref, R);
      R.metric("setup_s", median(Setups));
    }
  }
  R.info("verdict_mismatches", std::to_string(R.T.Mismatches));
  if (!R.T.FirstMismatch.empty()) {
    R.info("first_mismatch", quoted(R.T.FirstMismatch));
    std::cerr << "verdict mismatch: " << R.T.FirstMismatch << "\n";
  }
  R.print();
  return 0;
}
