//===- tools/jsmm_batch.cpp - Batch litmus service front door -------------===//
///
/// \file
/// The herd7/diy-scale batch runner over the LitmusService: consume a
/// JSONL job file, a directory of .litmus files, individual litmus files,
/// or the built-in differential corpus; emit one JSON verdict object per
/// job, in submission order, byte-identical for every --workers value.
///
///   jsmm-batch jobs.jsonl                       # one job per JSON line
///   jsmm-batch examples/litmus --model=revised  # every .litmus, sorted
///   jsmm-batch a.litmus b.litmus --workers=4    # explicit files
///   jsmm-batch --corpus                         # differential corpus
///   jsmm-batch --corpus=large                   # 65+-event corpus
///
/// JSONL job lines are objects with "litmus" (inline source) or "file"
/// (path, relative to the job file), plus optional "name", "model"
/// (default: the --model flag), "threads", "reduce" and "static"
/// (booleans; defaults: the --reduce flag / --no-static absent). A
/// malformed line or an unreadable file fails that job — never the batch.
///
/// Output lines carry: job index, name, model, status
/// (ok / too-large / parse-error / unsupported), the allowed-outcome sets
/// per backend, differential soundness/weakening diffs, the checked
/// allow/forbid expectations, and a "static" object (the pre-analysis
/// summary: drf certificate, may-race and lint counts, whether the DRF-SC
/// fast path served the verdicts, and the value-aware pruning effort —
/// "rf_pruned" writer choices and "paths_pruned" path combinations cut
/// during full enumerations). A summary with cache and throughput
/// numbers goes to stderr, keeping stdout deterministic.
///
/// Exit status: 0 all jobs ok and expectations hold; 1 some job failed;
/// 2 usage or input-level errors.
///
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "service/LitmusService.h"
#include "solver/TotSolver.h"
#include "support/Json.h"
#include "support/Str.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

using namespace jsmm;

namespace {

int usage() {
  std::cerr
      << "usage: jsmm-batch <jobs.jsonl | directory | file.litmus>... "
         "[options]\n"
         "       jsmm-batch --corpus [options]\n"
         "       jsmm-batch --corpus=large [options]   (65+-event programs)\n"
         "options:\n"
         "  --model=NAME   backend for directory/file jobs (default: "
         "differential)\n"
         "  --workers=N    worker pool size (default 1; 0 = one per "
         "hardware thread)\n"
         "  --threads=N    engine threads per job (default 1; 0 = "
         "hardware)\n"
         "  --solver=brute|propagate|sat   tot-order solver (default: "
         "propagate)\n"
         "  --reduce=on|off   equivalence-aware enumeration (default: on; "
         "identical verdicts either way)\n"
         "  --no-static    disable the static pre-analysis and DRF-SC fast "
         "path\n"
         "                 (default: on; identical verdicts either way)\n"
         "  --no-cache     disable the verdict cache\n"
         "  --output=PATH  write the JSONL stream to PATH instead of "
         "stdout\n"
         "  --stats        per-job solver counters in the JSONL stream, "
         "plus a human\n"
         "                 summary (latency percentiles, cache hit rate) on "
         "stderr\n"
         "  --stats=json   same, ending the stream with one machine-"
         "readable\n"
         "                 'run-summary' JSON record\n"
         "  --trace=PATH   append JSONL trace events (job-start/job-end, "
         "tier-select,\n"
         "                 solver-dispatch, cache-hit/miss) to PATH\n";
  return 2;
}

/// One job of the batch: either a service job, or an input-layer failure
/// (unreadable file, malformed JSONL line) pinned to its submission slot.
struct PendingJob {
  LitmusJob Job;
  std::optional<LitmusJobResult> PreFailed;
};

LitmusJobResult inputFailure(const std::string &Name, const std::string &Model,
                             JobStatus Status, const std::string &Error) {
  LitmusJobResult R;
  R.Name = Name;
  R.Model = Model;
  R.Status = Status;
  R.Error = Error;
  return R;
}

/// Parses one JSONL job line into \p Out. \returns false with \p Error on
/// a malformed line.
bool jobFromJsonLine(const std::string &Line, const std::string &BaseDir,
                     const std::string &DefaultModel, unsigned DefaultThreads,
                     bool DefaultReduce, bool DefaultStatic, LitmusJob &Out,
                     std::string &Error) {
  std::string JsonError;
  std::optional<JsonValue> V = parseJson(Line, &JsonError);
  if (!V) {
    Error = "malformed JSON job line (" + JsonError + ")";
    return false;
  }
  if (!V->isObject()) {
    Error = "job line must be a JSON object";
    return false;
  }
  Out.Model = DefaultModel;
  Out.Threads = DefaultThreads;
  Out.Reduce = DefaultReduce;
  Out.Static = DefaultStatic;
  const JsonValue *Name = V->find("name");
  if (Name) {
    if (!Name->isString()) {
      Error = "\"name\" must be a string";
      return false;
    }
    Out.Name = Name->asString();
  }
  const JsonValue *Model = V->find("model");
  if (Model) {
    if (!Model->isString()) {
      Error = "\"model\" must be a string";
      return false;
    }
    Out.Model = Model->asString();
  }
  const JsonValue *Threads = V->find("threads");
  if (Threads) {
    // Range-check before the cast: converting an out-of-range double to
    // unsigned is undefined behaviour, not a wrapped value.
    double N = Threads->isNumber() ? Threads->asNumber() : -1;
    if (N < 0 || N > 4294967295.0 || N != std::floor(N)) {
      Error = "\"threads\" must be a non-negative integer";
      return false;
    }
    Out.Threads = static_cast<unsigned>(N);
  }
  const JsonValue *Reduce = V->find("reduce");
  if (Reduce) {
    if (!Reduce->isBool()) {
      Error = "\"reduce\" must be a boolean";
      return false;
    }
    Out.Reduce = Reduce->asBool();
  }
  const JsonValue *Static = V->find("static");
  if (Static) {
    if (!Static->isBool()) {
      Error = "\"static\" must be a boolean";
      return false;
    }
    Out.Static = Static->asBool();
  }
  const JsonValue *Litmus = V->find("litmus");
  const JsonValue *File = V->find("file");
  if (Litmus) {
    if (!Litmus->isString()) {
      Error = "\"litmus\" must be a string";
      return false;
    }
    Out.Litmus = Litmus->asString();
    return true;
  }
  if (File && !File->isString()) {
    Error = "\"file\" must be a string";
    return false;
  }
  if (File) {
    std::filesystem::path P(File->asString());
    if (P.is_relative() && !BaseDir.empty())
      P = std::filesystem::path(BaseDir) / P;
    std::optional<std::string> Text = readFileText(P.string());
    if (!Text) {
      Error = "cannot read litmus file '" + P.string() + "'";
      return false;
    }
    if (Out.Name.empty())
      Out.Name = P.stem().string();
    Out.Litmus = *Text;
    return true;
  }
  Error = "job line needs a \"litmus\" or \"file\" member";
  return false;
}

/// The per-job solver-activity object of the --stats JSONL rendering.
/// Every field is deterministic (see LitmusJobResult::Solver).
JsonValue solverJson(const SolverActivity &A) {
  JsonValue O = JsonValue::object();
  O.set("queries", JsonValue(static_cast<uint64_t>(A.Queries)));
  O.set("propagate_branches",
        JsonValue(static_cast<uint64_t>(A.PropagateBranches)));
  O.set("propagate_forced_edges",
        JsonValue(static_cast<uint64_t>(A.PropagateForcedEdges)));
  O.set("brute_extensions",
        JsonValue(static_cast<uint64_t>(A.BruteExtensions)));
  O.set("sat_decisions", JsonValue(static_cast<uint64_t>(A.SatDecisions)));
  O.set("sat_propagations",
        JsonValue(static_cast<uint64_t>(A.SatPropagations)));
  O.set("sat_conflicts", JsonValue(static_cast<uint64_t>(A.SatConflicts)));
  O.set("sat_learned", JsonValue(static_cast<uint64_t>(A.SatLearned)));
  O.set("sat_cycle_clauses",
        JsonValue(static_cast<uint64_t>(A.SatCycleClauses)));
  return O;
}

/// Renders one result as its deterministic JSONL object. \p WithSolver
/// (--stats) appends the job's solver-activity counters.
std::string renderResult(size_t Index, const LitmusJobResult &R,
                         bool WithSolver) {
  JsonValue Obj = JsonValue::object();
  Obj.set("job", JsonValue(static_cast<uint64_t>(Index)));
  Obj.set("name", JsonValue(R.Name));
  Obj.set("model", JsonValue(R.Model));
  Obj.set("status", JsonValue(jobStatusName(R.Status)));
  if (!R.ok()) {
    Obj.set("error", JsonValue(R.Error));
    return Obj.toString();
  }
  JsonValue Allowed = JsonValue::object();
  for (const auto &[Backend, Outcomes] : R.AllowedByBackend) {
    JsonValue Arr = JsonValue::array();
    for (const std::string &O : Outcomes)
      Arr.push(JsonValue(O));
    Allowed.set(Backend, std::move(Arr));
  }
  Obj.set("allowed", std::move(Allowed));
  if (R.Model == "differential") {
    JsonValue Sound = JsonValue::array();
    for (const std::string &S : R.SoundnessViolations)
      Sound.push(JsonValue(S));
    Obj.set("soundness_violations", std::move(Sound));
    JsonValue Weak = JsonValue::array();
    for (const std::string &S : R.ObservableWeakenings)
      Weak.push(JsonValue(S));
    Obj.set("observable_weakenings", std::move(Weak));
  }
  if (!R.Expectations.empty()) {
    JsonValue Exp = JsonValue::array();
    for (const ExpectationResult &E : R.Expectations) {
      JsonValue EO = JsonValue::object();
      EO.set("expect", JsonValue(E.Allowed ? "allow" : "forbid"));
      EO.set("outcome", JsonValue(E.Outcome));
      EO.set("observed", JsonValue(E.Observed ? "allowed" : "forbidden"));
      EO.set("ok", JsonValue(E.Ok));
      Exp.push(std::move(EO));
    }
    Obj.set("expectations", std::move(Exp));
  }
  if (R.HasStatic) {
    // The pre-analysis summary: a deterministic function of the job, so
    // the stream stays byte-identical for every --workers value.
    JsonValue St = JsonValue::object();
    St.set("drf", JsonValue(R.StaticallyDrf));
    St.set("may_races", JsonValue(static_cast<uint64_t>(R.StaticMayRaces)));
    St.set("lints", JsonValue(static_cast<uint64_t>(R.StaticLints)));
    St.set("fastpath", JsonValue(R.DrfFastPath));
    // The pruning counts of the job's engine call, summed over the
    // columns of a differential table.
    St.set("rf_pruned", JsonValue(R.Effort.Stats.StaticRfPruned));
    St.set("paths_pruned", JsonValue(R.Effort.Stats.StaticPathsPruned));
    Obj.set("static", std::move(St));
  }
  if (WithSolver && R.HasSolverStats)
    Obj.set("solver", solverJson(R.Solver));
  return Obj.toString();
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Inputs;
  std::string Model = "differential";
  std::string OutputPath;
  std::string TracePath;
  unsigned Workers = 1;
  unsigned JobThreads = 1;
  bool UseCorpus = false;
  bool UseLargeCorpus = false;
  bool NoCache = false;
  bool Reduce = true;
  bool Static = true;
  bool Stats = false;
  bool StatsJson = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--corpus") {
      UseCorpus = true;
    } else if (Arg == "--corpus=large") {
      UseLargeCorpus = true;
    } else if (Arg == "--no-cache") {
      NoCache = true;
    } else if (Arg == "--no-static") {
      Static = false;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--stats=json") {
      Stats = StatsJson = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
      if (TracePath.empty()) {
        std::cerr << "jsmm-batch: --trace needs a file path\n";
        return 2;
      }
    } else if (Arg.rfind("--model=", 0) == 0) {
      Model = Arg.substr(8);
    } else if (Arg.rfind("--output=", 0) == 0) {
      OutputPath = Arg.substr(9);
    } else if (Arg.rfind("--workers=", 0) == 0) {
      std::optional<unsigned> N = parseCliUnsigned("jsmm-batch", "--workers", Arg.substr(10));
      if (!N)
        return 2;
      Workers = *N;
    } else if (Arg.rfind("--threads=", 0) == 0) {
      std::optional<unsigned> N = parseCliUnsigned("jsmm-batch", "--threads", Arg.substr(10));
      if (!N)
        return 2;
      JobThreads = *N;
    } else if (Arg.rfind("--reduce=", 0) == 0) {
      std::string Val = Arg.substr(9);
      if (Val != "on" && Val != "off") {
        std::cerr << "jsmm-batch: --reduce takes 'on' or 'off', not '" << Val
                  << "'\n";
        return 2;
      }
      Reduce = Val == "on";
    } else if (Arg.rfind("--solver=", 0) == 0) {
      std::optional<SolverKind> Kind = solverKindByName(Arg.substr(9));
      if (!Kind) {
        std::cerr << "jsmm-batch: unknown solver '" << Arg.substr(9)
                  << "'; pick 'brute', 'propagate' or 'sat'\n";
        return 2;
      }
      setDefaultSolverKind(*Kind);
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty() && !UseCorpus && !UseLargeCorpus)
    return usage();

  // Collect jobs in submission order. Input-layer failures (unreadable
  // files, malformed JSONL lines) keep their slot as pre-failed results.
  std::vector<PendingJob> Pending;
  if (UseCorpus)
    for (LitmusJob &J : differentialCorpusJobs(Model, JobThreads)) {
      J.Reduce = Reduce;
      J.Static = Static;
      Pending.push_back({std::move(J), std::nullopt});
    }
  if (UseLargeCorpus)
    for (LitmusJob &J : largeCorpusJobs(Model, JobThreads)) {
      J.Reduce = Reduce;
      J.Static = Static;
      Pending.push_back({std::move(J), std::nullopt});
    }
  for (const std::string &Input : Inputs) {
    std::error_code Ec;
    if (std::filesystem::is_directory(Input, Ec)) {
      std::vector<std::string> Files;
      std::filesystem::directory_iterator It(Input, Ec);
      if (Ec) {
        std::cerr << "jsmm-batch: cannot list '" << Input
                  << "': " << Ec.message() << "\n";
        return 2;
      }
      for (std::filesystem::directory_iterator End; It != End;
           It.increment(Ec)) {
        if (Ec) {
          std::cerr << "jsmm-batch: error listing '" << Input
                    << "': " << Ec.message() << "\n";
          return 2;
        }
        if (It->path().extension() == ".litmus")
          Files.push_back(It->path().string());
      }
      std::sort(Files.begin(), Files.end());
      if (Files.empty()) {
        std::cerr << "jsmm-batch: no .litmus files in '" << Input << "'\n";
        return 2;
      }
      for (const std::string &Path : Files) {
        PendingJob P;
        P.Job.Name = std::filesystem::path(Path).stem().string();
        P.Job.Model = Model;
        P.Job.Threads = JobThreads;
        P.Job.Reduce = Reduce;
        P.Job.Static = Static;
        if (std::optional<std::string> Text = readFileText(Path))
          P.Job.Litmus = *Text;
        else
          P.PreFailed = inputFailure(P.Job.Name, Model, JobStatus::ParseError,
                                     "cannot read '" + Path + "'");
        Pending.push_back(std::move(P));
      }
    } else if (Input.size() > 6 &&
               Input.compare(Input.size() - 6, 6, ".jsonl") == 0) {
      std::optional<std::string> Text = readFileText(Input);
      if (!Text) {
        std::cerr << "jsmm-batch: cannot open '" << Input << "'\n";
        return 2;
      }
      std::string BaseDir =
          std::filesystem::path(Input).parent_path().string();
      std::istringstream In(*Text);
      std::string Line;
      unsigned LineNo = 0;
      while (std::getline(In, Line)) {
        ++LineNo;
        // Tolerate blank lines and CRLF job files.
        if (!Line.empty() && Line.back() == '\r')
          Line.pop_back();
        if (Line.find_first_not_of(" \t") == std::string::npos)
          continue;
        PendingJob P;
        std::string Error;
        if (!jobFromJsonLine(Line, BaseDir, Model, JobThreads, Reduce, Static,
                             P.Job, Error))
          P.PreFailed = inputFailure(
              "line-" + std::to_string(LineNo), Model, JobStatus::ParseError,
              Input + ":" + std::to_string(LineNo) + ": " + Error);
        Pending.push_back(std::move(P));
      }
    } else {
      PendingJob P;
      P.Job.Name = std::filesystem::path(Input).stem().string();
      P.Job.Model = Model;
      P.Job.Threads = JobThreads;
      P.Job.Reduce = Reduce;
      P.Job.Static = Static;
      if (std::optional<std::string> Text = readFileText(Input))
        P.Job.Litmus = *Text;
      else
        P.PreFailed = inputFailure(P.Job.Name, Model, JobStatus::ParseError,
                                   "cannot read '" + Input + "'");
      Pending.push_back(std::move(P));
    }
  }
  if (Pending.empty()) {
    std::cerr << "jsmm-batch: no jobs\n";
    return 2;
  }

  // Submit the runnable slots to the service; pre-failed slots keep their
  // input-layer result.
  std::vector<LitmusJob> Jobs;
  std::vector<size_t> JobSlot;
  for (size_t I = 0; I < Pending.size(); ++I) {
    if (Pending[I].PreFailed)
      continue;
    Jobs.push_back(Pending[I].Job);
    JobSlot.push_back(I);
  }

  ServiceConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.CacheVerdicts = !NoCache;
  LitmusService Service(Cfg);

  if (Stats)
    obs::setMetricsEnabled(true);
  std::unique_ptr<obs::TraceSink> Trace;
  if (!TracePath.empty()) {
    std::string TraceError;
    Trace = obs::TraceSink::open(TracePath, &TraceError);
    if (!Trace) {
      std::cerr << "jsmm-batch: " << TraceError << "\n";
      return 2;
    }
    obs::setTrace(Trace.get());
  }

  auto Start = std::chrono::steady_clock::now();
  std::vector<LitmusJobResult> RunResults = Service.run(Jobs);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  obs::setTrace(nullptr);

  std::vector<LitmusJobResult> Results(Pending.size());
  for (size_t I = 0; I < Pending.size(); ++I)
    if (Pending[I].PreFailed)
      Results[I] = *Pending[I].PreFailed;
  for (size_t J = 0; J < RunResults.size(); ++J)
    Results[JobSlot[J]] = RunResults[J];

  std::ofstream OutFile;
  if (!OutputPath.empty()) {
    OutFile.open(OutputPath);
    if (!OutFile) {
      std::cerr << "jsmm-batch: cannot write '" << OutputPath << "'\n";
      return 2;
    }
  }
  std::ostream &Out = OutputPath.empty() ? std::cout : OutFile;

  size_t OkJobs = 0, FailedExpectations = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    Out << renderResult(I, Results[I], Stats) << "\n";
    if (Results[I].ok()) {
      ++OkJobs;
      if (!Results[I].expectationsOk())
        ++FailedExpectations;
    }
  }

  LitmusService::CacheStats CS = Service.cacheStats();
  if (StatsJson) {
    // One machine-readable run-summary record closes the stream: the
    // registry's deterministic "counters" section plus the run's job,
    // cache and throughput numbers. tools/perf_trend.py ingests this.
    JsonValue Summary = obs::runSummary("jsmm-batch");
    JsonValue JobsObj = JsonValue::object();
    JobsObj.set("total", JsonValue(static_cast<uint64_t>(Results.size())));
    JobsObj.set("ok", JsonValue(static_cast<uint64_t>(OkJobs)));
    JobsObj.set("failed",
                JsonValue(static_cast<uint64_t>(Results.size() - OkJobs)));
    JobsObj.set("failed_expectations",
                JsonValue(static_cast<uint64_t>(FailedExpectations)));
    Summary.set("jobs", std::move(JobsObj));
    JsonValue CacheObj = JsonValue::object();
    CacheObj.set("hits", JsonValue(static_cast<uint64_t>(CS.Hits)));
    CacheObj.set("misses", JsonValue(static_cast<uint64_t>(CS.Misses)));
    CacheObj.set("hit_rate",
                 JsonValue(CS.Hits + CS.Misses
                               ? static_cast<double>(CS.Hits) /
                                     static_cast<double>(CS.Hits + CS.Misses)
                               : 0.0));
    Summary.set("cache", std::move(CacheObj));
    Summary.set("workers",
                JsonValue(static_cast<uint64_t>(Service.effectiveWorkers())));
    Summary.set("wall_s", JsonValue(Seconds));
    Summary.set("jobs_per_sec",
                JsonValue(Seconds > 0
                              ? static_cast<double>(Jobs.size()) / Seconds
                              : 0.0));
    Out << Summary.toString() << "\n";
  }
  std::cerr << "jsmm-batch: " << Results.size() << " jobs, " << OkJobs
            << " ok, " << (Results.size() - OkJobs) << " failed, "
            << FailedExpectations << " with failed expectations; cache "
            << CS.Hits << " hits / " << CS.Misses << " misses; "
            << Service.effectiveWorkers() << " workers, " << Seconds
            << " s";
  if (Seconds > 0)
    std::cerr << " (" << (static_cast<double>(Jobs.size()) / Seconds)
              << " jobs/s)";
  std::cerr << "\n";
  if (Stats && !StatsJson) {
    obs::LatencyHistogram &H =
        obs::registry().histogram("service.job_wall_us");
    std::cerr << "jsmm-batch: job wall p50 " << H.percentileMicros(50)
              << " us, p90 " << H.percentileMicros(90) << " us, p99 "
              << H.percentileMicros(99) << " us, max " << H.maxMicros()
              << " us; solver queries "
              << obs::registry().counter("solver.queries").value() << "\n";
  }

  bool AllOk = OkJobs == Results.size() && FailedExpectations == 0;
  return AllOk ? 0 : 1;
}
