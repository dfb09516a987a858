//===- tools/jsmm_run.cpp - Command-line litmus runner --------------------===//
///
/// \file
/// The jsmm equivalent of a herd7 session, on every engine backend:
///
///   jsmm-run test.litmus                 # revised JavaScript model
///   jsmm-run test.litmus --model=original
///   jsmm-run test.litmus --model=x86-tso # compiled, target-model verdicts
///   jsmm-run test.litmus --threads=4     # sharded engine enumeration
///   jsmm-run test.litmus --solver=brute  # linear-extension tot oracle
///                                        # (default: propagate)
///   jsmm-run test.litmus --reduce=off    # disable the equivalence-aware
///                                        # enumeration (default: on)
///   jsmm-run test.litmus --no-static     # disable the static DRF-SC
///                                        # fast path (default: on)
///   jsmm-run test.litmus --arm           # also the compiled ARMv8 verdict
///   jsmm-run test.litmus --scdrf         # also the SC-DRF report
///   jsmm-run --list-models               # every backend, one per line
///
/// Prints the allowed outcomes and checks any `allow`/`forbid`
/// expectations in the file; exits non-zero if an expectation fails.
///
/// JavaScript backends run the litmus program as written. Target backends
/// (x86-tso, armv8-uni, armv7, power, riscv, immlite) require the
/// uni-size fragment — straight-line code over uniform non-overlapping
/// cells — which is compiled with the Thm 6.3 scheme and enumerated under
/// the architecture's axiomatic model; `armv8` compiles to the mixed-size
/// ARMv8 model of §4.
///
/// The verdicts come from LitmusService::computeResult, the backend
/// dispatch jsmm-batch runs too (minus its cache and per-job telemetry):
/// one model table, one set of capacity and fragment gates. Only the
/// witness-carrying SC-DRF report is a direct engine call.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticValues.h"
#include "obs/Obs.h"
#include "service/LitmusService.h"
#include "solver/TotSolver.h"
#include "support/CapacityError.h"
#include "support/Str.h"
#include "tools/LitmusParser.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

using namespace jsmm;

namespace {

void listModels(std::ostream &Out) {
  Out << "jsmm-run backends (--model=NAME):\n"
      << "  JavaScript (mixed-size litmus program as written):\n";
  for (const JsVariant &V : jsVariants())
    Out << "    " << padRight(V.Name, 11) << V.Desc << "\n";
  Out << "  compiled ARMv8 (mixed-size, \xC2\xA7" "4 model):\n"
      << "    " << padRight("armv8", 11)
      << "the litmus program under the \xC2\xA7" "5.1 scheme\n"
      << "  compiled Thm 6.3 targets (uni-size fragment only):\n";
  for (const TargetModel &M : TargetModel::all())
    Out << "    " << padRight(M.name(), 11) << targetArchName(M.arch())
        << " axiomatic model\n";
  Out << "capacity tiers (selected per program by event count):\n"
      << "  <= " << Relation::MaxSize
      << " events    inline relations, order-search solver\n"
      << "  <= " << EngineConfig().SatThreshold
      << " events   heap-backed relations, order-search solver\n"
      << "  <= " << DynRelation::MaxSize
      << " events  heap-backed relations, SAT/CDCL consistency tier\n";
}

int usage() {
  std::cerr << "usage: jsmm-run <file.litmus> [--model=NAME] [--threads=N] "
               "[--solver=brute|propagate|sat] [--reduce=on|off] "
               "[--no-static] [--arm] "
               "[--scdrf] [--stats[=json]] [--trace=FILE]\n"
               "  --no-static    disable the static DRF-SC fast path "
               "(statically\n"
               "                 race-free programs answered by one SC "
               "enumeration)\n"
               "       jsmm-run --list-models\n"
               "  --stats        enumeration-effort footer (candidates, "
               "pruned/slept\n"
               "                 subtrees, static classification and "
               "pruning, tier\n"
               "                 and solver, solver counters; the static "
               "block prints\n"
               "                 even under --no-static)\n"
               "  --stats=json   the footer as one 'run-summary' JSON "
               "line\n"
               "  --trace=FILE   append JSONL trace events to FILE\n";
  return 2;
}

int unknownModel(const std::string &Name) {
  std::cerr << "jsmm-run: unknown model '" << Name
            << "'; pick one of the following (or run --list-models):\n";
  listModels(std::cerr);
  return 2;
}

/// Prints the allowed outcomes of \p R's own column and its expectation
/// checks; \returns the number of failed expectations.
int reportOutcomes(const LitmusJobResult &R) {
  const std::vector<std::string> &Allowed = R.AllowedByBackend.at(R.Model);
  std::cout << "allowed outcomes (" << Allowed.size() << "):\n";
  for (const std::string &O : Allowed)
    std::cout << "  " << O << "\n";
  int Failures = 0;
  for (const ExpectationResult &E : R.Expectations) {
    Failures += E.Ok ? 0 : 1;
    std::cout << (E.Ok ? "[ok]   " : "[FAIL] ")
              << (E.Allowed ? "allow  " : "forbid ") << E.Outcome << "  -> "
              << (E.Observed ? "allowed" : "forbidden") << "\n";
  }
  return Failures;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path;
  std::string TracePath;
  bool Stats = false, StatsJson = false;
  // The job's defaults are the CLI's: the equivalence-aware enumeration
  // (--reduce=off restores the exhaustive walk) and the static DRF-SC fast
  // path (--no-static restores the full model enumeration) are on. The
  // verdict tables are identical either way (reduction_test and the
  // static-vs-dynamic tests pin this); only the work shrinks.
  LitmusJob Job;
  bool WithArm = false, WithScDrf = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list-models") {
      listModels(std::cout);
      return 0;
    }
    if (Arg.rfind("--threads=", 0) == 0) {
      // Strict parse: non-numeric and overflowing values are friendly
      // errors (exit 2), never a crash or a silently clamped config.
      std::optional<unsigned> N =
          parseCliUnsigned("jsmm-run", "--threads", Arg.substr(10));
      if (!N)
        return 2;
      Job.Threads = *N;
      continue;
    }
    if (Arg.rfind("--model=", 0) == 0) {
      Job.Model = Arg.substr(8);
      continue;
    }
    if (Arg.rfind("--reduce=", 0) == 0) {
      std::string Val = Arg.substr(9);
      if (Val != "on" && Val != "off") {
        std::cerr << "jsmm-run: --reduce takes 'on' or 'off', not '" << Val
                  << "'\n";
        return 2;
      }
      Job.Reduce = Val == "on";
      continue;
    }
    if (Arg.rfind("--solver=", 0) == 0) {
      std::string Name = Arg.substr(9);
      std::optional<SolverKind> Kind = solverKindByName(Name);
      if (!Kind) {
        std::cerr << "jsmm-run: unknown solver '" << Name
                  << "'; pick 'brute', 'propagate' or 'sat'\n";
        return 2;
      }
      // The process default: every layer (validity, deadness, searches,
      // engine backends) resolves its unset SolverConfig to this.
      setDefaultSolverKind(*Kind);
      continue;
    }
    if (Arg == "--stats") {
      Stats = true;
      continue;
    }
    if (Arg == "--stats=json") {
      Stats = StatsJson = true;
      continue;
    }
    if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
      if (TracePath.empty()) {
        std::cerr << "jsmm-run: --trace needs a file path\n";
        return 2;
      }
      continue;
    }
    if (Arg == "--no-static") {
      Job.Static = false;
      continue;
    }
    if (Arg == "--arm")
      WithArm = true;
    else if (Arg == "--scdrf")
      WithScDrf = true;
    else if (!Arg.empty() && Arg[0] == '-')
      return usage();
    else
      Path = Arg;
  }

  // Resolve the backend up front so a typo fails before any file I/O. The
  // cross-model "differential" table is jsmm-batch's, not a backend here.
  const JsVariant *Js = jsVariant(Job.Model);
  if (!isKnownModel(Job.Model) || Job.Model == "differential")
    return unknownModel(Job.Model);

  if (Path.empty())
    return usage();
  if ((WithArm || WithScDrf) && !Js) {
    std::cerr << "jsmm-run: --arm/--scdrf apply to the JavaScript backends "
                 "only (model '" << Job.Model << "' is a compiled backend)\n";
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::cerr << "jsmm-run: cannot open '" << Path << "'\n";
    return 2;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  std::optional<LitmusFile> File = parseLitmus(Buf.str(), &Error);
  if (!File) {
    std::cerr << "jsmm-run: " << Path << ": " << Error << "\n";
    return 2;
  }

  if (Stats)
    obs::setMetricsEnabled(true);
  std::unique_ptr<obs::TraceSink> Trace;
  if (!TracePath.empty()) {
    std::string TraceError;
    Trace = obs::TraceSink::open(TracePath, &TraceError);
    if (!Trace) {
      std::cerr << "jsmm-run: " << TraceError << "\n";
      return 2;
    }
    obs::setTrace(Trace.get());
  }

  std::cout << "test " << File->P.Name << " (model: " << Job.Model
            << ", threads: " << resolveThreads(Job.Threads)
            << ", solver: " << solverKindName(defaultSolverKind())
            << ", reduce: " << (Job.Reduce ? "on" : "off") << ")\n";

  // A job the service refused (outside the backend's fragment, too large
  // for a capacity tier) is a usage-level failure of this run.
  auto Refused = [&](const LitmusJobResult &R) {
    std::cerr << "jsmm-run: " << Path << ": " << R.Error << "\n";
    return 2;
  };
  // The footer's solver line counts the primary verdict's queries only,
  // not those of the --arm/--scdrf extras that run after it.
  SolverActivitySink PrimarySolver;
  SolverActivitySink *OuterSink = currentSolverActivitySink();
  if (Stats)
    setCurrentSolverActivitySink(&PrimarySolver);
  LitmusJobResult R = LitmusService::computeResult(Job, *File);
  setCurrentSolverActivitySink(OuterSink);
  if (!R.ok())
    return Refused(R);
  // Likewise the JSON summary: the registry is read before the extras add
  // to its process-wide counters.
  JsonValue Summary;
  if (StatsJson)
    Summary = obs::runSummary("jsmm-run");
  int Failures = reportOutcomes(R);

  if (WithArm) {
    LitmusJob ArmJob = Job;
    ArmJob.Model = "armv8";
    LitmusJobResult Arm = LitmusService::computeResult(ArmJob, *File);
    if (Arm.Status == JobStatus::Unsupported) {
      // The zero-init gate: the JavaScript verdict stands on its own.
      std::cerr << "jsmm-run: " << Path << ": skipping --arm: "
                << Arm.Error.substr(0, Arm.Error.find(';')) << "\n";
    } else if (!Arm.ok()) {
      return Refused(Arm);
    } else {
      const std::vector<std::string> &Outcomes = Arm.AllowedByBackend.at(
          ArmJob.Model);
      std::cout << "compiled ARMv8 outcomes (" << Outcomes.size() << "):\n";
      for (const std::string &O : Outcomes)
        std::cout << "  " << O
                  << (R.allows(Job.Model, O) ? "" : "   <- not allowed by JS!")
                  << "\n";
    }
  }

  if (WithScDrf) {
    try {
      ScDrfReport Rep = ExecutionEngine().scDrf(File->P, JsModel(Js->Spec));
      std::cout << "SC-DRF: data-race-free="
                << (Rep.DataRaceFree ? "yes" : "no")
                << " all-SC=" << (Rep.AllValidExecutionsSC ? "yes" : "no")
                << " property=" << (Rep.holds() ? "holds" : "VIOLATED")
                << "\n";
    } catch (const CapacityError &E) {
      // The witness-carrying report stays on the 64-event tier.
      std::cerr << "jsmm-run: " << Path << ": " << E.what() << "\n";
      return 2;
    }
  }
  obs::setTrace(nullptr);

  const EnumerationEffort &Eff = R.Effort;
  if (Stats && !StatsJson) {
    SolverActivity Solver = PrimarySolver.snapshot();
    // The static classification block prints whether or not the fast path
    // is enabled (--no-static disables the *use* of the analysis, not the
    // footer) — so a user can see why a program wasn't served statically.
    analysis::StaticValues SV = analysis::analyzeValues(File->P);
    unsigned Racy = 0;
    for (const auto &[Key, F] : SV.Bytes) {
      (void)Key;
      if (F.Class == analysis::ByteClass::MultiWriter && F.Read)
        ++Racy;
    }
    std::cout << "stats: tier " << (Eff.Tier.empty() ? "-" : Eff.Tier)
              << ", solver " << (Eff.Solver.empty() ? "-" : Eff.Solver) << "\n"
              << "stats: candidates considered " << Eff.CandidatesConsidered
              << ", valid " << Eff.ValidCandidates << "\n"
              << "stats: static bytes " << SV.Bytes.size() << ", racy bytes "
              << Racy << ", may-races " << SV.C.MayRaces.size() << ", drf "
              << (SV.C.StaticallyDrf ? "yes" : "no") << ", fast path "
              << (Job.Static ? "on" : "off") << "\n"
              << "stats: static rf pruned " << Eff.Stats.StaticRfPruned
              << ", paths pruned " << Eff.Stats.StaticPathsPruned
              << ", may-rf excluded " << SV.MayRfExcluded << "\n"
              << "stats: work items " << Eff.Stats.WorkItems
              << ", pruned subtrees " << Eff.Stats.PrunedSubtrees
              << ", slept branches " << Eff.Stats.SleptBranches << "\n"
              << "stats: solver queries " << Solver.Queries
              << ", propagate branches " << Solver.PropagateBranches
              << ", forced edges " << Solver.PropagateForcedEdges
              << ", sat decisions " << Solver.SatDecisions
              << ", sat conflicts " << Solver.SatConflicts << "\n";
  } else if (StatsJson) {
    Summary.set("test", JsonValue(File->P.Name));
    Summary.set("model", JsonValue(Job.Model));
    Summary.set("tier", JsonValue(Eff.Tier));
    Summary.set("solver", JsonValue(Eff.Solver));
    JsonValue Cand = JsonValue::object();
    Cand.set("considered", JsonValue(Eff.CandidatesConsidered));
    Cand.set("valid", JsonValue(Eff.ValidCandidates));
    Summary.set("candidates", std::move(Cand));
    analysis::StaticValues SV = analysis::analyzeValues(File->P);
    JsonValue St = JsonValue::object();
    St.set("drf", JsonValue(SV.C.StaticallyDrf));
    St.set("may_races",
           JsonValue(static_cast<uint64_t>(SV.C.MayRaces.size())));
    St.set("may_rf_excluded", JsonValue(SV.MayRfExcluded));
    St.set("rf_pruned", JsonValue(Eff.Stats.StaticRfPruned));
    St.set("paths_pruned", JsonValue(Eff.Stats.StaticPathsPruned));
    St.set("fastpath", JsonValue(Job.Static));
    Summary.set("static", std::move(St));
    std::cout << Summary.toString() << "\n";
  }

  return Failures == 0 ? 0 : 1;
}
