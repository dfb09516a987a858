//===- perfbench/src/Replay.cpp - Traced layer-by-layer replay ------------===//
///
/// \file
/// The traced run replays each job through the public functions of the
/// layers the service calls for it, in the service's order (the column
/// order of the differential table), with the EngineConfig the service
/// builds for the job. One span per call, with the counts read at the same
/// boundary: EngineStats, OutcomeSummary counts and the SolverActivity of a
/// per-call sink. Spans stay in memory; the caller aggregates them at the
/// end. The replayed tables are compared with the service's by the caller,
/// so the replay provably measures the same work. Under the oracle
/// configuration the same column logic computes the reference tables
/// (Reference.cpp).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/ScEnumeration.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "targets/TargetCompile.h"
#include "targets/UniProgram.h"

#include <set>

using namespace jsmm;
using namespace perfbench;

namespace {

int64_t nsSince(Clock::time_point Origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

/// Records one child span of the current job around \p Fn(Span &).
template <typename Fn>
void timed(std::vector<Span> &Spans, Clock::time_point Origin, int Job,
           unsigned JobId, const std::string &Name, const std::string &Backend,
           Fn &&F) {
  Span S;
  S.Name = Name;
  S.Parent = Job;
  S.JobId = JobId;
  S.Backend = Backend;
  S.StartNs = nsSince(Origin);
  F(S);
  S.EndNs = nsSince(Origin);
  Spans.push_back(std::move(S));
}

void addSolver(Span &S, const SolverActivity &A) {
  S.Counts["solver.queries"] = static_cast<double>(A.Queries);
  S.Counts["solver.propagate_branches"] =
      static_cast<double>(A.PropagateBranches);
  S.Counts["solver.sat_decisions"] = static_cast<double>(A.SatDecisions);
  S.Counts["solver.sat_conflicts"] = static_cast<double>(A.SatConflicts);
  S.Counts["solver.sat_learned"] = static_cast<double>(A.SatLearned);
}

void addEngine(Span &S, const ExecutionEngine &E, const OutcomeSummary &O) {
  S.Counts["candidates"] = static_cast<double>(O.CandidatesConsidered);
  S.Counts["valid"] = static_cast<double>(O.ValidCandidates);
  S.Counts["outcomes"] = static_cast<double>(O.Allowed.size());
  S.Counts["work_items"] = static_cast<double>(E.Stats.WorkItems);
  S.Counts["pruned_subtrees"] = static_cast<double>(E.Stats.PrunedSubtrees);
  S.Counts["slept_branches"] = static_cast<double>(E.Stats.SleptBranches);
  S.Counts["static_rf_pruned"] = static_cast<double>(E.Stats.StaticRfPruned);
  S.Counts["static_paths_pruned"] =
      static_cast<double>(E.Stats.StaticPathsPruned);
}

/// Runs \p F with a fresh solver-activity sink installed on this thread
/// (the engine forwards it to its shard workers) and records the counts.
template <typename Fn> auto withSink(Span &S, Fn &&F) {
  SolverActivitySink Sink;
  SolverActivitySink *Prev = setCurrentSolverActivitySink(&Sink);
  auto Result = F();
  setCurrentSolverActivitySink(Prev);
  addSolver(S, Sink.snapshot());
  return Result;
}

const ModelSpec *jsSpec(const std::string &Name) {
  static const ModelSpec Original = ModelSpec::original();
  static const ModelSpec Revised = ModelSpec::revised();
  if (Name == "original")
    return &Original;
  if (Name == "revised")
    return &Revised;
  return nullptr;
}

} // namespace

LitmusJobResult Replayer::replay(const BenchJob &J, unsigned JobId) {
  int Job = static_cast<int>(Spans.size());
  Spans.push_back(Span{"job", nsSince(Origin), 0, -1, JobId, J.Job.Model, {}});
  auto Call = [&](const std::string &Name, const std::string &Backend,
                  auto &&F) {
    timed(Spans, Origin, Job, JobId, Name, Backend, F);
  };

  LitmusJobResult R;
  R.Name = J.Job.Name;
  R.Model = J.Job.Model;
  std::optional<LitmusFile> File;
  Call("parser", "", [&](Span &) { File = parseLitmus(J.Job.Litmus); });
  if (!File) {
    R.Status = JobStatus::ParseError;
    Spans[Job].EndNs = nsSince(Origin);
    return R;
  }
  const Program &P = File->P;

  // The service's verdict cache: the canonical re-emission plus the job's
  // configuration.
  std::string Key;
  bool Hit = false;
  Call("service.cache", "", [&](Span &) {
    Key = emitLitmus(*File) + "\x1f" + J.Job.Model;
    auto It = Cache.find(Key);
    if (It != Cache.end()) {
      R.AllowedByBackend = It->second.AllowedByBackend;
      R.SoundnessViolations = It->second.SoundnessViolations;
      R.ObservableWeakenings = It->second.ObservableWeakenings;
      Hit = true;
    }
  });
  if (Hit) {
    Spans[Job].EndNs = nsSince(Origin);
    return R;
  }

  bool Drf = false;
  Call("analysis.classify", "", [&](Span &) {
    Drf = analysis::classify(P).StaticallyDrf;
  });
  ExecutionEngine E(Engine ? *Engine
                           : EngineConfig{J.Job.Threads, true,
                                          /*ForceDynRelation=*/false,
                                          /*Reduction=*/J.Job.Reduce,
                                          /*StaticFastPath=*/J.Job.Static});
  auto Values = [&](const auto &Form) {
    // The engine repeats this analysis inside its own call; timed here once
    // per program form so its share is visible.
    Call("analysis.values", "", [&](Span &) {
      (void)analysis::analyzeValues(Form);
    });
  };
  auto EngineJs = [&](const std::string &Backend, const ModelSpec &S) {
    OutcomeSummary O;
    Call("engine.js", Backend, [&](Span &Sp) {
      O = withSink(Sp,
                   [&] { return E.enumerateOutcomes(P, JsModel(S, Solver)); });
      addEngine(Sp, E, O);
    });
    return O.outcomeStrings();
  };
  auto EngineTarget = [&](const CompiledTarget &CT, const TargetModel &M) {
    OutcomeSummary O;
    Call("engine.target", M.name(), [&](Span &Sp) {
      O = withSink(Sp, [&] { return E.enumerateOutcomes(CT, M); });
      addEngine(Sp, E, O);
    });
    return O.outcomeStrings();
  };

  if (const ModelSpec *S = jsSpec(J.Job.Model)) {
    if (J.Job.Static)
      Values(P);
    R.AllowedByBackend[J.Job.Model] = EngineJs(J.Job.Model, *S);
  } else if (const TargetModel *T = TargetModel::byName(J.Job.Model)) {
    std::optional<UniProgram> Uni;
    CompiledTarget CT;
    Call("compile.uni", T->name(), [&](Span &) {
      Uni = uniFromProgram(P);
      if (Uni)
        CT = compileUni(*Uni, T->arch());
    });
    if (!Uni) {
      R.Status = JobStatus::Unsupported;
    } else {
      if (J.Job.Static)
        Values(CT);
      R.AllowedByBackend[J.Job.Model] = EngineTarget(CT, *T);
    }
  } else if (J.Job.Model == "differential" && Drf && J.Job.Static) {
    // The DRF-SC fast path: one SC enumeration replicated across the
    // columns the full path would produce.
    std::vector<std::string> Allowed;
    Call("analysis.sc", "", [&](Span &Sp) {
      uint64_t States = 0;
      for (const Outcome &O : analysis::enumerateScOutcomes(P, &States))
        Allowed.push_back(O.toString());
      Sp.Counts["states"] = static_cast<double>(States);
    });
    R.AllowedByBackend["js-original"] = Allowed;
    R.AllowedByBackend["js-revised"] = Allowed;
    bool Arm = false, Uni = false;
    Call("compile.arm", "armv8", [&](Span &) {
      Arm = !P.hasNonZeroInit() &&
            !ExecutionEngine::capacityError(compileToArm(P).Arm);
    });
    Call("compile.uni", "", [&](Span &) { Uni = uniFromProgram(P).has_value(); });
    if (Arm)
      R.AllowedByBackend["armv8"] = Allowed;
    if (Uni) {
      R.AllowedByBackend["uni-js"] = Allowed;
      for (const TargetModel &M : TargetModel::all())
        R.AllowedByBackend[M.name()] = Allowed;
    }
  } else if (J.Job.Model == "differential") {
    if (J.Job.Static)
      Values(P);
    R.AllowedByBackend["js-original"] =
        EngineJs("js-original", ModelSpec::original());
    R.AllowedByBackend["js-revised"] =
        EngineJs("js-revised", ModelSpec::revised());
    if (!P.hasNonZeroInit()) {
      CompiledProgram CP;
      bool Fits = false;
      Call("compile.arm", "armv8", [&](Span &) {
        CP = compileToArm(P);
        Fits = !ExecutionEngine::capacityError(CP.Arm);
      });
      if (Fits)
        Call("armv8", "armv8", [&](Span &Sp) {
          ArmEnumerationResult A =
              withSink(Sp, [&] { return E.enumerate(CP.Arm, Armv8Model()); });
          Sp.Counts["candidates"] = static_cast<double>(A.CandidatesConsidered);
          Sp.Counts["consistent"] = static_cast<double>(A.ConsistentCandidates);
          R.AllowedByBackend["armv8"] = A.outcomeStrings();
        });
    }
    std::optional<UniProgram> Uni;
    Call("compile.uni", "", [&](Span &) { Uni = uniFromProgram(P); });
    if (Uni) {
      std::set<std::string> UniSet;
      Call("unisize", "uni-js", [&](Span &Sp) {
        for (const Outcome &O : uniAllowedOutcomes(*Uni))
          UniSet.insert(O.toString());
        Sp.Counts["outcomes"] = static_cast<double>(UniSet.size());
      });
      const std::vector<std::string> &Orig = R.AllowedByBackend["js-original"];
      std::set<std::string> OrigSet(Orig.begin(), Orig.end());
      R.AllowedByBackend["uni-js"].assign(UniSet.begin(), UniSet.end());
      for (const TargetModel &M : TargetModel::all()) {
        CompiledTarget CT;
        Call("compile.uni", M.name(),
             [&](Span &) { CT = compileUni(*Uni, M.arch()); });
        std::vector<std::string> Allowed = EngineTarget(CT, M);
        for (const std::string &O : Allowed) {
          if (!UniSet.count(O))
            R.SoundnessViolations.push_back(std::string(M.name()) + ": " + O);
          if (!OrigSet.count(O))
            R.ObservableWeakenings.push_back(std::string(M.name()) + ": " + O);
        }
        R.AllowedByBackend[M.name()] = std::move(Allowed);
      }
    }
  } else {
    R.Status = JobStatus::Unsupported;
  }
  Cache.emplace(Key, R);
  Spans[Job].EndNs = nsSince(Origin);
  return R;
}

SweepAnswer Replayer::replay(const SweepQuestion &Q, unsigned Id) {
  int Job = static_cast<int>(Spans.size());
  Spans.push_back(Span{"job", nsSince(Origin), 0, -1, Id, Q.name(), {}});
  SweepAnswer A;
  timed(Spans, Origin, Job, Id, "search", Q.name(), [&](Span &Sp) {
    A = withSink(Sp, [&] { return answer(Q); });
    Sp.Counts["skeletons"] = static_cast<double>(A.Skeletons);
    Sp.Counts["rbf_candidates"] = static_cast<double>(A.RbfCandidates);
    Sp.Counts["arm_checks"] = static_cast<double>(A.ArmChecks);
  });
  Spans[Job].EndNs = nsSince(Origin);
  return A;
}
