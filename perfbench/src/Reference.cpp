//===- perfbench/src/Reference.cpp - References for verdict checks --------===//
///
/// \file
/// No reference comes from the configuration being timed:
///   - campaign and wide: committed golden digests for the default seed,
///     generated once by the oracle configuration below; any other seed
///     gets an untimed oracle pass. Wide jobs are referenced on their racy
///     core: the private filler threads' stores are never read, so the
///     verdict table of the whole program is the core's.
///   - ring: the closed form (every combination of neighbour values).
///   - sweep: the paper's answers (§5.2, §5.3, §5.4).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "search/SkeletonSearch.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace jsmm;
using namespace perfbench;

std::string perfbench::renderTable(const LitmusJobResult &R) {
  std::string Out;
  auto Line = [&Out](const std::string &Label, std::vector<std::string> V) {
    std::sort(V.begin(), V.end());
    Out += Label + ":";
    for (const std::string &S : V)
      Out += " " + S + " |";
    Out += "\n";
  };
  Out += std::string("status: ") + jobStatusName(R.Status) + "\n";
  for (const auto &[Backend, Allowed] : R.AllowedByBackend)
    Line(Backend, Allowed);
  if (!R.SoundnessViolations.empty())
    Line("soundness", R.SoundnessViolations);
  if (!R.ObservableWeakenings.empty())
    Line("weakenings", R.ObservableWeakenings);
  return Out;
}

uint64_t perfbench::tableDigest(const std::string &Rendered) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Rendered) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {

/// Restores the process solver on scope exit.
class DefaultSolverScope {
public:
  explicit DefaultSolverScope(SolverKind K) : Prev(defaultSolverKind()) {
    setDefaultSolverKind(K);
  }
  ~DefaultSolverScope() { setDefaultSolverKind(Prev); }
  DefaultSolverScope(const DefaultSolverScope &) = delete;
  DefaultSolverScope &operator=(const DefaultSolverScope &) = delete;

private:
  SolverKind Prev;
};

/// The ring closed form: every register combination, by an odometer over
/// the per-thread choices.
uint64_t ringDigest(const BenchJob &J) {
  LitmusJobResult R;
  std::vector<std::string> &Out = R.AllowedByBackend[J.Job.Model];
  std::vector<size_t> Idx(J.RingChoices.size(), 0);
  while (true) {
    std::string S;
    for (size_t T = 0; T < Idx.size(); ++T)
      S += (T ? " " : "") + std::to_string(T) +
           ":r0=" + std::to_string(J.RingChoices[T][Idx[T]]);
    Out.push_back(S);
    size_t T = 0;
    while (T < Idx.size() && ++Idx[T] == J.RingChoices[T].size())
      Idx[T++] = 0;
    if (T == Idx.size())
      break;
  }
  return tableDigest(renderTable(R));
}

std::vector<uint64_t> oracleDigests(const std::vector<BenchJob> &Jobs) {
  DefaultSolverScope Brute(SolverKind::Brute);
  Replayer Oracle(Clock::now(), EngineConfig::seedCompatible(),
                  SolverConfig::brute());
  std::vector<uint64_t> Out;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!Jobs[I].RingChoices.empty()) {
      Out.push_back(ringDigest(Jobs[I]));
      continue;
    }
    // The full path on the reference program: no static tier, so no
    // DRF-SC shortcut either.
    BenchJob O = Jobs[I];
    O.Job.Litmus = O.RefLitmus;
    O.Job.Static = false;
    O.Job.Reduce = false;
    O.Job.Threads = 1;
    Out.push_back(
        tableDigest(renderTable(Oracle.replay(O, static_cast<unsigned>(I)))));
  }
  return Out;
}

} // namespace

std::vector<uint64_t>
perfbench::referenceDigests(const std::vector<BenchJob> &Jobs,
                            const std::string &GoldenPath, bool &FromGolden) {
  FromGolden = false;
  std::ifstream In(GoldenPath);
  if (!GoldenPath.empty() && In) {
    std::map<std::string, uint64_t> Golden;
    std::string Name, Hex;
    while (In >> Name >> Hex)
      Golden[Name] = std::stoull(Hex, nullptr, 16);
    std::vector<uint64_t> Out;
    for (const BenchJob &J : Jobs) {
      auto It = Golden.find(J.Job.Name);
      if (It == Golden.end())
        break;
      Out.push_back(It->second);
    }
    if (Out.size() == Jobs.size()) {
      FromGolden = true;
      return Out;
    }
    std::fprintf(stderr, "golden file %s does not cover the job list; "
                         "running the oracle pass\n",
                 GoldenPath.c_str());
  }
  return oracleDigests(Jobs);
}

bool perfbench::writeGolden(const std::vector<BenchJob> &Jobs,
                            const std::string &Path) {
  std::vector<uint64_t> D = oracleDigests(Jobs);
  std::ofstream Out(Path);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%016llx",
                  static_cast<unsigned long long>(D[I]));
    Out << Jobs[I].Job.Name << "\t" << Buf << "\n";
  }
  return static_cast<bool>(Out);
}

SweepAnswer perfbench::answer(const SweepQuestion &Q) {
  SearchConfig C;
  C.MinEvents = 2;
  C.MaxEvents = Q.MaxEvents;
  C.NumLocs = 2;
  C.Js = Q.Revised ? ModelSpec::revised() : ModelSpec::original();
  C.Threads = Q.Threads;
  SweepAnswer A;
  std::optional<SkeletonCex> Cex;
  SearchStats S;
  switch (Q.K) {
  case SweepQuestion::Kind::ArmCompilation:
    // The paper's search: Init-synchronising candidates are outside what
    // syntactic deadness can certify, so the minimal counter-example is
    // the 6-event Fig. 6 shape.
    C.ExcludeInitSynchronization = true;
    Cex = searchArmCompilationCex(C, &S);
    break;
  case SweepQuestion::Kind::ScDrf:
    Cex = searchScDrfCex(C, &S);
    break;
  case SweepQuestion::Kind::BoundedCompilation: {
    BoundedCompilationReport R = boundedCompilationCheck(C);
    A.FoundCex = !R.holds();
    A.CexEvents = R.FirstFailure ? R.FirstFailure->NumEvents : 0;
    A.Skeletons = R.Skeletons;
    A.RbfCandidates = R.RbfCandidates;
    A.ArmChecks = R.ArmConsistentExecutions;
    return A;
  }
  }
  A.FoundCex = Cex.has_value();
  A.CexEvents = Cex ? Cex->NumEvents : 0;
  A.Skeletons = S.Skeletons;
  A.RbfCandidates = S.RbfCandidates;
  A.ArmChecks = S.ArmConsistencyChecks;
  return A;
}

bool perfbench::answerMatchesPaper(const SweepQuestion &Q,
                                   const SweepAnswer &A) {
  if (A.FoundCex != (Q.CexEvents != 0))
    return false;
  // The bounded check reports a failure, not a minimal size.
  return !A.FoundCex || Q.K == SweepQuestion::Kind::BoundedCompilation ||
         A.CexEvents == Q.CexEvents;
}
