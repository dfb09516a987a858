//===- perfbench/src/Bench.h - Repo benchmark: shared declarations --------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark drives the library only through its public
/// front doors (LitmusService::run / runOne and the search/SkeletonSearch.h
/// entry points). This header holds what the benchmark's translation units
/// share: the seeded generators (Gen.cpp), the references every verdict is
/// checked against (Reference.cpp) and the traced layer-by-layer replay
/// (Replay.cpp). See perfbench/README.md for why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_PERFBENCH_BENCH_H
#define JSMM_PERFBENCH_BENCH_H

#include "engine/ExecutionEngine.h"
#include "service/LitmusService.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Seed every reference and golden file is committed for.
constexpr uint64_t DefaultSeed = 1;

/// splitmix64: a fully specified generator, so a seed yields byte-identical
/// jobs on every platform and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// \returns a value in [0, N); N > 0.
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  /// \returns true with probability Percent / 100.
  bool chance(unsigned Percent) { return below(100) < Percent; }

private:
  uint64_t State;
};

/// One generated unit of service work plus what its reference is built
/// from. The service only ever sees Job (litmus text and a backend).
struct BenchJob {
  jsmm::LitmusJob Job;
  /// Litmus text the reference table is computed on: the job's own text,
  /// or (wide) its racy core without the private filler threads, whose
  /// stores no register observes.
  std::string RefLitmus;
  /// Index of the job this one re-spells (-1 when it is an original).
  int DupOf = -1;
  /// Ring jobs: per thread, every value its one register may read. All
  /// combinations are allowed (the closed-form reference).
  std::vector<std::vector<unsigned>> RingChoices;
};

/// Properties of a generated job list, recorded in every run's report.
struct WorkloadShares {
  unsigned Jobs = 0;
  double Duplicates = 0;    ///< re-spelled duplicates / jobs
  double UniSize = 0;       ///< in the uni-size fragment / distinct programs
  double Armv8Eligible = 0; ///< armv8 column computable / distinct programs
  double AboveSat = 0;      ///< > EngineConfig::SatThreshold events
  unsigned MinEvents = 0;
  unsigned MaxEvents = 0;
};

std::vector<BenchJob> campaignJobs(uint64_t Seed, unsigned Count);
std::vector<BenchJob> ringJobs(uint64_t Seed, unsigned Count, unsigned Threads,
                               unsigned EngineThreads);
std::vector<BenchJob> wideJobs(uint64_t Seed, unsigned Programs);
WorkloadShares sharesOf(const std::vector<BenchJob> &Jobs);

/// One §5 question: a search from 2 up to MaxEvents events, with the
/// answer the paper gives for it.
struct SweepQuestion {
  enum class Kind { ArmCompilation, ScDrf, BoundedCompilation } K;
  bool Revised = false;
  unsigned MaxEvents = 0;
  unsigned Threads = 1;
  /// Paper's answer: the size of the minimal counter-example, 0 when there
  /// is none within the bound (for BoundedCompilation: the check holds).
  unsigned CexEvents = 0;
  std::string name() const;
};
std::vector<SweepQuestion> sweepQuestions(uint64_t Seed, unsigned Threads);

// --- references (Reference.cpp) --------------------------------------------

/// One line per backend, "backend: o1 | o2 | ...", plus the differential
/// diffs; the comparison form of a verdict table.
std::string renderTable(const jsmm::LitmusJobResult &R);
/// 64-bit FNV-1a digest of a rendered table (the golden-file form).
uint64_t tableDigest(const std::string &Rendered);

/// The reference digest of every job: committed golden digests for the
/// default seed when \p GoldenPath exists, else an untimed oracle pass —
/// the replay's column logic under the oracle configuration
/// (SolverKind::Brute, EngineConfig::seedCompatible(): no pruning,
/// reduction or static tier, one thread). Ring jobs use the closed form.
/// \p FromGolden reports the source.
std::vector<uint64_t> referenceDigests(const std::vector<BenchJob> &Jobs,
                                       const std::string &GoldenPath,
                                       bool &FromGolden);
/// Writes the golden digests of \p Jobs computed by the oracle.
bool writeGolden(const std::vector<BenchJob> &Jobs, const std::string &Path);

/// What one §5 question found, with the search's effort counters.
struct SweepAnswer {
  bool FoundCex = false;
  unsigned CexEvents = 0;
  uint64_t Skeletons = 0;
  uint64_t RbfCandidates = 0;
  uint64_t ArmChecks = 0;
};
/// Runs \p Q through the search/SkeletonSearch.h entry point it names.
SweepAnswer answer(const SweepQuestion &Q);
/// \returns whether \p A is the paper's answer to \p Q.
bool answerMatchesPaper(const SweepQuestion &Q, const SweepAnswer &A);

// --- traced replay (Replay.cpp) --------------------------------------------

using Clock = std::chrono::steady_clock;

/// One recorded span: a call into one layer, or a whole job.
struct Span {
  std::string Name;    ///< layer call, e.g. "engine.js", or "job"
  int64_t StartNs = 0; ///< relative to the replay's start
  int64_t EndNs = 0;
  int Parent = -1;     ///< index of the job span (-1 for job spans)
  unsigned JobId = 0;
  std::string Backend; ///< column the call served ("" when none)
  /// Counts recorded at the same boundary (EngineStats, OutcomeSummary,
  /// SolverActivity, SearchStats).
  std::map<std::string, double> Counts;
  double seconds() const { return (EndNs - StartNs) * 1e-9; }
};

/// Replays jobs through the layer calls the service makes for them,
/// recording one span per call. Keeps its own verdict cache keyed like the
/// service's, so re-spelled duplicates cost what they cost there.
class Replayer {
public:
  /// \p Engine, when set, replaces the EngineConfig the service would
  /// build for each job, and \p Solver is handed to every JavaScript model
  /// (the oracle pass sets both).
  explicit Replayer(Clock::time_point Origin,
                    std::optional<jsmm::EngineConfig> Engine = std::nullopt,
                    jsmm::SolverConfig Solver = jsmm::SolverConfig())
      : Origin(Origin), Engine(Engine), Solver(Solver) {}
  /// \returns the replayed result (status and tables) for the equality
  /// check against the service's.
  jsmm::LitmusJobResult replay(const BenchJob &J, unsigned JobId);
  /// Replays one sweep question as one search span with SearchStats.
  SweepAnswer replay(const SweepQuestion &Q, unsigned Id);

  std::vector<Span> Spans;

private:
  Clock::time_point Origin;
  std::optional<jsmm::EngineConfig> Engine;
  jsmm::SolverConfig Solver;
  std::map<std::string, jsmm::LitmusJobResult> Cache;
};

} // namespace perfbench

#endif // JSMM_PERFBENCH_BENCH_H
