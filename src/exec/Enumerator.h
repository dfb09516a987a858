//===- exec/Enumerator.h - JS execution enumeration -----------------------===//
///
/// \file
/// The JavaScript-side exhaustive execution enumerator: the C++ stand-in
/// for the paper's Alloy checking of the JavaScript model (§5) and its
/// Coq-level bounded validation (§6). Given a litmus program, it builds
/// every well-formed candidate execution (control-flow paths ×
/// reads-byte-from justifications) and asks, for each, whether some
/// total-order witness makes it valid under a ModelSpec.
///
/// These entry points are thin adapters over the unified execution engine
/// (engine/ExecutionEngine.h); construct an ExecutionEngine directly to
/// control threading and pruning.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_EXEC_ENUMERATOR_H
#define JSMM_EXEC_ENUMERATOR_H

#include "core/DataRace.h"
#include "core/Validity.h"
#include "exec/Outcome.h"
#include "litmus/Program.h"

#include <functional>
#include <map>
#include <optional>

namespace jsmm {

/// Statistics and results of enumerating a program's executions, generic
/// over the relation flavour of the witnesses.
template <typename RelT> struct BasicEnumerationResult {
  /// Allowed outcomes, each with one witnessing valid execution (with tot).
  std::map<Outcome, BasicCandidateExecution<RelT>> Allowed;
  uint64_t CandidatesConsidered = 0;
  uint64_t ValidCandidates = 0;

  bool allows(const Outcome &O) const { return Allowed.count(O) != 0; }
  /// \returns the sorted allowed outcomes as strings (for table printing).
  std::vector<std::string> outcomeStrings() const {
    std::vector<std::string> Out;
    for (const auto &[O, Witness] : Allowed) {
      (void)Witness;
      Out.push_back(O.toString());
    }
    return Out;
  }
};

using EnumerationResult = BasicEnumerationResult<Relation>;

/// Enumerates the allowed outcomes of \p P under \p Spec.
EnumerationResult enumerateOutcomes(const Program &P, ModelSpec Spec);

/// Invokes \p Visit for every well-formed candidate execution of \p P
/// (without a tot witness) together with its outcome. \p Visit returns
/// false to stop early. \returns false if stopped early.
bool forEachCandidate(
    const Program &P,
    const std::function<bool(const CandidateExecution &, const Outcome &)>
        &Visit);

/// The model-internal SC-DRF property (§3.2 / Thm 6.1) checked on one
/// program: if no valid execution of the program contains a data race, then
/// every valid execution must be sequentially consistent.
struct ScDrfReport {
  bool DataRaceFree = true;     ///< no valid execution has a race
  bool AllValidExecutionsSC = true;
  /// The property itself: DRF implies all-SC (vacuously true when racy).
  bool holds() const { return !DataRaceFree || AllValidExecutionsSC; }
  std::optional<CandidateExecution> RaceWitness;
  std::optional<CandidateExecution> NonScWitness;
};

/// Checks the SC-DRF property of \p P under \p Spec.
ScDrfReport checkScDrf(const Program &P, ModelSpec Spec);

} // namespace jsmm

#endif // JSMM_EXEC_ENUMERATOR_H
