//===- solver/ScConstraints.h - Axioms as tot-order constraints -----------===//
///
/// \file
/// Extraction of the JavaScript model's tot-dependent axioms as a
/// TotProblem. Happens-Before Consistency (1) contributes the must-order
/// (tot ⊇ hb); each Sequentially Consistent Atomics rule contributes
/// betweenness constraints: the rule forbids a configurable class of
/// events strictly tot-between a write/read pair, and every side condition
/// of the class (ranges, modes, membership in rf/sw/hb) is
/// tot-independent, so the violation candidates can be enumerated once per
/// candidate execution and handed to any TotSolver. Generic over the
/// relation flavour of the candidate execution.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SOLVER_SCCONSTRAINTS_H
#define JSMM_SOLVER_SCCONSTRAINTS_H

#include "core/Validity.h"
#include "solver/TotSolver.h"

namespace jsmm {

/// The betweenness constraints the SC Atomics rule of \p Rule places on
/// \p CE's tot: one per potential violation triple <writer, intervening,
/// reader>. \p D must be CE's derived triple under the model's sw
/// definition.
template <typename RelT>
std::vector<TotConstraint>
scAtomicsConstraints(const BasicCandidateExecution<RelT> &CE,
                     const BasicDerivedTriple<RelT> &D, ScRuleKind Rule);

/// Builds the problem whose solutions are exactly the tots making \p CE
/// satisfy HBC1 and the SC Atomics rule: Must = hb, Forbidden = the rule's
/// constraints (\p Forbidden as scAtomicsConstraints returned them, or
/// computed here from \p Rule).
template <typename RelT>
BasicTotProblem<RelT> scAtomicsProblem(const BasicCandidateExecution<RelT> &CE,
                                       const BasicDerivedTriple<RelT> &D,
                                       std::vector<TotConstraint> Forbidden);
template <typename RelT>
BasicTotProblem<RelT> scAtomicsProblem(const BasicCandidateExecution<RelT> &CE,
                                       const BasicDerivedTriple<RelT> &D,
                                       ScRuleKind Rule);

/// Adds the syntactic-deadness forcing edges of Wickerson-style deadness
/// (§5.2) to \p P.Must: for every ordered event pair <A,B> matching a
/// critical pattern (W_SC -> W, or W -> R_SC) that hb does not force, tot
/// must order B before A — so every solution's critical edges are
/// hb-forced.
void addSyntacticDeadnessEdges(const CandidateExecution &CE,
                               const Relation &Hb, TotProblem &P);

} // namespace jsmm

#endif // JSMM_SOLVER_SCCONSTRAINTS_H
