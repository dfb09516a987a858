//===- solver/PropagationSolver.cpp - Constraint-propagation tot search ---===//
///
/// \file
/// Decides "∃ tot ⊇ Must avoiding every betweenness constraint" by
/// incremental constraint propagation instead of witness enumeration
/// (the PrideMM/EMME observation that consistency questions are constraint
/// problems, not enumeration problems):
///
///   - the must-order is kept transitively closed (row and column bit sets
///     per element), so entailment and cycle tests are O(1) bit probes and
///     edge insertion is an O(n) closure update;
///   - each constraint "not (Lo < Mid < Hi)" is, over total orders, the
///     disjunction (Mid < Lo) ∨ (Hi < Mid). A constraint whose disjunct is
///     already entailed is discharged; one whose disjunct has become
///     impossible (the reverse edge is entailed) unit-propagates the other
///     disjunct as a forced must-edge; one with both disjuncts impossible
///     is a conflict that fails the whole branch at once;
///   - propagation runs to fixpoint; only constraints still genuinely
///     unconstrained afterwards trigger a two-way branch, with the solver
///     state (1 KiB of bit sets on the fast tier) trailed and restored on
///     backtrack.
///
/// When every constraint is discharged the closed must-order is acyclic
/// and every one of its linear extensions avoids every constraint, so the
/// lexicographically smallest extension of that order is returned as the
/// witness. The branching order makes this witness deterministic for a
/// given problem (it may differ from the brute-force oracle's witness,
/// which is the lex-smallest satisfying extension of the *original*
/// must-order; both validate, and each solver is self-consistent).
///
/// The search is templated over the relation flavour: the ≤64-event tier
/// keeps its inline single-word bit sets and codegen, the dynamic tier
/// (DynRelation, up to DynRelation::MaxSize events) runs the identical
/// algorithm over heap-backed sets.
///
//===----------------------------------------------------------------------===//

#include "solver/ClosedOrder.h"
#include "solver/TotSolver.h"

#include <cstdint>

using namespace jsmm;

namespace {

/// The backtracking search over constraint branches. \p Act, when
/// non-null, counts branch openings and unit-propagated edges for the
/// observability layer (solver/TotSolver.h SolverQueryScope).
template <typename RelT> class Search {
public:
  Search(const BasicTotProblem<RelT> &P, SolverActivity *Act = nullptr)
      : P(P), Act(Act) {}

  bool run(RelT *TotOut) {
    WantWitness = TotOut != nullptr;
    ClosedOrder<RelT> Order;
    if (!Order.init(P.Must, P.Universe))
      return false;
    std::vector<uint32_t> Active(P.Forbidden.size());
    for (uint32_t I = 0; I < Active.size(); ++I)
      Active[I] = I;
    if (!solve(Order, std::move(Active)))
      return false;
    if (TotOut)
      *TotOut = totalOrderOver<RelT>(
          lexSmallestExtension<RelT>(Witness.toRelation(), P.Universe), P.N);
    return true;
  }

private:
  /// Propagates to fixpoint, then branches on the first surviving
  /// constraint. \p Active is owned by this frame (branches copy it).
  bool solve(ClosedOrder<RelT> Order, std::vector<uint32_t> Active) {
    // Unit propagation to fixpoint: discharge entailed constraints, force
    // the surviving disjunct of half-dead ones, fail on fully dead ones.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      size_t Keep = 0;
      for (size_t I = 0; I < Active.size(); ++I) {
        const TotConstraint &C = P.Forbidden[Active[I]];
        if (Order.entails(C.Mid, C.Lo) || Order.entails(C.Hi, C.Mid))
          continue; // discharged: a disjunct is entailed
        bool LoMidDead = Order.entails(C.Lo, C.Mid); // Mid<Lo impossible
        bool HiMidDead = Order.entails(C.Mid, C.Hi); // Hi<Mid impossible
        if (LoMidDead && HiMidDead)
          return false; // conflict: the constraint is unsatisfiable
        if (LoMidDead) {
          if (Act)
            ++Act->PropagateForcedEdges;
          if (!Order.addEdge(C.Hi, C.Mid))
            return false;
          Changed = true;
          continue; // now discharged
        }
        if (HiMidDead) {
          if (Act)
            ++Act->PropagateForcedEdges;
          if (!Order.addEdge(C.Mid, C.Lo))
            return false;
          Changed = true;
          continue;
        }
        Active[Keep++] = Active[I];
      }
      Active.resize(Keep);
    }
    if (Active.empty()) {
      if (WantWitness) // existence-only queries never read it
        Witness = Order;
      return true;
    }
    // Branch on the first genuinely unconstrained constraint: tots with
    // Mid < Lo, then (on conflict) tots with Hi < Mid. Together the two
    // branches cover every satisfying total order.
    const TotConstraint &C = P.Forbidden[Active.front()];
    if (Act)
      ++Act->PropagateBranches;
    {
      ClosedOrder<RelT> Try = Order;
      if (Try.addEdge(C.Mid, C.Lo) && solve(Try, Active))
        return true;
    }
    ClosedOrder<RelT> Try = Order;
    return Try.addEdge(C.Hi, C.Mid) && solve(std::move(Try),
                                             std::move(Active));
  }

  const BasicTotProblem<RelT> &P;
  SolverActivity *Act;
  bool WantWitness = false;
  ClosedOrder<RelT> Witness; ///< the closed order, kept only on request
};

template <typename RelT>
bool propagateExistsExtension(const BasicTotProblem<RelT> &P, RelT *TotOut) {
  SolverQueryScope Scope(SolverKind::Propagate);
  Search<RelT> S(P, Scope.activity());
  return S.run(TotOut);
}

template <typename RelT>
bool propagateExistsViolatingExtension(const BasicTotProblem<RelT> &P,
                                       RelT *TotOut) {
  SolverQueryScope Scope(SolverKind::Propagate);
  ClosedOrder<RelT> Base;
  if (!Base.init(P.Must, P.Universe))
    return false; // no well-formed tot at all
  // A single realized constraint suffices: try each in order (stable
  // choice), checking that Lo < Mid < Hi is compatible with the must-order.
  for (const TotConstraint &C : P.Forbidden) {
    ClosedOrder<RelT> Try = Base;
    if (!Try.addEdge(C.Lo, C.Mid) || !Try.addEdge(C.Mid, C.Hi))
      continue;
    if (TotOut)
      *TotOut = totalOrderOver<RelT>(
          lexSmallestExtension<RelT>(Try.toRelation(), P.Universe), P.N);
    return true;
  }
  return false;
}

} // namespace

bool PropagationSolver::existsExtension(const TotProblem &P,
                                        Relation *TotOut) const {
  return propagateExistsExtension(P, TotOut);
}

bool PropagationSolver::existsExtension(const DynTotProblem &P,
                                        DynRelation *TotOut) const {
  return propagateExistsExtension(P, TotOut);
}

bool PropagationSolver::existsViolatingExtension(const TotProblem &P,
                                                 Relation *TotOut) const {
  return propagateExistsViolatingExtension(P, TotOut);
}

bool PropagationSolver::existsViolatingExtension(const DynTotProblem &P,
                                                 DynRelation *TotOut) const {
  return propagateExistsViolatingExtension(P, TotOut);
}
