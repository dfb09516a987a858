//===- core/Validity.cpp --------------------------------------------------===//

#include "core/Validity.h"

#include "solver/ScConstraints.h"

using namespace jsmm;

DerivedRelations DerivedRelations::compute(const CandidateExecution &CE,
                                           SwDefKind Def) {
  DerivedRelations D;
  static_cast<DerivedTriple &>(D) = CE.derived(Def);
  return D;
}

template <typename RelT>
bool jsmm::checkHbConsistency1(const BasicCandidateExecution<RelT> &CE,
                               const BasicDerivedTriple<RelT> &D) {
  return CE.Tot.contains(D.Hb);
}

template <typename RelT>
bool jsmm::checkHbConsistency2(const BasicCandidateExecution<RelT> &CE,
                               const BasicDerivedTriple<RelT> &D) {
  bool Ok = true;
  D.Rf.forEachPair([&](unsigned W, unsigned R) {
    if (D.Hb.get(R, W))
      Ok = false;
  });
  (void)CE;
  return Ok;
}

template <typename RelT>
bool jsmm::checkHbConsistency3(const BasicCandidateExecution<RelT> &CE,
                               const BasicDerivedTriple<RelT> &D) {
  for (const RbfEdge &E : CE.Rbf) {
    // Look for a "newer" write of byte E.Loc strictly hb-between the writer
    // and the reader.
    bool Newer = !bits::forEachWhile(
        D.Hb.row(E.Writer) & D.Hb.column(E.Reader), [&](unsigned C) {
          return !CE.Events[C].writesByte(E.Loc);
        });
    if (Newer)
      return false;
  }
  return true;
}

template <typename RelT>
bool jsmm::checkTearFreeReads(const BasicCandidateExecution<RelT> &CE,
                              const BasicDerivedTriple<RelT> &D,
                              TearRuleKind Rule) {
  for (const Event &R : CE.Events) {
    if (!R.isRead() || !R.TearFree)
      continue;
    unsigned MatchingWriters = 0;
    bits::forEach(D.Rf.column(R.Id), [&](unsigned W) {
      const Event &Ew = CE.Events[W];
      if (!Ew.TearFree)
        return;
      bool Counts = sameWriteReadRange(Ew, R);
      if (Rule == TearRuleKind::Strong)
        Counts = Counts || Ew.Ord == Mode::Init;
      if (Counts)
        ++MatchingWriters;
    });
    if (MatchingWriters > 1)
      return false;
  }
  return true;
}

namespace {

/// First/second attempt rule: for every synchronizes-with pair <Ew,Er>,
/// there is no write E'w (SeqCst only, for the second attempt) with
/// rangew(E'w) = ranger(Er) strictly tot-between Ew and Er.
template <typename RelT>
bool checkScAtomicsAttempt(const BasicCandidateExecution<RelT> &CE,
                           const BasicDerivedTriple<RelT> &D, const RelT &Tot,
                           bool InterveningMustBeSeqCst) {
  bool Ok = true;
  D.Sw.forEachPair([&](unsigned W, unsigned R) {
    if (!Ok)
      return;
    const Event &Er = CE.Events[R];
    bits::forEachWhile(Tot.row(W) & Tot.column(R), [&](unsigned C) {
      const Event &Ec = CE.Events[C];
      if (InterveningMustBeSeqCst && Ec.Ord != Mode::SeqCst)
        return true;
      if (sameWriteReadRange(Ec, Er)) {
        Ok = false;
        return false;
      }
      return true;
    });
  });
  return Ok;
}

/// The final rule of Fig. 10.
template <typename RelT>
bool checkScAtomicsFinal(const BasicCandidateExecution<RelT> &CE,
                         const BasicDerivedTriple<RelT> &D, const RelT &Tot) {
  bool Ok = true;
  D.Rf.forEachPair([&](unsigned W, unsigned R) {
    if (!Ok || !D.Hb.get(W, R))
      return;
    const Event &Ew = CE.Events[W];
    const Event &Er = CE.Events[R];
    bits::forEachWhile(Tot.row(W) & Tot.column(R), [&](unsigned C) {
      const Event &Ec = CE.Events[C];
      if (Ec.Ord != Mode::SeqCst)
        return true;
      bool D1 = sameWriteReadRange(Ec, Er) && D.Sw.get(W, R);
      bool D2 = sameWriteWriteRange(Ew, Ec) && Ew.Ord == Mode::SeqCst &&
                D.Hb.get(C, R);
      bool D3 = sameWriteReadRange(Ec, Er) && D.Hb.get(W, C) &&
                Er.Ord == Mode::SeqCst;
      if (D1 || D2 || D3) {
        Ok = false;
        return false;
      }
      return true;
    });
  });
  return Ok;
}

} // namespace

template <typename RelT>
bool jsmm::checkScAtomics(const BasicCandidateExecution<RelT> &CE,
                          const BasicDerivedTriple<RelT> &D, ScRuleKind Rule,
                          const RelT &Tot) {
  switch (Rule) {
  case ScRuleKind::FirstAttempt:
    return checkScAtomicsAttempt(CE, D, Tot,
                                 /*InterveningMustBeSeqCst=*/false);
  case ScRuleKind::SecondAttempt:
    return checkScAtomicsAttempt(CE, D, Tot,
                                 /*InterveningMustBeSeqCst=*/true);
  case ScRuleKind::Final:
    return checkScAtomicsFinal(CE, D, Tot);
  }
  return false;
}

template <typename RelT>
bool jsmm::checkTotIndependentAxioms(const BasicCandidateExecution<RelT> &CE,
                                     const BasicDerivedTriple<RelT> &D,
                                     ModelSpec Spec, std::string *WhyNot) {
  auto Fail = [&](const char *Axiom) {
    if (WhyNot)
      *WhyNot = Axiom;
    return false;
  };
  if (!checkHbConsistency2(CE, D))
    return Fail("happens-before consistency (2)");
  if (!checkHbConsistency3(CE, D))
    return Fail("happens-before consistency (3)");
  if (!checkTearFreeReads(CE, D, Spec.Tear))
    return Fail("tear-free reads");
  return true;
}

template <typename RelT>
bool jsmm::isValid(const BasicCandidateExecution<RelT> &CE, ModelSpec Spec,
                   std::string *WhyNot) {
  assert(CE.Tot.size() == CE.numEvents() &&
         "isValid requires a tot witness; use isValidForSomeTot otherwise");
  const BasicDerivedTriple<RelT> &D = CE.derived(Spec.Sw);
  if (!checkTotIndependentAxioms(CE, D, Spec, WhyNot))
    return false;
  if (!checkHbConsistency1(CE, D)) {
    if (WhyNot)
      *WhyNot = "happens-before consistency (1)";
    return false;
  }
  if (!checkScAtomics(CE, D, Spec.Sc, CE.Tot)) {
    if (WhyNot)
      *WhyNot = "sequentially consistent atomics";
    return false;
  }
  return true;
}

template <typename RelT>
bool jsmm::isValidForSomeTot(const BasicCandidateExecution<RelT> &CE,
                             ModelSpec Spec,
                             std::type_identity_t<RelT> *TotOut,
                             const TotSolver &Solver) {
  const BasicDerivedTriple<RelT> &D = CE.derived(Spec.Sw);
  if (!checkTotIndependentAxioms(CE, D, Spec))
    return false;
  // HBC1 forces tot ⊇ hb; if hb is cyclic no tot exists. The derived hb
  // is transitively closed, so irreflexivity is acyclicity.
  if (!D.Hb.isIrreflexive())
    return false;
  std::vector<TotConstraint> Forbidden = scAtomicsConstraints(CE, D, Spec.Sc);
  // Without a betweenness constraint the SC Atomics rule is vacuous and
  // HBC1 only asks for tot ⊇ hb, which every linear extension of the
  // closed, irreflexive hb satisfies. Only a requested witness needs the
  // solver (its stable tie-break picks the order).
  if (Forbidden.empty() && !TotOut)
    return true;
  return Solver.existsExtension(scAtomicsProblem(CE, D, std::move(Forbidden)),
                                TotOut);
}

template <typename RelT>
bool jsmm::isValidForSomeTot(const BasicCandidateExecution<RelT> &CE,
                             ModelSpec Spec,
                             std::type_identity_t<RelT> *TotOut) {
  return isValidForSomeTot(CE, Spec, TotOut, defaultTotSolver());
}

template <typename RelT>
bool jsmm::isInvalidForAllTot(const BasicCandidateExecution<RelT> &CE,
                              ModelSpec Spec, const TotSolver &Solver) {
  return !isValidForSomeTot(CE, Spec, /*TotOut=*/nullptr, Solver);
}

template <typename RelT>
bool jsmm::isInvalidForAllTot(const BasicCandidateExecution<RelT> &CE,
                              ModelSpec Spec) {
  return isInvalidForAllTot(CE, Spec, defaultTotSolver());
}

// Explicit instantiation for both capacity tiers.
#define JSMM_INSTANTIATE_VALIDITY(RelT)                                      \
  template bool jsmm::checkHbConsistency1<RelT>(                             \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &);                                     \
  template bool jsmm::checkHbConsistency2<RelT>(                             \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &);                                     \
  template bool jsmm::checkHbConsistency3<RelT>(                             \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &);                                     \
  template bool jsmm::checkTearFreeReads<RelT>(                              \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &, TearRuleKind);                       \
  template bool jsmm::checkScAtomics<RelT>(                                  \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &, ScRuleKind, const RelT &);           \
  template bool jsmm::checkTotIndependentAxioms<RelT>(                       \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &, ModelSpec, std::string *);           \
  template bool jsmm::isValid<RelT>(const BasicCandidateExecution<RelT> &,   \
                                    ModelSpec, std::string *);               \
  template bool jsmm::isValidForSomeTot<RelT>(                               \
      const BasicCandidateExecution<RelT> &, ModelSpec, RelT *,              \
      const TotSolver &);                                                    \
  template bool jsmm::isValidForSomeTot<RelT>(                               \
      const BasicCandidateExecution<RelT> &, ModelSpec, RelT *);             \
  template bool jsmm::isInvalidForAllTot<RelT>(                              \
      const BasicCandidateExecution<RelT> &, ModelSpec, const TotSolver &);  \
  template bool jsmm::isInvalidForAllTot<RelT>(                              \
      const BasicCandidateExecution<RelT> &, ModelSpec);

JSMM_INSTANTIATE_VALIDITY(jsmm::Relation)
JSMM_INSTANTIATE_VALIDITY(jsmm::DynRelation)
#undef JSMM_INSTANTIATE_VALIDITY
