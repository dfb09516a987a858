//===- solver/ScConstraints.cpp -------------------------------------------===//

#include "solver/ScConstraints.h"

using namespace jsmm;

namespace {

/// First/second attempt rule (Fig. 4 / §3.1): for a synchronizes-with pair
/// <W,R>, no write with rangew = ranger(R) (SeqCst only for the second
/// attempt) may be strictly tot-between W and R.
template <typename RelT>
void attemptConstraints(const BasicCandidateExecution<RelT> &CE,
                        const BasicDerivedTriple<RelT> &D,
                        bool InterveningMustBeSeqCst,
                        std::vector<TotConstraint> &Forbidden) {
  D.Sw.forEachPair([&](unsigned W, unsigned R) {
    const Event &Er = CE.Events[R];
    for (const Event &Ec : CE.Events) {
      unsigned C = Ec.Id;
      if (C == W || C == R)
        continue;
      if (InterveningMustBeSeqCst && Ec.Ord != Mode::SeqCst)
        continue;
      if (sameWriteReadRange(Ec, Er))
        Forbidden.push_back({W, C, R});
    }
  });
}

/// The final rule of Fig. 10: for an rf pair <W,R> with hb(W,R), no SeqCst
/// event satisfying one of the three disjuncts may be strictly tot-between.
template <typename RelT>
void finalConstraints(const BasicCandidateExecution<RelT> &CE,
                      const BasicDerivedTriple<RelT> &D,
                      std::vector<TotConstraint> &Forbidden) {
  D.Rf.forEachPair([&](unsigned W, unsigned R) {
    if (!D.Hb.get(W, R))
      return;
    const Event &Ew = CE.Events[W];
    const Event &Er = CE.Events[R];
    for (const Event &Ec : CE.Events) {
      unsigned C = Ec.Id;
      if (C == W || C == R || Ec.Ord != Mode::SeqCst)
        continue;
      bool D1 = sameWriteReadRange(Ec, Er) && D.Sw.get(W, R);
      bool D2 = sameWriteWriteRange(Ew, Ec) && Ew.Ord == Mode::SeqCst &&
                D.Hb.get(C, R);
      bool D3 = sameWriteReadRange(Ec, Er) && D.Hb.get(W, C) &&
                Er.Ord == Mode::SeqCst;
      if (D1 || D2 || D3)
        Forbidden.push_back({W, C, R});
    }
  });
}

} // namespace

template <typename RelT>
std::vector<TotConstraint>
jsmm::scAtomicsConstraints(const BasicCandidateExecution<RelT> &CE,
                           const BasicDerivedTriple<RelT> &D,
                           ScRuleKind Rule) {
  std::vector<TotConstraint> Forbidden;
  switch (Rule) {
  case ScRuleKind::FirstAttempt:
    attemptConstraints(CE, D, /*InterveningMustBeSeqCst=*/false, Forbidden);
    break;
  case ScRuleKind::SecondAttempt:
    attemptConstraints(CE, D, /*InterveningMustBeSeqCst=*/true, Forbidden);
    break;
  case ScRuleKind::Final:
    finalConstraints(CE, D, Forbidden);
    break;
  }
  return Forbidden;
}

template <typename RelT>
BasicTotProblem<RelT>
jsmm::scAtomicsProblem(const BasicCandidateExecution<RelT> &CE,
                       const BasicDerivedTriple<RelT> &D,
                       std::vector<TotConstraint> Forbidden) {
  BasicTotProblem<RelT> P;
  P.N = CE.numEvents();
  P.Universe = CE.allEventsMask();
  P.Must = D.Hb;
  P.Forbidden = std::move(Forbidden);
  return P;
}

template <typename RelT>
BasicTotProblem<RelT>
jsmm::scAtomicsProblem(const BasicCandidateExecution<RelT> &CE,
                       const BasicDerivedTriple<RelT> &D, ScRuleKind Rule) {
  return scAtomicsProblem(CE, D, scAtomicsConstraints(CE, D, Rule));
}

#define JSMM_INSTANTIATE_SC_CONSTRAINTS(RelT)                                \
  template std::vector<jsmm::TotConstraint>                                  \
  jsmm::scAtomicsConstraints<RelT>(const BasicCandidateExecution<RelT> &,    \
                                   const BasicDerivedTriple<RelT> &,         \
                                   ScRuleKind);                              \
  template jsmm::BasicTotProblem<RelT> jsmm::scAtomicsProblem<RelT>(         \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &, std::vector<TotConstraint>);         \
  template jsmm::BasicTotProblem<RelT> jsmm::scAtomicsProblem<RelT>(         \
      const BasicCandidateExecution<RelT> &,                                 \
      const BasicDerivedTriple<RelT> &, ScRuleKind);

JSMM_INSTANTIATE_SC_CONSTRAINTS(jsmm::Relation)
JSMM_INSTANTIATE_SC_CONSTRAINTS(jsmm::DynRelation)
#undef JSMM_INSTANTIATE_SC_CONSTRAINTS

void jsmm::addSyntacticDeadnessEdges(const CandidateExecution &CE,
                                     const Relation &Hb, TotProblem &P) {
  // A tot edge <A,B> is critical when A is a SeqCst write and B a write,
  // or A a write and B a SeqCst read (search/Deadness's edge classes).
  // Deadness demands every critical tot edge be hb-forced, so a critical
  // non-hb pair must be ordered the other way in every solution.
  for (const Event &Ea : CE.Events)
    for (const Event &Eb : CE.Events) {
      unsigned A = Ea.Id, B = Eb.Id;
      if (A == B || Hb.get(A, B))
        continue;
      bool Critical =
          (Ea.isWrite() && Ea.Ord == Mode::SeqCst && Eb.isWrite()) ||
          (Ea.isWrite() && Eb.isRead() && Eb.Ord == Mode::SeqCst);
      if (Critical)
        P.Must.set(B, A);
    }
}
