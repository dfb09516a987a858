//===- tests/candidate_test.cpp - Candidate executions and derived rels ---===//

#include "core/CandidateExecution.h"
#include "engine/ExecutionEngine.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

TEST(Candidate, Fig2IsWellFormed) {
  CandidateExecution CE = fig2Execution();
  std::string Err;
  EXPECT_TRUE(CE.checkWellFormed(&Err)) << Err;
}

TEST(Candidate, Fig2ReadsFrom) {
  CandidateExecution CE = fig2Execution();
  Relation Rf = CE.readsFrom();
  EXPECT_TRUE(Rf.get(2, 3)); // flag write -> flag read
  EXPECT_TRUE(Rf.get(1, 4)); // message write -> message read
  EXPECT_EQ(Rf.count(), 2u);
}

TEST(Candidate, Fig2SynchronizesWith) {
  CandidateExecution CE = fig2Execution();
  Relation Rf = CE.readsFrom();
  for (SwDefKind Def : {SwDefKind::SpecWithInitCase, SwDefKind::Simplified}) {
    Relation Sw = CE.synchronizesWith(Def, Rf);
    EXPECT_TRUE(Sw.get(2, 3)) << "same-range SC pair must synchronize";
    EXPECT_FALSE(Sw.get(1, 4)) << "unordered pair must not synchronize";
  }
}

TEST(Candidate, Fig2HappensBeforeOrdersMessage) {
  CandidateExecution CE = fig2Execution();
  Relation Hb = CE.happensBefore(SwDefKind::Simplified);
  // sb ∪ sw chain: message write hb flag write hb(sw) flag read hb message
  // read.
  EXPECT_TRUE(Hb.get(1, 2));
  EXPECT_TRUE(Hb.get(2, 3));
  EXPECT_TRUE(Hb.get(1, 4));
  // Init is hb-before every overlapping access.
  for (EventId E = 1; E <= 4; ++E)
    EXPECT_TRUE(Hb.get(0, E));
  // No hb back-edges.
  EXPECT_FALSE(Hb.get(4, 1));
  EXPECT_FALSE(Hb.get(3, 2));
}

TEST(Candidate, InitDoesNotHappenBeforeItself) {
  CandidateExecution CE = fig2Execution();
  Relation Hb = CE.happensBefore(SwDefKind::Simplified);
  EXPECT_FALSE(Hb.get(0, 0));
}

TEST(Candidate, SpecSwIncludesInitSpecialCase) {
  // An SC read justified entirely by Init synchronizes with it under the
  // spec definition but not under the simplified one.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeRead(1, 0, Mode::SeqCst, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 1});
  Relation Rf = CE.readsFrom();
  Relation SwSpec = CE.synchronizesWith(SwDefKind::SpecWithInitCase, Rf);
  EXPECT_TRUE(SwSpec.get(0, 1));
  Relation SwSimp = CE.synchronizesWith(SwDefKind::Simplified, Rf);
  EXPECT_FALSE(SwSimp.get(0, 1));
}

TEST(Candidate, SpecSwInitCaseRequiresOnlyInitWriters) {
  // A read taking one byte from a non-Init write does not get the Init
  // special case.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 1, 7));
  Evs.push_back(makeRead(2, 1, Mode::SeqCst, 0, 4, 7));
  CandidateExecution CE(std::move(Evs));
  CE.Rbf.push_back({0, 1, 2});
  for (unsigned K = 1; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 2});
  Relation Rf = CE.readsFrom();
  Relation Sw = CE.synchronizesWith(SwDefKind::SpecWithInitCase, Rf);
  EXPECT_FALSE(Sw.get(0, 2));
  EXPECT_FALSE(Sw.get(1, 2));
}

TEST(Candidate, MixedSizeSwRequiresExactRangeMatch) {
  // An SC read of 2 bytes from a 4-byte SC write: rf but not sw.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 0x01010101));
  Evs.push_back(makeRead(2, 1, Mode::SeqCst, 0, 2, 0x0101));
  CandidateExecution CE(std::move(Evs));
  CE.Rbf.push_back({0, 1, 2});
  CE.Rbf.push_back({1, 1, 2});
  Relation Rf = CE.readsFrom();
  EXPECT_TRUE(Rf.get(1, 2));
  Relation Sw = CE.synchronizesWith(SwDefKind::Simplified, Rf);
  EXPECT_FALSE(Sw.get(1, 2));
}

TEST(Candidate, AswFeedsSynchronizesWith) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeRead(2, 1, Mode::Unordered, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 2});
  CE.Asw.set(1, 2);
  Relation Sw = CE.synchronizesWith(SwDefKind::Simplified, CE.readsFrom());
  EXPECT_TRUE(Sw.get(1, 2));
  Relation Hb = CE.happensBeforeFromSw(Sw);
  EXPECT_TRUE(Hb.get(1, 2));
}

TEST(Candidate, WellFormednessRejectsValueMismatch) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRead(1, 0, Mode::Unordered, 0, 4, /*Value=*/7));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 1}); // Init writes zeros, read claims 7
  std::string Err;
  EXPECT_FALSE(CE.checkWellFormed(&Err));
  EXPECT_NE(Err.find("value mismatch"), std::string::npos);
}

TEST(Candidate, WellFormednessRejectsMissingJustification) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRead(1, 0, Mode::Unordered, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 3; ++K) // byte 3 unjustified
    CE.Rbf.push_back({K, 0, 1});
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, WellFormednessRejectsSelfRead) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRMW(1, 0, 0, 4, 0, 1));
  CandidateExecution CE(std::move(Evs));
  // An RMW reading from its own write (the EMME-reported bug shape).
  CE.Rbf.push_back({0, 1, 1});
  CE.Rbf.push_back({1, 1, 1});
  CE.Rbf.push_back({2, 1, 1});
  CE.Rbf.push_back({3, 1, 1});
  std::string Err;
  EXPECT_FALSE(CE.checkWellFormed(&Err));
  EXPECT_NE(Err.find("itself"), std::string::npos);
}

TEST(Candidate, WellFormednessRejectsCrossThreadSb) {
  CandidateExecution CE = fig2Execution();
  CE.Sb.set(1, 3); // thread 0 -> thread 1
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, WellFormednessRejectsPartialSbPerThread) {
  CandidateExecution CE = fig2Execution();
  CE.Sb.clear(1, 2); // thread 0's two events now unordered
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, WellFormednessAcceptsTotWitness) {
  CandidateExecution CE = fig2Execution();
  CE.Tot = totalOrderFromSequence({0, 1, 2, 3, 4}, 5);
  std::string Err;
  EXPECT_TRUE(CE.checkWellFormed(&Err)) << Err;
  CE.Tot.clear(0, 4); // no longer total
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, EventsWhereMask) {
  CandidateExecution CE = fig2Execution();
  uint64_t ScEvents = CE.eventsWhere(
      [](const Event &E) { return E.Ord == Mode::SeqCst; });
  EXPECT_EQ(ScEvents, (uint64_t(1) << 2) | (uint64_t(1) << 3));
}

TEST(Candidate, RbfAcrossBlocksRejected) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4, /*Block=*/0));
  Evs.push_back(makeInit(1, 4, /*Block=*/1));
  Evs.push_back(makeRead(2, 0, Mode::Unordered, 0, 4, 0, true, /*Block=*/1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 2}); // reads block 1 from block 0's Init
  std::string Err;
  EXPECT_FALSE(CE.checkWellFormed(&Err));
  EXPECT_NE(Err.find("block"), std::string::npos);
}

TEST(Candidate, ToStringSmoke) {
  CandidateExecution CE = fig2Execution();
  std::string S = CE.toString();
  EXPECT_NE(S.find("WSC"), std::string::npos);
  EXPECT_NE(S.find("rbf"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The derived-relation cache under the engine's rbf push/pop walk
//===----------------------------------------------------------------------===//

namespace {

/// The skeleton of \p P's first candidate: events, sb and asw, no rbf.
CandidateExecution skeletonOf(const Program &P) {
  CandidateExecution Skel;
  ExecutionEngine().forEachCandidate(
      P, [&](const CandidateExecution &CE, const Outcome &) {
        Skel = CandidateExecution(CE.Events);
        Skel.Sb = CE.Sb;
        Skel.Asw = CE.Asw;
        return false;
      });
  return Skel;
}

/// \p CE on relation flavour \p RelT.
template <typename RelT>
BasicCandidateExecution<RelT> onTier(const CandidateExecution &CE) {
  BasicCandidateExecution<RelT> X(CE.Events);
  CE.Sb.forEachPair([&](unsigned A, unsigned B) { X.Sb.set(A, B); });
  CE.Asw.forEachPair([&](unsigned A, unsigned B) { X.Asw.set(A, B); });
  X.Rbf = CE.Rbf;
  return X;
}

/// Checks \p X's cached derived triples, under both sw definitions, against
/// a cold-cache copy's and against hb closed from scratch.
template <typename RelT>
void expectDerivedMatchesCold(const BasicCandidateExecution<RelT> &X,
                              const std::string &Where) {
  BasicCandidateExecution<RelT> Cold(X.Events);
  Cold.Sb = X.Sb;
  Cold.Asw = X.Asw;
  Cold.Rbf = X.Rbf;
  for (SwDefKind Def : {SwDefKind::SpecWithInitCase, SwDefKind::Simplified}) {
    const BasicDerivedTriple<RelT> &D = X.derived(Def);
    const BasicDerivedTriple<RelT> &C = Cold.derived(Def);
    RelT Oracle = X.happensBeforeFromSw(X.synchronizesWith(Def, X.readsFrom()));
    EXPECT_TRUE(D.Rf == C.Rf) << Where;
    EXPECT_TRUE(D.Sw == C.Sw) << Where;
    EXPECT_TRUE(D.Hb == C.Hb) << Where;
    EXPECT_TRUE(D.Hb == Oracle)
        << Where << ": cached hb " << D.Hb.toString() << " vs from scratch "
        << Oracle.toString();
  }
}

/// Justifies every read byte of \p X in turn by pushing and popping rbf
/// edges on the one execution, as the engine's walker does, checking the
/// cache at every prefix (the walker's partial-candidate prunes derive
/// there too). Writer values are ignored: they do not enter rf, sw or hb.
template <typename RelT>
void walkRbf(BasicCandidateExecution<RelT> &X,
             const std::vector<std::pair<EventId, unsigned>> &Slots,
             size_t Next, unsigned &Nodes, const std::string &Name) {
  ++Nodes;
  expectDerivedMatchesCold(X, Name + " after " + std::to_string(X.Rbf.size()) +
                                  " rbf edges");
  if (Next == Slots.size() || ::testing::Test::HasFailure())
    return;
  auto [R, Loc] = Slots[Next];
  for (const Event &W : X.Events) {
    if (W.Id == R || W.Block != X.Events[R].Block || !W.writesByte(Loc))
      continue;
    X.Rbf.push_back({Loc, W.Id, R});
    walkRbf(X, Slots, Next + 1, Nodes, Name);
    X.Rbf.pop_back();
  }
}

template <typename RelT>
void checkCacheUnderWalk(const CandidateExecution &Skel,
                         const std::string &Name) {
  BasicCandidateExecution<RelT> X = onTier<RelT>(Skel);
  std::vector<std::pair<EventId, unsigned>> Slots;
  for (const Event &R : X.Events)
    for (unsigned Loc = R.readBegin(); Loc < R.readEnd(); ++Loc)
      Slots.emplace_back(R.Id, Loc);
  unsigned Nodes = 0;
  walkRbf(X, Slots, 0, Nodes, Name);
  EXPECT_GT(Nodes, Slots.size()) << Name;
  // A changed asw re-closes the static part and drops both triples.
  if (X.numEvents() > 2) {
    X.Asw.set(X.numEvents() - 1, 1);
    expectDerivedMatchesCold(X, Name + " with an asw edge");
    X.Asw.clear(X.numEvents() - 1, 1);
    expectDerivedMatchesCold(X, Name + " with the asw edge removed");
  }
}

Program mpScProgram() {
  Program P(2);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u8(0), 1);
  T0.store(Acc::u8(1).sc(), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u8(1).sc());
  T1.load(Acc::u8(0));
  return P;
}

Program sbScProgram() {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0).sc(), 1);
  T0.load(Acc::u32(4).sc());
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u32(4).sc(), 1);
  T1.load(Acc::u32(0).sc());
  return P;
}

/// Load buffering with SeqCst accesses: each read taking the other
/// thread's store adds an sw edge, and the second one closes the cycle
/// load -sb-> store -sw-> load -sb-> store -sw-> load in hb.
Program lbScProgram() {
  Program P(2);
  ThreadBuilder T0 = P.thread();
  T0.load(Acc::u8(0).sc());
  T0.store(Acc::u8(1).sc(), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u8(1).sc());
  T1.store(Acc::u8(0).sc(), 1);
  return P;
}

} // namespace

TEST(Candidate, DerivedCacheMatchesColdCopyUnderRbfWalk) {
  std::vector<std::pair<std::string, Program>> Shapes = {
      {"mp-sc", mpScProgram()},
      {"fig6-shape", fig6Program()},
      {"sb-sc", sbScProgram()},
      {"lb-sc", lbScProgram()}};
  for (const auto &[Name, P] : Shapes) {
    CandidateExecution Skel = skeletonOf(P);
    ASSERT_GT(Skel.numEvents(), 0u) << Name;
    checkCacheUnderWalk<Relation>(Skel, Name);
    checkCacheUnderWalk<DynRelation>(Skel, Name + " (dynamic tier)");
  }
}

TEST(Candidate, DerivedCacheReportsSwClosedHbCycle) {
  // lb-sc with both reads taking the other thread's store: hb is cyclic,
  // and the incremental closure must mark every event on the cycle
  // reflexive, as the from-scratch closure does.
  CandidateExecution X = skeletonOf(lbScProgram());
  ASSERT_EQ(X.numEvents(), 5u); // Init, load, store, load, store
  X.Rbf.push_back({0, 4, 1});
  EXPECT_TRUE(X.derived(SwDefKind::Simplified).Hb.isIrreflexive());
  X.Rbf.push_back({1, 2, 3});
  const Relation &Hb = X.derived(SwDefKind::Simplified).Hb;
  for (EventId E = 1; E <= 4; ++E)
    EXPECT_TRUE(Hb.get(E, E)) << "event " << E << " lies on the hb cycle";
  EXPECT_FALSE(Hb.get(0, 0));
  EXPECT_TRUE(Hb == X.happensBeforeFromSw(X.derived(SwDefKind::Simplified).Sw));
}
