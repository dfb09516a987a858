//===- engine/ExecutionEngine.cpp -----------------------------------------===//

#include "engine/ExecutionEngine.h"

#include "analysis/ScEnumeration.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/StaticValues.h"
#include "core/DataRace.h"
#include "core/SeqConsistency.h"
#include "engine/Symmetry.h"
#include "litmus/PathEnum.h"
#include "obs/Obs.h"
#include "solver/TotSolver.h"
#include "support/CapacityError.h"
#include "support/Str.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>

using namespace jsmm;

unsigned jsmm::resolveThreads(unsigned Requested) {
  if (Requested)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

unsigned ExecutionEngine::effectiveThreads() const {
  return resolveThreads(Cfg.Threads);
}

void jsmm::runSharded(size_t NumItems, unsigned Threads,
                      const std::function<void(size_t)> &Body) {
  if (Threads <= 1 || NumItems <= 1) {
    for (size_t I = 0; I < NumItems; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
  // The sink's fields are atomic, so the workers may share it.
  SolverActivitySink *ParentSink = currentSolverActivitySink();
  auto Worker = [&, ParentSink] {
    setCurrentSolverActivitySink(ParentSink);
    for (size_t I = Next.fetch_add(1); I < NumItems; I = Next.fetch_add(1))
      Body(I);
  };
  std::vector<std::thread> Pool;
  unsigned N = static_cast<unsigned>(std::min<size_t>(Threads, NumItems));
  Pool.reserve(N);
  for (unsigned T = 0; T < N; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
}

bool OutcomeSummary::allows(const Outcome &O) const {
  return std::binary_search(Allowed.begin(), Allowed.end(), O);
}

std::vector<std::string> OutcomeSummary::outcomeStrings() const {
  std::vector<std::string> Out;
  Out.reserve(Allowed.size());
  for (const Outcome &O : Allowed)
    Out.push_back(O.toString());
  return Out;
}

//===----------------------------------------------------------------------===//
// Capacity checks
//===----------------------------------------------------------------------===//

namespace {

/// Emits the trace event \p Ev with members \p Fields on \p T. Callers
/// check obs::trace() first, so nothing is built while tracing is off.
void traceEvent(obs::TraceSink &T, const char *Ev,
                std::initializer_list<std::pair<const char *, JsonValue>>
                    Fields) {
  JsonValue F = JsonValue::object();
  for (const auto &[Key, Value] : Fields)
    F.set(Key, Value);
  T.event(Ev, std::move(F));
}

JsonValue num(uint64_t N) { return JsonValue(static_cast<double>(N)); }

std::optional<std::string> capacityErrorFor(unsigned Bound, unsigned Cap) {
  if (Bound <= Cap)
    return std::nullopt;
  return "program too large (" + std::to_string(Bound) + " events > " +
         std::to_string(Cap) + ")";
}

unsigned targetEventBound(const CompiledTarget &CT) {
  unsigned Bound = CT.NumLocs;
  for (const std::vector<TargetInstr> &Body : CT.Threads)
    Bound += static_cast<unsigned>(Body.size());
  return Bound;
}

/// Throws the capacity diagnostic for the dynamic serving cap. Entry
/// points call this before touching the candidate space so a too-large
/// program fails with the program-level message rather than the
/// relation-level one.
template <typename ProgramT> void checkCapacity(const ProgramT &P) {
  if (std::optional<std::string> Error = ExecutionEngine::capacityError(P)) {
    if (obs::TraceSink *T = obs::trace())
      traceEvent(*T, "capacity-reject", {{"error", *Error}});
    if (obs::metricsEnabled())
      obs::registry().counter("engine.capacity_rejects").add(1);
    throw CapacityError(*Error);
  }
}

/// The witness-carrying entry points return Relation-typed executions, so
/// they serve the fixed tier only; this throws the 64-event diagnostic.
template <typename ProgramT> void checkFixedCapacity(const ProgramT &P) {
  if (std::optional<std::string> Error =
          ExecutionEngine::fixedCapacityError(P))
    throw CapacityError(*Error);
}

} // namespace

std::optional<std::string> ExecutionEngine::capacityError(const Program &P) {
  return capacityErrorFor(programEventUpperBound(P), DynRelation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::capacityError(const ArmProgram &P) {
  return capacityErrorFor(armProgramEventUpperBound(P), Relation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::capacityError(const CompiledTarget &CT) {
  return capacityErrorFor(targetEventBound(CT), DynRelation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::fixedCapacityError(const Program &P) {
  return capacityErrorFor(programEventUpperBound(P), Relation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::fixedCapacityError(const CompiledTarget &CT) {
  return capacityErrorFor(targetEventBound(CT), Relation::MaxSize);
}

namespace {

//===----------------------------------------------------------------------===//
// The candidate space, shared by every event language
//===----------------------------------------------------------------------===//

/// The per-thread control-flow paths of a program, with mixed-radix
/// indexing of their combinations (last thread fastest, matching the
/// seed's recursion order). Straight-line target programs have one path
/// per thread — its body — and so exactly one combination.
template <typename PathT> struct PathSpace {
  std::vector<std::vector<PathT>> PerThread;
  size_t Combos = 1;

  explicit PathSpace(std::vector<std::vector<PathT>> Paths)
      : PerThread(std::move(Paths)) {
    for (const std::vector<PathT> &Ps : PerThread)
      Combos *= Ps.size();
  }

  /// Decomposes \p Idx into per-thread path indices.
  std::vector<size_t> indices(size_t Idx) const {
    std::vector<size_t> C(PerThread.size());
    for (size_t T = PerThread.size(); T-- > 0;) {
      C[T] = Idx % PerThread[T].size();
      Idx /= PerThread[T].size();
    }
    return C;
  }

  std::vector<const PathT *> chosen(const std::vector<size_t> &Idx) const {
    std::vector<const PathT *> C(PerThread.size());
    for (size_t T = 0; T < PerThread.size(); ++T)
      C[T] = &PerThread[T][Idx[T]];
    return C;
  }
};

/// The materialised skeleton of one path combination: events and the
/// thread-local relations, reads not yet justified.
template <typename ExecT, typename PathT> struct Skeleton {
  ExecT X;
  std::map<EventId, unsigned> RegOfEvent; ///< read event -> dst register
  std::vector<const PathT *> Paths;        ///< chosen path per thread
  std::vector<EventId> Reads;              ///< read events, in event order
};

/// Finishes a skeleton whose events were laid out thread by thread in
/// program order: orders each thread's events in \p Order (sb / po) and
/// lists the reads.
template <typename BaseT, typename RelT>
void finishSkeleton(BaseT &B, RelT &Order) {
  const auto &Events = B.X.Events;
  for (size_t I = 0; I < Events.size(); ++I) {
    if (Events[I].isRead())
      B.Reads.push_back(Events[I].Id);
    for (size_t J = I + 1; Events[I].Thread >= 0 && J < Events.size() &&
                           Events[J].Thread == Events[I].Thread;
         ++J)
      Order.set(Events[I].Id, Events[J].Id);
  }
}

/// [read idx][byte offset][eligible-writer position] -> flag. The writer
/// positions index the order the walker explores writers in (work items
/// index into the same list). Targets use a width-1 byte axis.
using ByteMask = std::vector<std::vector<std::vector<uint8_t>>>;

/// What a language's read-completion check decided.
enum class ReadVerdict {
  Live,    ///< justify the next read
  Refuted, ///< the path's register constraints reject the value read
  Pruned,  ///< the model's monotone admission check cut the subtree
};

/// Per-base state for the walker, computed once per path combination on
/// the building thread and shared read-only by the base's work items.
template <typename L> struct Prepared {
  typename L::Base B;
  ByteMask Allow;   ///< static may-rf writer mask; empty: no static pruning
  ByteMask Explore; ///< rf sleep-set key mask; empty: no key sleeping
  /// Twin links for the exact symmetry classes: TwinPrev[Id] is the event
  /// at the same body position in the previous class member that chose the
  /// same control-flow path, or -1. Exact twins have byte-identical
  /// attributes, so swapping their two threads wholesale is an
  /// automorphism of the base. Empty: no twin sleeping.
  std::vector<int> TwinPrev;
  std::vector<int> TwinThreadOf; ///< per event: thread of that twin or -1
};

//===----------------------------------------------------------------------===//
// Event-language traits
//===----------------------------------------------------------------------===//
//
// Each event language is a stateless traits struct the walker and driver
// are instantiated on (static dispatch, no virtual calls in the per-byte
// loop). It supplies:
//   Prog, Model, Exec, Path, Base, Result, Valid  the types involved;
//   paths(P) / build(P, Chosen)  the per-thread paths and the skeleton of
//                                one combination;
//   readBegin / readEnd / eligible / bind / unbind / value
//                                the per-byte justification step;
//   readDone(B, ReadIdx, Prune)  the check when a read completes: register
//                                constraints and the language's own
//                                admission-prune placement;
//   complete(B, Emit)            the completion of a justified candidate
//                                (coherence orders where the language has
//                                them), calling Emit per candidate;
//   allows(M, X)                 the verdict on a complete candidate, as an
//                                existence question: no witness is built;
//   witness(M, X)                the same verdict with its witness (on
//                                JavaScript a tot, on every language a copy
//                                of the candidate), for the witness doors;
//   pathFeasible / staticAllow / sleepKeys
//                                the static tier and rf sleep-set hooks.

/// The JavaScript event language, on either relation tier.
template <typename RelT> struct JsLang {
  using Prog = Program;
  using Model = JsModel;
  using Exec = BasicCandidateExecution<RelT>;
  using Path = ThreadPath;
  using Base = Skeleton<Exec, Path>;
  using Result = BasicEnumerationResult<RelT>;
  static constexpr uint64_t Result::*Valid = &Result::ValidCandidates;

  static std::vector<std::vector<Path>> paths(const Program &P) {
    std::vector<std::vector<Path>> Out(P.numThreads());
    for (unsigned T = 0; T < Out.size(); ++T)
      Out[T] = enumeratePaths(P.threadBody(T));
    return Out;
  }

  static Base build(const Program &P, std::vector<const Path *> Chosen) {
    Base B;
    B.Paths = std::move(Chosen);

    std::vector<Event> Events;
    // One Init event per buffer, carrying any declared initial bytes.
    for (unsigned Buf = 0; Buf < P.bufferSizes().size(); ++Buf) {
      EventId Id = static_cast<EventId>(Events.size());
      if (P.initBytes(Buf).empty())
        Events.push_back(makeInit(Id, P.bufferSizes()[Buf], Buf));
      else
        Events.push_back(makeInit(Id, P.initBytes(Buf), Buf));
    }
    // Thread events, in path order.
    for (unsigned T = 0; T < B.Paths.size(); ++T) {
      for (const Instr *I : B.Paths[T]->Accesses) {
        EventId Id = static_cast<EventId>(Events.size());
        const Acc &A = I->Access;
        Event E;
        switch (I->K) {
        case Instr::Kind::Load:
          E = makeRead(Id, static_cast<int>(T), A.Ord, A.Offset, A.Width,
                       /*Value=*/0, A.TearFree, A.Block);
          B.RegOfEvent[Id] = I->Dst;
          break;
        case Instr::Kind::Store:
          E = makeWrite(Id, static_cast<int>(T), A.Ord, A.Offset, A.Width,
                        I->Value, A.TearFree, A.Block);
          break;
        case Instr::Kind::Rmw:
          E = makeRMW(Id, static_cast<int>(T), A.Offset, A.Width,
                      /*ReadValue=*/0, I->Value, A.Block);
          B.RegOfEvent[Id] = I->Dst;
          break;
        default:
          assert(false && "conditionals never materialise as events");
        }
        Events.push_back(E);
      }
    }
    B.X = Exec(std::move(Events));
    finishSkeleton(B, B.X.Sb);
    return B;
  }

  static unsigned readBegin(const Event &R) { return R.readBegin(); }
  static unsigned readEnd(const Event &R) { return R.readEnd(); }
  static bool eligible(const Event &W, const Event &R, unsigned Loc) {
    return W.Id != R.Id && W.Block == R.Block && W.writesByte(Loc);
  }
  static void bind(Exec &X, const Event &W, Event &R, unsigned Loc) {
    X.Rbf.push_back({Loc, W.Id, R.Id});
    R.ReadBytes[Loc - R.Index] = W.writtenByteAt(Loc);
  }
  static void unbind(Exec &X, const Event &, Event &, unsigned) {
    X.Rbf.pop_back();
  }
  static uint64_t value(const Event &R) { return valueOfBytes(R.ReadBytes); }

  /// The read's value is complete; prune against the path constraints,
  /// then against the model's tot-independent axioms (monotone in the
  /// justified prefix, so the whole subtree dies with it). The last read
  /// is left to the full validity check.
  static ReadVerdict readDone(const Base &B, size_t ReadIdx,
                              const JsModel *Prune) {
    const Event &R = B.X.Events[B.Reads[ReadIdx]];
    if (!constraintsAllow(*B.Paths[R.Thread], B.RegOfEvent.at(R.Id),
                          value(R)))
      return ReadVerdict::Refuted;
    if (Prune && ReadIdx + 1 < B.Reads.size() && !Prune->admitsPartial(B.X))
      return ReadVerdict::Pruned;
    return ReadVerdict::Live;
  }

  template <typename EmitF> static bool complete(Base &, EmitF &&Emit) {
    return Emit();
  }

  static bool allows(const JsModel &M, const Exec &CE) {
    return M.allows(CE);
  }

  static std::optional<Exec> witness(const JsModel &M, const Exec &CE) {
    RelT Tot;
    if (!M.allows(CE, &Tot))
      return std::nullopt;
    Exec Witness = CE;
    Witness.Tot = Tot;
    return Witness;
  }

  /// Dropping an infeasible combination is sound: every candidate on it
  /// dies at the contradicted read's constraintsAllow check before being
  /// emitted, so its valid-outcome contribution is empty — and under
  /// reduction, orbit siblings of an infeasible canonical combination
  /// choose the same path multiset, so they are infeasible too and the
  /// orbit closure of the empty set stays empty.
  static bool pathFeasible(const analysis::StaticValues &SV, const Path &P) {
    return SV.pathFeasible(P);
  }

  /// Builds the static writer-allow mask of one base from the value
  /// analysis: a writer is masked off when it falls outside the read's
  /// may-rf candidate set, or when its written byte contradicts one of the
  /// path's MustEqual constraints on the read's register (any such
  /// justification is cut by constraintsAllow the moment the read
  /// completes, so skipping it up front loses nothing — not even a counted
  /// candidate). Event-to-access mapping replays build()'s event order:
  /// one Init per buffer, then each thread's path accesses in sequence.
  static ByteMask staticAllow(const analysis::StaticValues &SV,
                              const Base &B) {
    std::vector<int> AccOf(B.X.Events.size(), -1);
    size_t Pos = 0;
    while (Pos < B.X.Events.size() && B.X.Events[Pos].Ord == Mode::Init)
      ++Pos;
    for (unsigned T = 0; T < B.Paths.size(); ++T)
      for (const Instr *I : B.Paths[T]->Accesses)
        AccOf[Pos++] = static_cast<int>(SV.AccessOfInstr.at(I));
    assert(Pos == B.X.Events.size() && "event/access replay out of sync");

    ByteMask Allow(B.Reads.size());
    for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
      const Event &R = B.X.Events[B.Reads[RI]];
      const analysis::ReadMayRf *MR =
          SV.readMayRf(static_cast<unsigned>(AccOf[R.Id]));
      assert(MR && "read event mapped to a non-read access");

      // Per-byte required values from the path's MustEqual constraints on
      // the read's register; Impossible when the constraints conflict or a
      // required value does not fit the read's width.
      unsigned Width = R.readEnd() - R.readBegin();
      unsigned Reg = B.RegOfEvent.at(R.Id);
      std::vector<int> Req(Width, -1);
      bool Impossible = false;
      for (const RegConstraint &Ct : B.Paths[R.Thread]->Constraints) {
        if (!Ct.MustEqual || Ct.Reg != Reg)
          continue;
        if (Width < 8 && (Ct.Value >> (8 * Width)) != 0) {
          Impossible = true;
          break;
        }
        for (unsigned K = 0; K < Width; ++K) {
          int Byte = static_cast<uint8_t>(Ct.Value >> (8 * K));
          if (Req[K] >= 0 && Req[K] != Byte) {
            Impossible = true;
            break;
          }
          Req[K] = Byte;
        }
        if (Impossible)
          break;
      }

      Allow[RI].resize(Width);
      for (unsigned Loc = R.readBegin(); Loc < R.readEnd(); ++Loc) {
        unsigned K = Loc - R.readBegin();
        const analysis::MayRfByte &MB = MR->Bytes[K];
        std::vector<uint8_t> &Mask = Allow[RI][K];
        for (const Event &W : B.X.Events) {
          if (!eligible(W, R, Loc))
            continue;
          bool Ok = !Impossible;
          if (Ok) {
            if (W.Ord == Mode::Init)
              Ok = MB.Init;
            else
              Ok = std::binary_search(MB.Writers.begin(), MB.Writers.end(),
                                      static_cast<unsigned>(AccOf[W.Id]));
          }
          if (Ok && Req[K] >= 0 && W.writtenByteAt(Loc) != Req[K])
            Ok = false;
          Mask.push_back(Ok ? 1 : 0);
        }
      }
    }
    return Allow;
  }

  /// rf sleep-set keys: two writer choices for the same read byte are
  /// interchangeable when every input the model's verdict can depend on is
  /// equal. The derived hb is static — equal for every rbf choice — iff sw
  /// is forced empty, i.e. there is no SeqCst event at all (sw requires a
  /// SeqCst reader; RMWs are SeqCst by construction) and asw is empty.
  /// Under that precondition every SC rule is vacuous (each needs an sw
  /// pair or a SeqCst intervening event) and the solver's tot problem
  /// carries no constraints, so a candidate's verdict is a function of,
  /// per rbf edge: the byte value read, the static hb(R,W) bit (HBC2), the
  /// static "newer write hb-between" bit (HBC3), and the writer's
  /// contribution to the tear-free count. Writers agreeing on all four are
  /// keyed together and only the first is explored — the skipped subtrees
  /// produce byte-identical candidates, verdicts, and outcomes. \returns
  /// an empty mask when the precondition fails.
  static ByteMask sleepKeys(const Base &B, const JsModel &M) {
    if (!B.X.Asw.empty())
      return {};
    for (const Event &E : B.X.Events)
      if (E.Ord == Mode::SeqCst)
        return {};
    const ModelSpec &Spec = M.spec();
    RelT Hb = B.X.happensBefore(Spec.Sw); // rbf is empty: static hb

    ByteMask Explore(B.Reads.size());
    for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
      const Event &R = B.X.Events[B.Reads[RI]];

      // The writers the tear-free rule would count for R, over all byte
      // choices: tear-free writers of the exact range (plus Init under the
      // Strong rule). With at most one such writer the rule cannot fail,
      // so tearing does not discriminate writers for this read.
      auto TearCounts = [&](const Event &W) {
        if (!R.TearFree || !W.TearFree)
          return false;
        return sameWriteReadRange(W, R) ||
               (Spec.Tear == TearRuleKind::Strong && W.Ord == Mode::Init);
      };
      unsigned CountingWriters = 0;
      for (const Event &W : B.X.Events)
        if (W.Id != R.Id && W.Block == R.Block && TearCounts(W) &&
            W.writeBegin() < R.readEnd() && R.readBegin() < W.writeEnd())
          ++CountingWriters;
      bool TearDiscriminates = CountingWriters > 1;

      Explore[RI].resize(R.readEnd() - R.readBegin());
      for (unsigned Loc = R.readBegin(); Loc < R.readEnd(); ++Loc) {
        struct Key {
          uint8_t Val;
          bool Hbc2, Hbc3;
          unsigned TearK;
          bool operator==(const Key &O) const {
            return Val == O.Val && Hbc2 == O.Hbc2 && Hbc3 == O.Hbc3 &&
                   TearK == O.TearK;
          }
        };
        std::vector<Key> Keys;
        std::vector<uint8_t> &Mask = Explore[RI][Loc - R.readBegin()];
        for (const Event &W : B.X.Events) {
          if (!eligible(W, R, Loc))
            continue;
          Key K;
          K.Val = W.writtenByteAt(Loc);
          K.Hbc2 = Hb.get(R.Id, W.Id);
          // HBC3 mirrors checkHbConsistency3 exactly, including its
          // block-agnostic writesByte scan.
          K.Hbc3 = false;
          for (const Event &C : B.X.Events)
            if (Hb.get(W.Id, C.Id) && Hb.get(C.Id, R.Id) &&
                C.writesByte(Loc)) {
              K.Hbc3 = true;
              break;
            }
          K.TearK = (TearDiscriminates && TearCounts(W)) ? W.Id + 1 : 0;
          bool Fresh = std::find(Keys.begin(), Keys.end(), K) == Keys.end();
          Keys.push_back(K);
          Mask.push_back(Fresh ? 1 : 0);
        }
      }
    }
    return Explore;
  }
};

/// The mixed-size ARMv8 event language: rbf justifications plus granule
/// coherence orders. It has no static tier or rf sleep keys yet, no
/// admission prune and no outcome door (so no allows hook); the driver
/// never asks for them on ARMv8 walks.
struct ArmLang {
  using Prog = ArmProgram;
  using Model = Armv8Model;
  using Exec = ArmExecution;
  using Path = ArmThreadPath;
  using Base = Skeleton<Exec, Path>;
  using Result = ArmEnumerationResult;
  static constexpr uint64_t Result::*Valid = &Result::ConsistentCandidates;

  static std::vector<std::vector<Path>> paths(const ArmProgram &P) {
    std::vector<std::vector<Path>> Out(P.numThreads());
    for (unsigned T = 0; T < Out.size(); ++T)
      Out[T] = enumerateArmPaths(P.threadBody(T));
    return Out;
  }

  /// Materialises the skeleton for one choice of paths.
  static Base build(const ArmProgram &P, std::vector<const Path *> Chosen) {
    Base S;
    S.Paths = std::move(Chosen);

    struct DepFixup {
      EventId Ev;
      int AddrReg, DataReg;
      uint64_t CtrlRegs;
      int RmwTag;
      bool IsLoad;
    };
    std::vector<ArmEvent> Events;
    for (unsigned B = 0; B < P.bufferSizes().size(); ++B)
      Events.push_back(makeArmInit(static_cast<EventId>(Events.size()),
                                   P.bufferSizes()[B], B));
    std::vector<DepFixup> Fixups;
    for (unsigned T = 0; T < S.Paths.size(); ++T) {
      for (const ArmPathElem &Elem : S.Paths[T]->Elems) {
        const ArmInstr &I = *Elem.I;
        EventId Id = static_cast<EventId>(Events.size());
        ArmEvent E;
        switch (I.K) {
        case ArmInstr::Kind::Load:
          E = makeArmRead(Id, static_cast<int>(T), I.Offset, I.Width,
                          I.Acquire, I.Exclusive, I.Block);
          S.RegOfEvent[Id] = I.Dst;
          break;
        case ArmInstr::Kind::Store:
          E = makeArmWrite(Id, static_cast<int>(T), I.Offset, I.Width,
                           I.Value, I.Release, I.Exclusive, I.Block);
          break;
        case ArmInstr::Kind::DmbFull:
        case ArmInstr::Kind::DmbLd:
        case ArmInstr::Kind::DmbSt:
        case ArmInstr::Kind::Isb:
          E = makeArmFence(Id, static_cast<int>(T),
                           I.K == ArmInstr::Kind::DmbFull ? ArmKind::DmbFull
                           : I.K == ArmInstr::Kind::DmbLd ? ArmKind::DmbLd
                           : I.K == ArmInstr::Kind::DmbSt ? ArmKind::DmbSt
                                                          : ArmKind::Isb);
          break;
        case ArmInstr::Kind::IfEq:
        case ArmInstr::Kind::IfNe:
          continue; // branches do not materialise as events
        }
        E.SourceTag = I.SourceTag;
        uint64_t CtrlRegs = Elem.CtrlRegs;
        if (I.CtrlDepOn >= 0)
          CtrlRegs |= uint64_t(1) << static_cast<unsigned>(I.CtrlDepOn);
        Fixups.push_back({Id, I.AddrDepOn, I.DataDepOn, CtrlRegs, I.RmwTag,
                          I.K == ArmInstr::Kind::Load});
        Events.push_back(E);
      }
    }

    S.X = ArmExecution(std::move(Events));
    ArmExecution &X = S.X;
    finishSkeleton(S, X.Po);

    // Wire register-carried dependencies. The provider of a register is
    // the po-latest load writing it before the consumer.
    auto ProviderOf = [&](const DepFixup &F, unsigned Reg) -> int {
      int Provider = -1;
      for (const auto &[Ev, R] : S.RegOfEvent)
        if (R == Reg && X.Events[Ev].Thread == X.Events[F.Ev].Thread &&
            X.Po.get(Ev, F.Ev))
          Provider = std::max(Provider, static_cast<int>(Ev));
      return Provider;
    };
    for (const DepFixup &F : Fixups) {
      if (F.AddrReg >= 0) {
        int Prov = ProviderOf(F, static_cast<unsigned>(F.AddrReg));
        if (Prov >= 0)
          X.AddrDep.set(static_cast<unsigned>(Prov), F.Ev);
      }
      if (F.DataReg >= 0) {
        int Prov = ProviderOf(F, static_cast<unsigned>(F.DataReg));
        if (Prov >= 0)
          X.DataDep.set(static_cast<unsigned>(Prov), F.Ev);
      }
      uint64_t Ctrl = F.CtrlRegs;
      while (Ctrl) {
        unsigned Reg = static_cast<unsigned>(__builtin_ctzll(Ctrl));
        Ctrl &= Ctrl - 1;
        int Prov = ProviderOf(F, Reg);
        if (Prov >= 0)
          X.CtrlDep.set(static_cast<unsigned>(Prov), F.Ev);
      }
    }
    // Exclusive pairs: a load and the po-next store sharing its RmwTag.
    for (const DepFixup &FL : Fixups) {
      if (!FL.IsLoad || FL.RmwTag < 0)
        continue;
      for (const DepFixup &FS : Fixups) {
        if (FS.IsLoad || FS.RmwTag != FL.RmwTag)
          continue;
        if (X.Events[FS.Ev].Thread == X.Events[FL.Ev].Thread &&
            X.Po.get(FL.Ev, FS.Ev))
          X.Rmw.set(FL.Ev, FS.Ev);
      }
    }
    return S;
  }

  static unsigned readBegin(const ArmEvent &R) { return R.begin(); }
  static unsigned readEnd(const ArmEvent &R) { return R.end(); }
  static bool eligible(const ArmEvent &W, const ArmEvent &R, unsigned Loc) {
    return W.isWrite() && W.Id != R.Id && W.Block == R.Block &&
           W.touchesByte(Loc);
  }
  static void bind(Exec &X, const ArmEvent &W, ArmEvent &R, unsigned Loc) {
    X.Rbf.push_back({Loc, W.Id, R.Id});
    R.Bytes[Loc - R.Index] = W.byteAt(Loc);
  }
  static void unbind(Exec &X, const ArmEvent &, ArmEvent &, unsigned) {
    X.Rbf.pop_back();
  }
  static uint64_t value(const ArmEvent &R) { return valueOfBytes(R.Bytes); }

  static ReadVerdict readDone(const Base &B, size_t ReadIdx, const Model *) {
    const ArmEvent &R = B.X.Events[B.Reads[ReadIdx]];
    return armConstraintsAllow(*B.Paths[R.Thread], B.RegOfEvent.at(R.Id),
                               value(R))
               ? ReadVerdict::Live
               : ReadVerdict::Refuted;
  }

  template <typename EmitF> static bool complete(Base &B, EmitF &&Emit) {
    B.X.Co = B.X.computeGranules();
    return forEachCoherenceCompletion(B.X, Emit);
  }

  static std::optional<Exec> witness(const Armv8Model &M, const Exec &X) {
    if (!M.allows(X))
      return std::nullopt;
    return X;
  }

  static bool pathFeasible(const analysis::StaticValues &, const Path &) {
    return true;
  }
  static ByteMask staticAllow(const analysis::StaticValues &, const Base &) {
    return {};
  }
  static ByteMask sleepKeys(const Base &, const Model &) { return {}; }
};

/// The Thm 6.3 target event language, on either relation tier. Target
/// programs are straight-line (the §6.3 fragment): one path per thread —
/// its compiled body — so exactly one combination; the candidate space is
/// rf justifications × per-location coherence orders. Each read is one
/// cell, so the byte axis has width 1.
template <typename RelT> struct TargetLang {
  using Prog = CompiledTarget;
  using Model = TargetModel;
  using Exec = BasicTargetExecution<RelT>;
  using Path = std::vector<TargetInstr>;
  using Base = Skeleton<Exec, Path>;
  using Result = BasicTargetEnumerationResult<RelT>;
  static constexpr uint64_t Result::*Valid = &Result::ConsistentCandidates;

  static std::vector<std::vector<Path>> paths(const CompiledTarget &CT) {
    std::vector<std::vector<Path>> Out(CT.Threads.size());
    for (size_t T = 0; T < Out.size(); ++T)
      Out[T] = {CT.Threads[T]};
    return Out;
  }

  static Base build(const CompiledTarget &CT,
                    std::vector<const Path *> Chosen) {
    Base B;
    B.Paths = std::move(Chosen);
    std::vector<TargetEvent> Events;
    for (unsigned L = 0; L < CT.NumLocs; ++L) {
      TargetEvent Init;
      Init.Id = static_cast<EventId>(Events.size());
      Init.Kind = TKind::Write; // Thread -1, value 0
      Init.Loc = L;
      Init.IsInit = true;
      Events.push_back(Init);
    }
    for (unsigned T = 0; T < B.Paths.size(); ++T) {
      for (const TargetInstr &I : *B.Paths[T]) {
        TargetEvent E;
        E.Id = static_cast<EventId>(Events.size());
        E.Thread = static_cast<int>(T);
        E.Kind = I.Kind;
        E.Loc = I.Loc;
        E.WriteVal = I.Value;
        E.Acq = I.Acq;
        E.Rel = I.Rel;
        E.Sc = I.Sc;
        E.Fence = I.Fence;
        E.SourceIdx = I.SourceIdx;
        if (E.isRead())
          B.RegOfEvent[E.Id] = I.DstReg;
        Events.push_back(E);
      }
    }
    B.X = Exec(std::move(Events), CT.NumLocs);
    finishSkeleton(B, B.X.Po);
    return B;
  }

  static unsigned readBegin(const TargetEvent &) { return 0; }
  static unsigned readEnd(const TargetEvent &) { return 1; }
  static bool eligible(const TargetEvent &W, const TargetEvent &R,
                       unsigned) {
    return W.isWrite() && W.Id != R.Id && W.Loc == R.Loc;
  }
  static void bind(Exec &X, const TargetEvent &W, TargetEvent &R, unsigned) {
    X.Rf.set(W.Id, R.Id);
    R.ReadVal = W.WriteVal;
  }
  static void unbind(Exec &X, const TargetEvent &W, TargetEvent &R,
                     unsigned) {
    X.Rf.clear(W.Id, R.Id);
  }
  static uint64_t value(const TargetEvent &R) { return R.ReadVal; }

  /// No register constraints (straight-line code); the po-loc ∪ rf
  /// admission check runs after every rf edge, the last one included,
  /// since coherence is still to be chosen.
  static ReadVerdict readDone(const Base &B, size_t,
                              const TargetModel *Prune) {
    return Prune && !Prune->admitsPartial(B.X) ? ReadVerdict::Pruned
                                               : ReadVerdict::Live;
  }

  template <typename EmitF> static bool complete(Base &B, EmitF &&Emit) {
    return chooseCo(B.X, 0, Emit);
  }

  template <typename EmitF>
  static bool chooseCo(Exec &X, unsigned Loc, EmitF &Emit) {
    if (Loc == X.CoPerLoc.size())
      return Emit();
    std::vector<EventId> Writers;
    EventId Init = ~0u;
    for (const TargetEvent &E : X.Events) {
      if (!E.isWrite() || E.Loc != Loc)
        continue;
      if (E.IsInit)
        Init = E.Id;
      else
        Writers.push_back(E.Id);
    }
    std::sort(Writers.begin(), Writers.end());
    do {
      X.CoPerLoc[Loc].clear();
      if (Init != ~0u)
        X.CoPerLoc[Loc].push_back(Init);
      for (EventId W : Writers)
        X.CoPerLoc[Loc].push_back(W);
      if (!chooseCo(X, Loc + 1, Emit))
        return false;
    } while (std::next_permutation(Writers.begin(), Writers.end()));
    X.CoPerLoc[Loc].clear();
    return true;
  }

  static bool allows(const TargetModel &M, const Exec &X) {
    return M.allows(X);
  }

  static std::optional<Exec> witness(const TargetModel &M, const Exec &X) {
    if (!allows(M, X))
      return std::nullopt;
    return X;
  }

  static bool pathFeasible(const analysis::StaticValues &, const Path &) {
    return true;
  }

  /// The event-to-access mapping replays build()'s order: one init event
  /// per location, then every thread's instructions in sequence (fences
  /// included in the numbering, mapped to -1 by the analysis). The
  /// exclusion rules are refuted by per-location coherence on every
  /// backend — targetScPerLocation on five of them, and ImmLite's
  /// COHERENCE axiom (Hb;Eco irreflexive, init first in co) independently.
  static ByteMask staticAllow(const analysis::StaticValues &SV,
                              const Base &B) {
    std::vector<int> AccOf(B.X.Events.size(), -1);
    size_t Pos = 0;
    while (Pos < B.X.Events.size() && B.X.Events[Pos].IsInit)
      ++Pos; // init events map to no access
    for (unsigned T = 0; T < B.Paths.size(); ++T)
      for (unsigned I = 0; I < B.Paths[T]->size(); ++I)
        AccOf[Pos++] = SV.AccessOfTargetInstr[T][I];
    assert(Pos == B.X.Events.size() && "event/access replay out of sync");

    ByteMask Allow(B.Reads.size());
    for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
      const TargetEvent &R = B.X.Events[B.Reads[RI]];
      const analysis::ReadMayRf *MR =
          SV.readMayRf(static_cast<unsigned>(AccOf[R.Id]));
      assert(MR && "read event mapped to a non-read access");
      const analysis::MayRfByte &MB = MR->Bytes[0];
      std::vector<uint8_t> &Mask = Allow[RI].emplace_back();
      for (const TargetEvent &W : B.X.Events) {
        if (!eligible(W, R, 0))
          continue;
        bool Ok = W.IsInit
                      ? MB.Init
                      : std::binary_search(MB.Writers.begin(),
                                           MB.Writers.end(),
                                           static_cast<unsigned>(AccOf[W.Id]));
        Mask.push_back(Ok ? 1 : 0);
      }
    }
    return Allow;
  }

  /// Only the twin rule applies at this tier: value-keyed rf merging is
  /// unsound here because fr and co verdicts depend on the rf writer's
  /// identity, not just the value read.
  static ByteMask sleepKeys(const Base &, const TargetModel &) { return {}; }
};

//===----------------------------------------------------------------------===//
// The justification walker
//===----------------------------------------------------------------------===//

/// Recursive reads-byte-from justification of one base, byte by byte:
/// optional first-writer restriction (work items), static may-rf pruning,
/// rf sleep sets, the language's read-completion check, and its
/// completion step, calling \p Visit(X, Outcome) per candidate.
template <typename L, typename VisitF> class Walker {
  using Event = std::decay_t<decltype(std::declval<typename L::Exec>()
                                          .Events.front())>;

public:
  Walker(typename L::Base &B, const Prepared<L> &Pre,
         const typename L::Model *Prune, int FirstWriterOnly,
         EngineStats &Stats, VisitF &Visit)
      : B(B), Pre(Pre), Prune(Prune), FirstWriterOnly(FirstWriterOnly),
        Stats(Stats), Visit(Visit),
        ThreadRefs(Pre.TwinPrev.empty() ? 0 : B.Paths.size(), 0) {}

  /// \returns false if the visitor stopped the walk.
  bool run() { return justifyRead(0); }

private:
  bool justifyRead(size_t ReadIdx) {
    if (ReadIdx == B.Reads.size())
      return L::complete(B, [this] { return Visit(B.X, outcome()); });
    return justifyByte(ReadIdx, L::readBegin(B.X.Events[B.Reads[ReadIdx]]));
  }

  bool justifyByte(size_t ReadIdx, unsigned Loc) {
    Event &R = B.X.Events[B.Reads[ReadIdx]];
    if (Loc == L::readEnd(R)) {
      switch (L::readDone(B, ReadIdx, Prune)) {
      case ReadVerdict::Refuted:
        return true;
      case ReadVerdict::Pruned:
        ++Stats.PrunedSubtrees;
        return true;
      case ReadVerdict::Live:
        break;
      }
      return justifyRead(ReadIdx + 1);
    }
    unsigned K = Loc - L::readBegin(R);
    unsigned WriterPos = 0;
    for (const Event &W : B.X.Events) {
      if (!L::eligible(W, R, Loc))
        continue;
      unsigned ThisPos = WriterPos++;
      if (FirstWriterOnly >= 0 && ReadIdx == 0 && K == 0 &&
          ThisPos != static_cast<unsigned>(FirstWriterOnly))
        continue;
      // Static may-rf pruning: writers outside the read's candidate set
      // only produce model-invalid or constraint-refuted candidates
      // (StaticValues' exclusion rules are implied by every backend's
      // validity axioms), so the subtree cannot contribute an outcome.
      // Checked before the sleep sets: an excluded writer's whole rf-key
      // class is excluded with it (the keys subsume the exclusion bits),
      // and the excluded same-thread or shadowed-init choices are never
      // twin-slept, so sleeping siblings never rely on a skipped
      // representative.
      if (!Pre.Allow.empty() && !Pre.Allow[ReadIdx][K][ThisPos]) {
        ++Stats.StaticRfPruned;
        continue;
      }
      if ((!Pre.Explore.empty() && !Pre.Explore[ReadIdx][K][ThisPos]) ||
          twinAsleep(W, R)) {
        ++Stats.SleptBranches;
        continue;
      }
      L::bind(B.X, W, R, Loc);
      retain(W, R, +1);
      bool Continue = justifyByte(ReadIdx, Loc + 1);
      retain(W, R, -1);
      L::unbind(B.X, W, R, Loc);
      if (!Continue)
        return false;
    }
    return true;
  }

  /// \returns true if the subtree choosing \p W for the current byte is
  /// asleep: W is the positional twin of an as-yet unreferenced exact
  /// class member's writer (same attributes, swappable threads), and the
  /// reading thread is outside the pair, so the explored sibling's
  /// subtree is isomorphic and the orbit closure recovers its outcomes.
  bool twinAsleep(const Event &W, const Event &R) const {
    if (ThreadRefs.empty() || Pre.TwinPrev[W.Id] < 0)
      return false;
    int T1 = Pre.TwinThreadOf[W.Id], T2 = W.Thread;
    if (R.Thread == T1 || R.Thread == T2)
      return false;
    return ThreadRefs[T1] == 0 && ThreadRefs[T2] == 0;
  }

  /// Adjusts the per-thread rf reference counts the twin rule reads.
  void retain(const Event &W, const Event &R, int Delta) {
    if (ThreadRefs.empty())
      return;
    for (int T : {W.Thread, R.Thread})
      if (T >= 0)
        ThreadRefs[T] += Delta;
  }

  Outcome outcome() const {
    Outcome O;
    for (const auto &[Id, Reg] : B.RegOfEvent)
      O.add(B.X.Events[Id].Thread, Reg, L::value(B.X.Events[Id]));
    return O;
  }

  typename L::Base &B;
  const Prepared<L> &Pre;
  const typename L::Model *Prune;
  int FirstWriterOnly;
  EngineStats &Stats;
  VisitF &Visit;
  std::vector<int> ThreadRefs; ///< rf references per thread (twin sleeps)
};

//===----------------------------------------------------------------------===//
// Accumulators: what an enumeration keeps per allowed outcome
//===----------------------------------------------------------------------===//
//
// The driver's enumerate() asks a Keep policy to judge a candidate whose
// outcome is not yet in its result. A policy supplies the Result type (an
// ordered Allowed container keyed by Outcome plus the two candidate
// counters), the Valid counter, and admit(M, X, O, Into), which returns
// whether \p X was allowed and, if so, records \p O in \p Into.

/// The witness doors' accumulator: one witness execution per outcome.
template <typename L> struct KeepWitness {
  using Result = typename L::Result;
  static constexpr uint64_t Result::*Valid = L::Valid;

  static bool admit(const typename L::Model &M, const typename L::Exec &X,
                    const Outcome &O, Result &Into) {
    std::optional<typename L::Exec> Witness = L::witness(M, X);
    if (!Witness)
      return false;
    Into.Allowed.emplace(O, std::move(*Witness));
    return true;
  }
};

/// The outcome doors' accumulator: the outcome alone, admitted on the
/// existence-only L::allows, so no tot is built and no candidate copied.
template <typename L> struct KeepOutcome {
  struct Result {
    std::set<Outcome> Allowed;
    uint64_t CandidatesConsidered = 0;
    uint64_t ValidCandidates = 0;
  };
  static constexpr uint64_t Result::*Valid = &Result::ValidCandidates;

  static bool admit(const typename L::Model &M, const typename L::Exec &X,
                    const Outcome &O, Result &Into) {
    if (!L::allows(M, X))
      return false;
    Into.Allowed.insert(O);
    return true;
  }
};

//===----------------------------------------------------------------------===//
// The driver: work items, sequential walks and sharded enumeration
//===----------------------------------------------------------------------===//

/// One program's candidate space under one set of knobs: \p M (the model
/// that judges complete candidates, and prunes partial ones when
/// \p Prune), \p Sym (equivalence-aware reduction when non-null: canonical
/// path combinations plus rf sleep sets; needs \p M, whose spec the
/// JavaScript sleep keys read) and \p SV (value-aware static pruning when
/// non-null).
template <typename L> class Driver {
  using Model = typename L::Model;
  using Exec = typename L::Exec;

public:
  explicit Driver(const typename L::Prog &P, const Model *M = nullptr,
                  bool Prune = false, const ThreadSymmetry *Sym = nullptr,
                  const analysis::StaticValues *SV = nullptr)
      : P(P), Space(L::paths(P)), M(M), PruneM(Prune ? M : nullptr),
        Sym(Sym), SV(SV) {
    if (SV)
      for (const std::vector<typename L::Path> &Paths : Space.PerThread) {
        Feasible.emplace_back();
        for (const typename L::Path &Path : Paths)
          Feasible.back().push_back(L::pathFeasible(*SV, Path) ? 1 : 0);
      }
  }

  /// Invokes \p Fn on each canonical, feasible path combination's prepared
  /// base, in combination order; \p Fn returns false to stop. Infeasible
  /// combinations are counted into \p Stats here, on the calling thread,
  /// so the counter is deterministic across Threads.
  template <typename FnT> bool forEachBase(EngineStats &Stats, FnT &&Fn) const {
    for (size_t C = 0; C < Space.Combos; ++C) {
      std::vector<size_t> Idx = Space.indices(C);
      if (Sym && !canonical(Idx))
        continue;
      if (SV && !feasible(Idx)) {
        ++Stats.StaticPathsPruned;
        continue;
      }
      Prepared<L> Pre;
      Pre.B = L::build(P, Space.chosen(Idx));
      if (SV)
        Pre.Allow = L::staticAllow(*SV, Pre.B);
      if (Sym) {
        Pre.Explore = L::sleepKeys(Pre.B, *M);
        setupTwins(Pre, Idx);
      }
      if (!Fn(std::move(Pre)))
        return false;
    }
    return true;
  }

  /// Sequential walk of the whole space in deterministic order; \p Visit
  /// returns false to stop. \returns false if stopped.
  template <typename VisitF> bool walk(EngineStats &Stats, VisitF &&Visit) const {
    return forEachBase(Stats, [&](Prepared<L> &&Pre) {
      return Walker<L, std::remove_reference_t<VisitF>>(Pre.B, Pre, PruneM,
                                                        -1, Stats, Visit)
          .run();
    });
  }

  /// Enumerates the outcomes the model allows on \p Threads workers,
  /// keeping per outcome what \p Keep keeps (by default one witness). A
  /// candidate is judged only when its outcome is not yet in the result:
  /// sequential runs deduplicate outcomes globally. Sharded runs split the
  /// combinations — and, within each, the first read's writer choices —
  /// into work items with item-local results, merged in item order for
  /// determinism; slept first-writer items simply produce nothing, since
  /// the sleep rules are a function of the justification stack alone.
  template <typename Keep = KeepWitness<L>>
  typename Keep::Result enumerate(unsigned Threads, EngineStats &Stats) const {
    using Result = typename Keep::Result;
    auto Accept = [this](Result &Into, const Exec &X, const Outcome &O) {
      ++Into.CandidatesConsidered;
      if (!Into.Allowed.count(O) && Keep::admit(*M, X, O, Into))
        ++(Into.*Keep::Valid);
      return true;
    };
    if (Threads <= 1) {
      Result R;
      Stats.WorkItems = Space.Combos;
      walk(Stats,
           [&](const Exec &X, const Outcome &O) { return Accept(R, X, O); });
      return R;
    }

    std::vector<Prepared<L>> Bases;
    std::vector<std::pair<size_t, int>> Items; ///< (base, first writer)
    forEachBase(Stats, [&](Prepared<L> &&Pre) {
      const typename L::Base &B = Pre.B;
      if (B.Reads.empty()) {
        Items.push_back({Bases.size(), -1});
      } else {
        const auto &R0 = B.X.Events[B.Reads[0]];
        unsigned Loc = L::readBegin(R0);
        int K = 0;
        for (const auto &W : B.X.Events)
          if (L::eligible(W, R0, Loc))
            Items.push_back({Bases.size(), K++});
      }
      Bases.push_back(std::move(Pre));
      return true;
    });
    Stats.WorkItems = Items.size();

    std::vector<Result> PerItem(Items.size());
    std::vector<EngineStats> PerItemStats(Items.size());
    runSharded(Items.size(), Threads, [&](size_t I) {
      const Prepared<L> &Pre = Bases[Items[I].first];
      typename L::Base B = Pre.B; // worker-private copy (the walk mutates it)
      auto Into = [&](const Exec &X, const Outcome &O) {
        return Accept(PerItem[I], X, O);
      };
      Walker<L, decltype(Into)>(B, Pre, PruneM, Items[I].second,
                                PerItemStats[I], Into)
          .run();
    });

    Result R;
    for (size_t I = 0; I < Items.size(); ++I) {
      R.CandidatesConsidered += PerItem[I].CandidatesConsidered;
      R.*Keep::Valid += PerItem[I].*Keep::Valid;
      Stats.PrunedSubtrees += PerItemStats[I].PrunedSubtrees;
      Stats.SleptBranches += PerItemStats[I].SleptBranches;
      Stats.StaticRfPruned += PerItemStats[I].StaticRfPruned;
      // Moves the nodes of outcomes not seen in earlier items; the
      // earliest item's entry wins.
      R.Allowed.merge(PerItem[I].Allowed);
    }
    return R;
  }

private:
  /// \returns true if the combination \p Idx is the canonical
  /// representative of its orbit under the symmetry classes: within each
  /// class, path indices must be non-decreasing by thread index. Skipped
  /// combinations are thread permutations of a canonical one; the orbit
  /// closure of the outcome set restores their outcomes.
  bool canonical(const std::vector<size_t> &Idx) const {
    for (const std::vector<unsigned> &Cls : Sym->Classes)
      for (size_t K = 1; K < Cls.size(); ++K)
        if (Idx[Cls[K - 1]] > Idx[Cls[K]])
          return false;
    return true;
  }

  bool feasible(const std::vector<size_t> &Idx) const {
    for (size_t T = 0; T < Idx.size(); ++T)
      if (!Feasible[T][Idx[T]])
        return false;
    return true;
  }

  void setupTwins(Prepared<L> &Pre, const std::vector<size_t> &Idx) const {
    if (Sym->empty())
      return;
    const auto &Events = Pre.B.X.Events;
    Pre.TwinPrev.assign(Events.size(), -1);
    Pre.TwinThreadOf.assign(Events.size(), -1);
    std::vector<std::vector<EventId>> ThreadEvents(Pre.B.Paths.size());
    for (const auto &E : Events)
      if (E.Thread >= 0)
        ThreadEvents[E.Thread].push_back(E.Id);
    for (size_t Ci = 0; Ci < Sym->Classes.size(); ++Ci) {
      if (!Sym->Exact[Ci])
        continue;
      const std::vector<unsigned> &Cls = Sym->Classes[Ci];
      for (size_t K = 1; K < Cls.size(); ++K) {
        unsigned T1 = Cls[K - 1], T2 = Cls[K];
        if (Idx[T1] != Idx[T2])
          continue; // different paths: no positional twin pairing
        assert(ThreadEvents[T1].size() == ThreadEvents[T2].size());
        for (size_t I = 0; I < ThreadEvents[T2].size(); ++I) {
          Pre.TwinPrev[ThreadEvents[T2][I]] =
              static_cast<int>(ThreadEvents[T1][I]);
          Pre.TwinThreadOf[ThreadEvents[T2][I]] = static_cast<int>(T1);
        }
      }
    }
  }

  const typename L::Prog &P;
  PathSpace<typename L::Path> Space;
  const Model *M;
  const Model *PruneM; ///< M when pruning, else null
  const ThreadSymmetry *Sym;
  const analysis::StaticValues *SV;
  std::vector<std::vector<uint8_t>> Feasible; ///< [thread][path] (SV only)
};

//===----------------------------------------------------------------------===//
// Outcome-level doors: tracing, the static fast path, tier selection
//===----------------------------------------------------------------------===//

/// The static DRF-SC fast path: when the precomputed classification
/// certifies DRF, answer with the SC interleaving table under Tier
/// "static". \returns std::nullopt for programs the certificate does not
/// cover (the caller runs the full enumeration, with the same analysis
/// pruning it).
template <typename ProgT>
std::optional<OutcomeSummary>
tryStaticFastPath(const ProgT &P, const analysis::StaticClassification &C,
                  const char *Entry, unsigned Events, SolverKind Kind) {
  if (!C.StaticallyDrf)
    return std::nullopt;
  OutcomeSummary S;
  uint64_t States = 0;
  S.Allowed = analysis::enumerateScOutcomes(P, &States);
  // The SC walk's scheduler states stand in for candidates: both count
  // deterministic exploration effort, and the drf-fastpath win shows up
  // as the drop against the full walk's candidate count.
  S.CandidatesConsidered = States;
  S.ValidCandidates = S.Allowed.size();
  S.Tier = "static";
  S.SolverUsed = Kind;
  // The drf-fastpath event: the static certificate served this
  // enumeration with the SC interleaving table.
  if (obs::TraceSink *T = obs::trace())
    traceEvent(*T, "drf-fastpath",
               {{"entry", Entry},
                {"events", num(Events)},
                {"states", num(States)},
                {"outcomes", num(S.Allowed.size())}});
  if (obs::metricsEnabled())
    obs::registry().counter("engine.drf_fastpath").add(1);
  return S;
}

/// Re-exports an enumeration's effort counters into the obs registry.
/// Every value is a deterministic function of the enumerated space, so
/// all of these land in the golden-comparable Deterministic class.
void recordEngineObs(const EngineStats &St, uint64_t CandidatesConsidered,
                     uint64_t ValidCandidates, const std::string &Tier) {
  if (!obs::metricsEnabled())
    return;
  obs::MetricsRegistry &R = obs::registry();
  R.counter("engine.enumerations").add(1);
  R.counter("engine.work_items").add(St.WorkItems);
  R.counter("engine.pruned_subtrees").add(St.PrunedSubtrees);
  R.counter("engine.slept_branches").add(St.SleptBranches);
  R.counter("engine.candidates_considered").add(CandidatesConsidered);
  R.counter("engine.valid_candidates").add(ValidCandidates);
  R.counter("engine.static_rf_pruned").add(St.StaticRfPruned);
  R.counter("engine.static_paths_pruned").add(St.StaticPathsPruned);
  if (!Tier.empty())
    R.counter("engine.tier." + Tier).add(1);
}

/// The outcome doors' walk on language \p L: the driver's one enumeration
/// body with the outcome-only accumulator.
template <typename L>
OutcomeSummary enumerateOutcomeSet(const typename L::Prog &P,
                                   const typename L::Model &M, bool Prune,
                                   const ThreadSymmetry *Sym,
                                   const analysis::StaticValues *SV,
                                   unsigned Threads, EngineStats &Stats) {
  typename KeepOutcome<L>::Result R =
      Driver<L>(P, &M, Prune, Sym, SV)
          .template enumerate<KeepOutcome<L>>(Threads, Stats);
  OutcomeSummary S;
  S.CandidatesConsidered = R.CandidatesConsidered;
  S.ValidCandidates = R.ValidCandidates;
  S.Allowed.reserve(R.Allowed.size());
  while (!R.Allowed.empty())
    S.Allowed.push_back(
        std::move(R.Allowed.extract(R.Allowed.begin()).value()));
  return S;
}

/// The body both enumerateOutcomes doors share: static fast path, SAT
/// rerouting (JavaScript only: target consistency needs no tot solver),
/// relation-tier selection, the walk with optional reduction and its
/// outcome orbit closure, then stats, trace and obs.
template <template <typename> class Lang, typename ProgT, typename ModelT>
OutcomeSummary enumerateOutcomesOf(const ExecutionEngine &E, const ProgT &P,
                                   const ModelT &M, const char *Entry,
                                   unsigned Events, SolverKind Kind) {
  const EngineConfig &Cfg = E.config();
  std::optional<analysis::StaticValues> SV;
  if (Cfg.StaticFastPath) {
    // The fast path sits after the capacity gate (too-large programs keep
    // their typed rejection) and before solver/tier selection (no solver
    // runs on a statically-DRF program). When the DRF certificate does
    // not hold, the same analysis prunes the full walk below.
    SV.emplace(analysis::analyzeValues(P));
    if (std::optional<OutcomeSummary> S =
            tryStaticFastPath(P, SV->C, Entry, Events, Kind)) {
      E.Stats = EngineStats();
      recordEngineObs(E.Stats, S->CandidatesConsidered, S->ValidCandidates,
                      S->Tier);
      return *S;
    }
  }
  if constexpr (std::is_same_v<ModelT, JsModel>) {
    // Tier selection for the tot decider: past Cfg.SatThreshold events the
    // order-search solvers give way to the SAT/CDCL tier. Only the solver
    // changes — the spec, and therefore the verdict table, is the model's.
    if (Events > Cfg.SatThreshold && Kind != SolverKind::Sat) {
      if (obs::TraceSink *T = obs::trace())
        traceEvent(*T, "solver-dispatch",
                   {{"entry", Entry},
                    {"events", num(Events)},
                    {"from", solverKindName(Kind)},
                    {"to", solverKindName(SolverKind::Sat)}});
      if (obs::metricsEnabled())
        obs::registry().counter("engine.sat_reroutes").add(1);
      return E.enumerateOutcomes(P, JsModel(M.spec(), SolverConfig::sat()));
    }
  }
  bool SmallTier = Events <= Relation::MaxSize && !Cfg.ForceDynRelation;
  const char *Tier = SmallTier ? "inline" : "dyn";
  if (obs::TraceSink *T = obs::trace())
    traceEvent(*T, "tier-select",
               {{"entry", Entry},
                {"events", num(Events)},
                {"tier", Tier},
                {"solver", solverKindName(Kind)}});
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  // Equivalence-aware enumeration: canonical path combinations and rf
  // sleep sets inside the walker, then the outcome orbit closure restores
  // the outcomes of the slept (isomorphic) subtrees.
  std::optional<ThreadSymmetry> Sym;
  if (Cfg.Reduction)
    Sym.emplace(threadSymmetry(P));
  const ThreadSymmetry *SymP = Sym ? &*Sym : nullptr;
  const analysis::StaticValues *SVP = SV ? &*SV : nullptr;
  unsigned Threads = E.effectiveThreads();
  EngineStats Local;
  OutcomeSummary S =
      SmallTier ? enumerateOutcomeSet<Lang<Relation>>(P, M, Cfg.Prune, SymP,
                                                      SVP, Threads, Local)
                : enumerateOutcomeSet<Lang<DynRelation>>(P, M, Cfg.Prune, SymP,
                                                         SVP, Threads, Local);
  if (Sym && !Sym->empty())
    S.Allowed = closeOutcomes(std::move(S.Allowed), *Sym);
  E.Stats = Local;
  S.Tier = Tier;
  S.SolverUsed = Kind;
  // How much the value-aware static tier cut from this full enumeration
  // (rf writer choices skipped and path combinations dropped).
  if (obs::TraceSink *T = obs::trace(); T && SV)
    traceEvent(*T, "static-prune",
               {{"entry", Entry},
                {"rf_pruned", num(Local.StaticRfPruned)},
                {"paths_pruned", num(Local.StaticPathsPruned)},
                {"may_rf_excluded", num(SV->MayRfExcluded)}});
  recordEngineObs(Local, S.CandidatesConsidered, S.ValidCandidates, S.Tier);
  return S;
}

using JsFixed = JsLang<Relation>;
using TargetFixed = TargetLang<Relation>;

} // namespace

//===----------------------------------------------------------------------===//
// JavaScript entry points
//===----------------------------------------------------------------------===//

bool ExecutionEngine::forEachCandidate(
    const Program &P,
    const std::function<bool(const CandidateExecution &, const Outcome &)>
        &Visit) const {
  checkFixedCapacity(P);
  EngineStats Unpublished;
  return Driver<JsFixed>(P).walk(Unpublished, Visit);
}

bool ExecutionEngine::forEachAdmittedCandidate(
    const Program &P, const JsModel &M,
    const std::function<bool(const CandidateExecution &, const Outcome &)>
        &Visit) const {
  checkFixedCapacity(P);
  EngineStats Local;
  bool Completed = Driver<JsFixed>(P, &M, Cfg.Prune).walk(Local, Visit);
  Stats = Local;
  return Completed;
}

EnumerationResult ExecutionEngine::enumerate(const Program &P,
                                             const JsModel &M) const {
  checkFixedCapacity(P);
  EngineStats Local;
  EnumerationResult R =
      Driver<JsFixed>(P, &M, Cfg.Prune).enumerate(effectiveThreads(), Local);
  Stats = Local;
  return R;
}

OutcomeSummary ExecutionEngine::enumerateOutcomes(const Program &P,
                                                  const JsModel &M) const {
  checkCapacity(P);
  return enumerateOutcomesOf<JsLang>(
      *this, P, M, "js", programEventUpperBound(P),
      M.solver().Kind.value_or(defaultSolverKind()));
}

ScDrfReport ExecutionEngine::scDrf(const Program &P, const JsModel &M) const {
  checkFixedCapacity(P);
  EngineStats Local;
  ScDrfReport Report;
  Driver<JsFixed>(P, &M, Cfg.Prune)
      .walk(Local, [&](const CandidateExecution &CE, const Outcome &) {
        if (!M.allows(CE))
          return true;
        if (Report.DataRaceFree && !isRaceFree(CE, M.spec())) {
          Report.DataRaceFree = false;
          Report.RaceWitness = CE;
        }
        if (Report.AllValidExecutionsSC && !isSequentiallyConsistent(CE)) {
          Report.AllValidExecutionsSC = false;
          Report.NonScWitness = CE;
        }
        // Keep scanning until both facets are resolved.
        return Report.DataRaceFree || Report.AllValidExecutionsSC;
      });
  Stats = Local;
  return Report;
}

//===----------------------------------------------------------------------===//
// ARMv8 entry points
//===----------------------------------------------------------------------===//

bool ExecutionEngine::forEachSkeleton(
    const ArmProgram &P,
    const std::function<bool(const ArmSkeleton &)> &Visit) const {
  checkCapacity(P);
  EngineStats Unpublished;
  return Driver<ArmLang>(P).forEachBase(
      Unpublished, [&](Prepared<ArmLang> &&Pre) {
        return Visit(ArmSkeleton{std::move(Pre.B.X),
                                 std::move(Pre.B.RegOfEvent),
                                 std::move(Pre.B.Paths)});
      });
}

bool ExecutionEngine::forEachArmCandidate(
    const ArmProgram &P,
    const std::function<bool(const ArmExecution &, const Outcome &)> &Visit)
    const {
  checkCapacity(P);
  EngineStats Unpublished;
  return Driver<ArmLang>(P).walk(Unpublished, Visit);
}

ArmEnumerationResult ExecutionEngine::enumerate(const ArmProgram &P,
                                                const Armv8Model &M) const {
  checkCapacity(P);
  EngineStats Local;
  ArmEnumerationResult R =
      Driver<ArmLang>(P, &M).enumerate(effectiveThreads(), Local);
  Stats = Local;
  recordEngineObs(Local, R.CandidatesConsidered, R.ConsistentCandidates,
                  "inline");
  return R;
}

//===----------------------------------------------------------------------===//
// Target-architecture entry points
//===----------------------------------------------------------------------===//

bool ExecutionEngine::forEachTargetCandidate(
    const CompiledTarget &CT,
    const std::function<bool(const TargetExecution &, const Outcome &)>
        &Visit) const {
  checkFixedCapacity(CT);
  EngineStats Unpublished;
  return Driver<TargetFixed>(CT).walk(Unpublished, Visit);
}

TargetEnumerationResult
ExecutionEngine::enumerate(const CompiledTarget &CT,
                           const TargetModel &M) const {
  checkFixedCapacity(CT);
  EngineStats Local;
  TargetEnumerationResult R = Driver<TargetFixed>(CT, &M, Cfg.Prune)
                                  .enumerate(effectiveThreads(), Local);
  Stats = Local;
  return R;
}

OutcomeSummary ExecutionEngine::enumerateOutcomes(const CompiledTarget &CT,
                                                  const TargetModel &M) const {
  checkCapacity(CT);
  return enumerateOutcomesOf<TargetLang>(*this, CT, M, "target",
                                         targetEventBound(CT),
                                         defaultSolverKind());
}

//===----------------------------------------------------------------------===//
// Skeleton-search support
//===----------------------------------------------------------------------===//

namespace {

bool twinJustify(
    CandidateExecution &Js, ArmExecution &Arm, size_t ReadIdx,
    const std::vector<EventId> &Reads,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit) {
  if (ReadIdx == Reads.size())
    return Visit(Js, Arm);
  EventId R = Reads[ReadIdx];
  unsigned Loc = Js.Events[R].Index;
  for (const Event &W : Js.Events) {
    if (W.Id == R || !W.writesByte(Loc))
      continue;
    Js.Rbf.push_back({Loc, W.Id, R});
    Arm.Rbf.push_back({Loc, W.Id, R});
    Js.Events[R].ReadBytes[0] = W.writtenByteAt(Loc);
    Arm.Events[R].Bytes[0] = W.writtenByteAt(Loc);
    bool Continue = twinJustify(Js, Arm, ReadIdx + 1, Reads, Visit);
    Js.Rbf.pop_back();
    Arm.Rbf.pop_back();
    if (!Continue)
      return false;
  }
  return true;
}

} // namespace

bool ExecutionEngine::forEachTwinJustification(
    CandidateExecution &Js, ArmExecution &Arm,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit) {
  std::vector<EventId> Reads;
  for (const Event &E : Js.Events)
    if (E.isRead())
      Reads.push_back(E.Id);
  return twinJustify(Js, Arm, 0, Reads, Visit);
}
