//===- core/CandidateExecution.h - JS candidate executions ----------------===//
///
/// \file
/// Candidate executions, transcribed from Fig. 3 of Watt et al. (PLDI 2020).
/// A candidate execution packages the events generated by the thread-local
/// semantics with the relations that justify the (arbitrarily chosen) read
/// values:
///
///   - sequenced-before (sb): intra-thread control-flow order;
///   - additional-synchronizes-with (asw): strong inter-thread ordering
///     implied by the thread-local semantics (thread spawn/join,
///     Atomics.wait/notify critical sections);
///   - reads-byte-from (rbf): a byte-indexed justification relating every
///     byte of every read to a write of that byte;
///   - total-order (tot): a strict total order over all events.
///
/// The derived relations reads-from (rf), synchronizes-with (sw) and
/// happens-before (hb) are computed on demand, in both the specification
/// form (sw with the Init special case) and the simplified form proposed by
/// the paper (§3.2).
///
/// The execution is generic over the relation flavour:
/// BasicCandidateExecution<Relation> (the `CandidateExecution` alias) is
/// the allocation-free ≤64-event tier every fast path uses;
/// BasicCandidateExecution<DynRelation> (`DynCandidateExecution`) carries
/// programs up to DynRelation::MaxSize events through the same derivation
/// pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_CORE_CANDIDATEEXECUTION_H
#define JSMM_CORE_CANDIDATEEXECUTION_H

#include "core/Event.h"
#include "support/DynRelation.h"
#include "support/Relation.h"

#include <string>
#include <vector>

namespace jsmm {

/// One byte-indexed reads-byte-from edge: event \c Reader reads the value of
/// byte location \c Loc (an absolute offset within the events' shared block)
/// from event \c Writer.
struct RbfEdge {
  unsigned Loc = 0;
  EventId Writer = 0;
  EventId Reader = 0;

  bool operator==(const RbfEdge &O) const {
    return Loc == O.Loc && Writer == O.Writer && Reader == O.Reader;
  }
};

/// Which definition of synchronizes-with to use.
enum class SwDefKind : uint8_t {
  /// The 10th-edition definition, with the special case synchronizing a
  /// SeqCst read with an Init write when the read reads only Init bytes.
  SpecWithInitCase,
  /// The simplified definition of §3.2: same-range SeqCst write/read pairs
  /// only (the Init case is subsumed by the final SC rule).
  Simplified,
};

/// The derived relations (rf, sw, hb) of a candidate execution under one
/// synchronizes-with definition, always computed together because hb is
/// derived from sw and sw from rf.
template <typename RelT> struct BasicDerivedTriple {
  RelT Rf;
  RelT Sw;
  RelT Hb;
};

using DerivedTriple = BasicDerivedTriple<Relation>;

/// A JavaScript candidate execution (Fig. 3).
template <typename RelT> class BasicCandidateExecution {
public:
  using Rel = RelT;
  using SetT = typename RelT::SetT;

  std::vector<Event> Events;
  RelT Sb;  ///< sequenced-before
  RelT Asw; ///< additional-synchronizes-with
  std::vector<RbfEdge> Rbf;
  RelT Tot; ///< total-order witness; may be left empty (count()==0)
            ///< when deciding "exists a tot" questions

  BasicCandidateExecution() = default;

  /// Creates an execution with the given events and empty relations sized
  /// to match.
  explicit BasicCandidateExecution(std::vector<Event> Evs);

  unsigned numEvents() const {
    return static_cast<unsigned>(Events.size());
  }

  /// \returns the set of all event ids.
  SetT allEventsMask() const { return RelT::fullSet(numEvents()); }

  /// \returns the set of events satisfying \p Pred.
  template <typename PredT> SetT eventsWhere(PredT Pred) const {
    SetT Mask = RelT::emptySet(numEvents());
    for (const Event &E : Events)
      if (Pred(E))
        bits::set(Mask, E.Id);
    return Mask;
  }

  /// Derived relation rf (write on the left): projects the byte index away
  /// from reads-byte-from.
  RelT readsFrom() const;

  /// Derived relation sw under the chosen definition, including asw.
  /// \p Rf must be this execution's readsFrom().
  RelT synchronizesWith(SwDefKind Def, const RelT &Rf) const;

  /// Derived relation hb = (sb ∪ sw ∪ {<A,B> | A.ord=Init ∧ A≠B ∧
  /// overlap(A,B)})+.
  RelT happensBefore(SwDefKind Def) const;

  /// hb closed from scratch over an already-derived sw: the reference the
  /// incremental closure of derived() must equal.
  RelT happensBeforeFromSw(const RelT &Sw) const;

  /// The memoized derived relations under \p Def. The cache has two
  /// layers, each keyed by an exact comparison against the inputs it was
  /// built from (no hashing, so no collision can ever return stale
  /// relations):
  ///
  ///   - hb's static part, (sb ∪ asw ∪ Init-overlap)+, shared by both sw
  ///     definitions and re-closed only when sb or asw change — once per
  ///     skeleton in the engine's walk, where only rbf moves;
  ///   - per definition, rf, sw and hb, rebuilt when rbf changed: hb is the
  ///     static closure plus each sw edge added by the single-edge closure
  ///     update (Relation::addEdgeToClosure), which equals
  ///     happensBeforeFromSw(sw), reflexive pairs of a cycle included.
  ///
  /// The cache is per-object mutable state: concurrent calls on the same
  /// object are not safe, so the engine gives every shard its own
  /// execution.
  const BasicDerivedTriple<RelT> &derived(SwDefKind Def) const;

  /// Checks the well-formedness conditions on candidate executions: sb is a
  /// strict total order per thread over that thread's events; asw has no
  /// self-edges; rbf justifies exactly the bytes each read reads, from
  /// writes of those bytes with matching values; tot (when present) is a
  /// strict total order on all events.
  ///
  /// \param Err if non-null, receives a description of the first violation.
  bool checkWellFormed(std::string *Err = nullptr) const;

  /// \returns true if tot has been provided (non-empty universe check).
  bool hasTot() const { return Tot.size() == numEvents() && !Tot.empty(); }

  /// \returns a multi-line rendering of events and relations.
  std::string toString() const;

private:
  /// \returns sb ∪ \p Sw ∪ {<A,B> | A.ord=Init ∧ A≠B ∧ overlap(A,B)}, the
  /// relation hb closes (its static part when \p Sw is asw).
  RelT hbBase(const RelT &Sw) const;

  /// hb's sw-independent part and the sb/asw it was closed from.
  struct StaticHbCache {
    bool Valid = false;
    RelT KeySb;
    RelT KeyAsw;
    RelT Closure;
  };
  /// The rbf one SwDefKind's triple was derived from, and the triple.
  struct DerivedCacheSlot {
    bool Valid = false;
    std::vector<RbfEdge> KeyRbf;
    BasicDerivedTriple<RelT> D;
  };
  mutable StaticHbCache StaticHb;
  /// One slot per SwDefKind; a static re-closure invalidates both.
  mutable DerivedCacheSlot DerivedCache[2];
};

/// The allocation-free ≤64-event tier (single-word relations).
using CandidateExecution = BasicCandidateExecution<Relation>;
/// The dynamic tier for programs beyond 64 events.
using DynCandidateExecution = BasicCandidateExecution<DynRelation>;

} // namespace jsmm

#endif // JSMM_CORE_CANDIDATEEXECUTION_H
