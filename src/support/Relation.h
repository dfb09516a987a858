//===- support/Relation.h - Binary relations over small universes --------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary relations over fixed universes, stored as bit matrices. Candidate
/// executions in the JavaScript and target axiomatic models are small
/// (litmus-test sized), so every derived relation (sequenced-before,
/// happens-before, ordered-before, ...) is represented with this type and
/// manipulated with standard relational algebra.
///
/// The storage is generic over the row width: BasicRelation<W> keeps N×W
/// inline words per relation and supports universes up to 64·W elements,
/// with a set type (SetT) of matching width for event classes. The classic
/// `Relation` is the W = 1 alias — single-word rows, uint64_t masks — so
/// the hot enumeration paths keep exactly their pre-template codegen. For
/// programs beyond 64 events the engine switches to the heap-backed
/// DynRelation (support/DynRelation.h), which shares this interface.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_RELATION_H
#define JSMM_SUPPORT_RELATION_H

#include "support/Bits.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace jsmm {

namespace detail {
/// Fails a relation construction whose universe exceeds the type's MaxSize
/// by throwing CapacityError("relation universe too large (N elements >
/// MaxSize)"). Out-of-line so the header does not pull in <stdexcept>.
[[noreturn]] void relationUniverseTooLarge(unsigned Size, unsigned MaxSize);

std::string renderRelation(
    const std::vector<std::pair<unsigned, unsigned>> &Pairs);
} // namespace detail

/// A binary relation on {0, ..., size()-1} represented as a bit matrix.
/// Row A holds the successor set of A: bit B of row A is set iff <A,B> is in
/// the relation.
///
/// Storage is a fixed inline array of W words per row, so constructing,
/// copying and returning relations never allocates — the derived-relation
/// pipelines create tens of temporaries per candidate execution, millions
/// of times per sweep, and heap traffic dominated their cost with
/// heap-backed rows. Only the first size() rows are meaningful; every
/// operation is bounded by size().
template <unsigned W> class BasicRelation {
  static_assert(W >= 1, "at least one word per row");

public:
  static constexpr unsigned MaxSize = 64 * W;
  static constexpr unsigned WordsPerRow = W;

  /// The matching event-set type: raw uint64_t masks for the single-word
  /// relation (source compatibility + codegen), WideBits<W> otherwise.
  using SetT = std::conditional_t<W == 1, uint64_t, WideBits<W>>;
  /// Mask-array type sized for this relation flavour (the propagation
  /// solver keeps one successor/predecessor set per element).
  using SetArray = std::array<SetT, MaxSize>;

  BasicRelation() : N(0) {}

  /// Creates the empty relation over a universe of \p Size elements. The
  /// universe cap is enforced in every build mode: a Size above MaxSize
  /// throws CapacityError instead of writing past the row array (an
  /// out-of-range shift would be silent UB in release builds). Frontends
  /// validate event counts up front — see ExecutionEngine::capacityError —
  /// so a throwing construction marks a caller that skipped the check,
  /// never a user-input condition.
  explicit BasicRelation(unsigned Size) : N(Size) {
    if (Size > MaxSize)
      detail::relationUniverseTooLarge(Size, MaxSize);
    std::fill_n(Rows.begin(), size_t(N) * W, 0);
  }

  BasicRelation(const BasicRelation &Other) : N(Other.N) {
    std::copy_n(Other.Rows.begin(), size_t(N) * W, Rows.begin());
  }

  BasicRelation &operator=(const BasicRelation &Other) {
    N = Other.N;
    std::copy_n(Other.Rows.begin(), size_t(N) * W, Rows.begin());
    return *this;
  }

  unsigned size() const { return N; }

  bool get(unsigned A, unsigned B) const {
    assert(A < N && B < N && "element out of range");
    if constexpr (W == 1)
      return (Rows[A] >> B) & 1;
    else
      return (Rows[size_t(A) * W + B / 64] >> (B % 64)) & 1;
  }

  void set(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    if constexpr (W == 1)
      Rows[A] |= uint64_t(1) << B;
    else
      Rows[size_t(A) * W + B / 64] |= uint64_t(1) << (B % 64);
  }

  void clear(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    if constexpr (W == 1)
      Rows[A] &= ~(uint64_t(1) << B);
    else
      Rows[size_t(A) * W + B / 64] &= ~(uint64_t(1) << (B % 64));
  }

  /// \returns the empty set over a universe of \p Size elements.
  static SetT emptySet(unsigned Size) {
    (void)Size;
    return SetT{};
  }

  /// \returns the set of all elements {0, ..., Size-1}.
  static SetT fullSet(unsigned Size) {
    assert(Size <= MaxSize && "universe too large for this relation type");
    SetT S{};
    uint64_t *Ws = setWords(S);
    for (unsigned K = 0; K < W; ++K) {
      unsigned Lo = K * 64;
      if (Size >= Lo + 64)
        Ws[K] = ~uint64_t(0);
      else if (Size > Lo)
        Ws[K] = (uint64_t(1) << (Size - Lo)) - 1;
      else
        Ws[K] = 0;
    }
    return S;
  }

  /// \returns the successor set of \p A.
  SetT row(unsigned A) const {
    assert(A < N && "element out of range");
    if constexpr (W == 1) {
      return Rows[A];
    } else {
      SetT S{};
      std::copy_n(Rows.begin() + size_t(A) * W, W, S.Words.begin());
      return S;
    }
  }

  /// \returns the predecessor set of \p B.
  SetT column(unsigned B) const {
    assert(B < N && "element out of range");
    SetT Col{};
    for (unsigned A = 0; A < N; ++A)
      if (get(A, B))
        bits::set(Col, A);
    return Col;
  }

  bool empty() const {
    for (size_t I = 0; I < size_t(N) * W; ++I)
      if (Rows[I])
        return false;
    return true;
  }

  /// \returns the number of pairs in the relation.
  unsigned count() const {
    unsigned Count = 0;
    for (size_t I = 0; I < size_t(N) * W; ++I)
      Count += static_cast<unsigned>(__builtin_popcountll(Rows[I]));
    return Count;
  }

  BasicRelation &unionWith(const BasicRelation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0; I < size_t(N) * W; ++I)
      Rows[I] |= Other.Rows[I];
    return *this;
  }

  BasicRelation &intersectWith(const BasicRelation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0; I < size_t(N) * W; ++I)
      Rows[I] &= Other.Rows[I];
    return *this;
  }

  BasicRelation &subtract(const BasicRelation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0; I < size_t(N) * W; ++I)
      Rows[I] &= ~Other.Rows[I];
    return *this;
  }

  /// \returns the union of this relation and \p Other.
  BasicRelation unioned(const BasicRelation &Other) const {
    BasicRelation R = *this;
    R.unionWith(Other);
    return R;
  }

  /// \returns the intersection of this relation and \p Other.
  BasicRelation intersected(const BasicRelation &Other) const {
    BasicRelation R = *this;
    R.intersectWith(Other);
    return R;
  }

  /// \returns this relation minus \p Other.
  BasicRelation subtracted(const BasicRelation &Other) const {
    BasicRelation R = *this;
    R.subtract(Other);
    return R;
  }

  /// \returns the inverse relation {<B,A> | <A,B> in this}.
  BasicRelation inverse() const {
    BasicRelation Inv(N);
    forEachPair([&](unsigned A, unsigned B) { Inv.set(B, A); });
    return Inv;
  }

  /// \returns the relational composition this ; Other.
  BasicRelation compose(const BasicRelation &Other) const {
    assert(N == Other.N && "universe mismatch");
    BasicRelation Result(N);
    for (unsigned A = 0; A < N; ++A) {
      for (unsigned K = 0; K < W; ++K) {
        for (uint64_t Word = Rows[size_t(A) * W + K]; Word;) {
          unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
          Word &= Word - 1;
          for (unsigned J = 0; J < W; ++J)
            Result.Rows[size_t(A) * W + J] |= Other.Rows[size_t(B) * W + J];
        }
      }
    }
    return Result;
  }

  /// \returns the transitive closure (this)+.
  BasicRelation transitiveClosure() const {
    // Warshall's algorithm on bit rows: if <A,K> then A reaches everything
    // K reaches.
    BasicRelation Closure = *this;
    for (unsigned K = 0; K < N; ++K) {
      for (unsigned A = 0; A < N; ++A)
        if (Closure.get(A, K))
          for (unsigned J = 0; J < W; ++J)
            Closure.Rows[size_t(A) * W + J] |=
                Closure.Rows[size_t(K) * W + J];
    }
    return Closure;
  }

  /// Adds <A,B> to this transitively closed relation and keeps it closed:
  /// everything reaching A (and A) now reaches everything B reaches (and
  /// B). An edge closing a cycle is accepted, and the result gains the
  /// reflexive pairs transitiveClosure() would give the cycle's elements,
  /// so the update equals re-closing from scratch.
  void addEdgeToClosure(unsigned A, unsigned B) {
    if (get(A, B))
      return; // already implied
    SetT Before = column(A);
    bits::set(Before, A);
    SetT After = row(B);
    bits::set(After, B);
    const uint64_t *AWs = setWords(After);
    bits::forEach(Before, [&](unsigned X) {
      for (unsigned K = 0; K < W; ++K)
        Rows[size_t(X) * W + K] |= AWs[K];
    });
  }

  /// \returns the reflexive transitive closure (this)*.
  BasicRelation reflexiveTransitiveClosure() const {
    BasicRelation Closure = transitiveClosure();
    for (unsigned A = 0; A < N; ++A)
      Closure.set(A, A);
    return Closure;
  }

  /// \returns true if no element is related to itself.
  bool isIrreflexive() const {
    for (unsigned A = 0; A < N; ++A)
      if (get(A, A))
        return false;
    return true;
  }

  /// \returns true if the transitive closure is irreflexive.
  bool isAcyclic() const { return transitiveClosure().isIrreflexive(); }

  /// \returns true if this relation is a strict total order on the elements
  /// of \p Universe, i.e. irreflexive, transitive, and total on Universe,
  /// and empty outside it.
  bool isStrictTotalOrderOn(const SetT &Universe) const {
    const uint64_t *UWs = setWords(Universe);
    // Empty outside the universe.
    for (unsigned A = 0; A < N; ++A) {
      bool InUniverse = bits::test(Universe, A);
      for (unsigned K = 0; K < W; ++K) {
        uint64_t RowWord = Rows[size_t(A) * W + K];
        if (!InUniverse && RowWord)
          return false;
        if (RowWord & ~UWs[K])
          return false;
      }
    }
    if (!isIrreflexive())
      return false;
    if (!contains(compose(*this).restricted(Universe, Universe)))
      return false; // not transitive
    // Totality: every distinct pair in the universe is ordered one way.
    for (unsigned A = 0; A < N; ++A) {
      if (!bits::test(Universe, A))
        continue;
      for (unsigned B = A + 1; B < N; ++B) {
        if (!bits::test(Universe, B))
          continue;
        if (!get(A, B) && !get(B, A))
          return false;
      }
    }
    return true;
  }

  /// \returns true if every pair of \p Other is also in this relation.
  bool contains(const BasicRelation &Other) const {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0; I < size_t(N) * W; ++I)
      if (Other.Rows[I] & ~Rows[I])
        return false;
    return true;
  }

  /// \returns the full product relation SetA x SetB over a universe of
  /// \p Size elements.
  static BasicRelation product(const SetT &SetA, const SetT &SetB,
                               unsigned Size) {
    BasicRelation R(Size);
    SetT Mask = fullSet(Size);
    SetT A = SetA;
    A &= Mask;
    SetT B = SetB;
    B &= Mask;
    const uint64_t *BWs = setWords(B);
    bits::forEach(A, [&](unsigned I) {
      for (unsigned K = 0; K < W; ++K)
        R.Rows[size_t(I) * W + K] = BWs[K];
    });
    return R;
  }

  /// \returns [SetA] ; this ; [SetB]: the pairs <A,B> with A in SetA and B
  /// in SetB.
  BasicRelation restricted(const SetT &SetA, const SetT &SetB) const {
    BasicRelation R(N);
    const uint64_t *BWs = setWords(SetB);
    for (unsigned A = 0; A < N; ++A)
      if (bits::test(SetA, A))
        for (unsigned K = 0; K < W; ++K)
          R.Rows[size_t(A) * W + K] = Rows[size_t(A) * W + K] & BWs[K];
    return R;
  }

  /// \returns the identity relation on \p Universe over \p Size elements.
  static BasicRelation identity(const SetT &Universe, unsigned Size) {
    BasicRelation R(Size);
    for (unsigned A = 0; A < Size; ++A)
      if (bits::test(Universe, A))
        R.set(A, A);
    return R;
  }

  bool operator==(const BasicRelation &Other) const {
    return N == Other.N &&
           std::equal(Rows.begin(), Rows.begin() + size_t(N) * W,
                      Other.Rows.begin());
  }
  bool operator!=(const BasicRelation &Other) const {
    return !(*this == Other);
  }

  /// Invokes \p Fn(A, B) for every pair <A,B> in the relation.
  template <typename FnT> void forEachPair(FnT Fn) const {
    for (unsigned A = 0; A < N; ++A)
      for (unsigned K = 0; K < W; ++K)
        for (uint64_t Word = Rows[size_t(A) * W + K]; Word;) {
          unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
          Word &= Word - 1;
          Fn(A, B);
        }
  }

  /// \returns all pairs of the relation in row-major order.
  std::vector<std::pair<unsigned, unsigned>> pairs() const {
    std::vector<std::pair<unsigned, unsigned>> Result;
    forEachPair([&](unsigned A, unsigned B) { Result.emplace_back(A, B); });
    return Result;
  }

  /// \returns some topological order of the universe consistent with this
  /// relation, or std::nullopt if the relation is cyclic (in which case no
  /// such order exists). Callers must handle the nullopt branch — release
  /// builds previously received a silently truncated order here.
  std::optional<std::vector<unsigned>> topologicalOrder() const {
    std::vector<unsigned> InDegree(N, 0);
    forEachPair([&](unsigned, unsigned B) { ++InDegree[B]; });
    std::vector<unsigned> Ready;
    for (unsigned A = 0; A < N; ++A)
      if (InDegree[A] == 0)
        Ready.push_back(A);
    std::vector<unsigned> Order;
    Order.reserve(N);
    while (!Ready.empty()) {
      // Pop the smallest ready element for determinism.
      auto MinIt = std::min_element(Ready.begin(), Ready.end());
      unsigned A = *MinIt;
      Ready.erase(MinIt);
      Order.push_back(A);
      for (unsigned K = 0; K < W; ++K)
        for (uint64_t Word = Rows[size_t(A) * W + K]; Word;) {
          unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
          Word &= Word - 1;
          if (--InDegree[B] == 0)
            Ready.push_back(B);
        }
    }
    if (Order.size() != N)
      return std::nullopt; // a cycle kept some element's in-degree positive
    return Order;
  }

  /// \returns a human-readable "{<0,1>, <2,3>}" rendering for debugging.
  std::string toString() const { return detail::renderRelation(pairs()); }

private:
  static const uint64_t *setWords(const SetT &S) {
    if constexpr (W == 1)
      return &S;
    else
      return S.Words.data();
  }
  static uint64_t *setWords(SetT &S) {
    if constexpr (W == 1)
      return &S;
    else
      return S.Words.data();
  }

  unsigned N;
  std::array<uint64_t, size_t(MaxSize) * W> Rows;
};

/// The classic single-word relation: universes of at most 64 elements,
/// uint64_t event masks, allocation-free everywhere. Every ≤64-event fast
/// path in the engine, the searches and the solvers runs on this alias.
using Relation = BasicRelation<1>;

/// Builds the relation {<Order[i], Order[j]> | i < j} over \p Size elements
/// of relation type \p RelT: the strict total order corresponding to the
/// sequence \p Order. Elements not mentioned in \p Order are unrelated.
template <typename RelT>
RelT totalOrderOver(const std::vector<unsigned> &Order, unsigned Size) {
  RelT R(Size);
  for (size_t I = 0; I < Order.size(); ++I)
    for (size_t J = I + 1; J < Order.size(); ++J)
      R.set(Order[I], Order[J]);
  return R;
}

/// The single-word flavour, kept under its historical name.
Relation totalOrderFromSequence(const std::vector<unsigned> &Order,
                                unsigned Size);

} // namespace jsmm

#endif // JSMM_SUPPORT_RELATION_H
