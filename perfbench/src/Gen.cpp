//===- perfbench/src/Gen.cpp - Seeded workload generators -----------------===//
///
/// \file
/// Every workload is a pure function of its seed. The mix of shapes and
/// sizes and the job order are fixed per workload, so seeds change the
/// programs — modes, widths, offsets, values; in wide only the values —
/// but not how much work a run holds. The service only ever receives the
/// generated litmus text.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "litmus/PathEnum.h"
#include "targets/UniProgram.h"

#include <algorithm>
#include <set>

using namespace jsmm;
using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<unsigned>(I))]);
}

/// An abstract access of a diy-style shape: write, read or exchange of one
/// shared location.
struct Op {
  enum Kind { W, R, X } K;
  unsigned Loc;
};
using ThreadOps = std::vector<Op>;

struct Shape {
  const char *Name;
  std::vector<ThreadOps> Threads;
};

/// The campaign's shape mix: the classic two-, three- and four-thread
/// critical cycles.
const std::vector<Shape> &campaignShapes() {
  static const std::vector<Shape> Shapes = {
      {"mp", {{{Op::W, 0}, {Op::W, 1}}, {{Op::R, 1}, {Op::R, 0}}}},
      {"sb", {{{Op::W, 0}, {Op::R, 1}}, {{Op::W, 1}, {Op::R, 0}}}},
      {"lb", {{{Op::R, 0}, {Op::W, 1}}, {{Op::R, 1}, {Op::W, 0}}}},
      {"s", {{{Op::W, 0}, {Op::W, 1}}, {{Op::R, 1}, {Op::W, 0}}}},
      {"r", {{{Op::W, 0}, {Op::W, 1}}, {{Op::W, 1}, {Op::R, 0}}}},
      {"corr", {{{Op::W, 0}}, {{Op::R, 0}, {Op::R, 0}}}},
      {"cowr", {{{Op::W, 0}, {Op::R, 0}}, {{Op::W, 0}}}},
      {"wrc",
       {{{Op::W, 0}}, {{Op::R, 0}, {Op::W, 1}}, {{Op::R, 1}, {Op::R, 0}}}},
      {"rwc",
       {{{Op::W, 0}}, {{Op::R, 0}, {Op::R, 1}}, {{Op::W, 1}, {Op::R, 0}}}},
      {"isa2",
       {{{Op::W, 0}, {Op::W, 1}}, {{Op::R, 1}, {Op::W, 2}},
        {{Op::R, 2}, {Op::R, 0}}}},
      {"sb3",
       {{{Op::W, 0}, {Op::R, 1}}, {{Op::W, 1}, {Op::R, 2}},
        {{Op::W, 2}, {Op::R, 0}}}},
      {"iriw",
       {{{Op::W, 0}}, {{Op::R, 0}, {Op::R, 1}}, {{Op::W, 1}},
        {{Op::R, 1}, {Op::R, 0}}}},
  };
  return Shapes;
}

/// A value of \p Width bytes whose every byte is \p Byte, so a torn read
/// shows which write each byte came from.
uint64_t splat(unsigned Byte, unsigned Width) {
  uint64_t V = 0;
  for (unsigned I = 0; I < Width; ++I)
    V = (V << 8) | Byte;
  return V;
}

const char *widthToken(unsigned Width) {
  return Width == 1 ? "u8" : Width == 2 ? "u16" : "u32";
}

/// Text emitter for one litmus program.
struct Emitter {
  std::string Text;
  std::vector<unsigned> NextReg;
  unsigned Indent = 1;

  void line(const std::string &S) {
    Text += std::string(2 * Indent, ' ') + S + "\n";
  }
  void thread() {
    Text += "thread\n";
    NextReg.push_back(0);
    Indent = 1;
  }
  void store(unsigned Width, unsigned Off, uint64_t V, bool Sc) {
    line(std::string(Sc ? "store.sc " : "store ") + widthToken(Width) + " " +
         std::to_string(Off) + " = " + std::to_string(V));
  }
  unsigned load(unsigned Width, unsigned Off, bool Sc) {
    unsigned R = NextReg.back()++;
    line("r" + std::to_string(R) + " = " + (Sc ? "load.sc " : "load ") +
         widthToken(Width) + " " + std::to_string(Off));
    return R;
  }
  void exchange(unsigned Width, unsigned Off, uint64_t V) {
    unsigned R = NextReg.back()++;
    line("r" + std::to_string(R) + " = exchange " + widthToken(Width) + " " +
         std::to_string(Off) + " = " + std::to_string(V));
  }
};

/// Per-access width and offset choice inside a location's 4-byte cell.
struct Placement {
  unsigned Width;
  unsigned Off;
};

Placement place(unsigned Loc, bool Uni, unsigned UniWidth, unsigned MaxWidth,
                Rng &R) {
  unsigned Base = 4 * Loc;
  if (Uni)
    return {std::min(UniWidth, MaxWidth), Base};
  static const unsigned Widths[] = {1, 2, 4};
  unsigned W = std::min(Widths[R.below(3)], MaxWidth);
  if (W == 2 && R.chance(25))
    return {2, Base + 2};
  if (W == 1 && R.chance(25))
    return {1, Base + 1 + R.below(3)};
  return {W, Base};
}

/// Emits the shape's threads. Writes to one location get distinct byte
/// patterns. \p Control wraps the ops after a thread's first read in a
/// branch on it; \p ExchangeThread turns that thread's first write into an
/// exchange; \p Private appends one store to a thread-private byte.
/// \p MaxWidth caps access widths. Access i (in thread order) is SeqCst
/// when bit i of \p ScMask is set; a negative mask draws each mode.
/// Without \p Splat a write's value occupies its low byte only, so a wide
/// read has one candidate per writer instead of one per byte and writer.
/// Every value byte is XORed with \p ValueXor, which keeps the bytes
/// distinct per location and, with bit 6 or 7 set, nonzero.
void emitShape(const Shape &S, bool Uni, unsigned UniWidth, unsigned MaxWidth,
               int ScMask, bool Splat, bool Control, int ExchangeThread,
               int PrivateThread, unsigned ValueXor, Rng &R, Emitter &E) {
  std::vector<unsigned> Written(3, 0);
  std::vector<uint64_t> FirstByte(3, 0);
  unsigned Access = 0;
  for (unsigned T = 0; T < S.Threads.size(); ++T) {
    E.thread();
    bool Exchanged = false, Branched = false;
    for (const Op &O : S.Threads[T]) {
      Placement P = place(O.Loc, Uni, UniWidth, MaxWidth, R);
      bool Sc = ScMask < 0 ? R.chance(40) : (ScMask >> Access) & 1;
      ++Access;
      if (O.K == Op::W || O.K == Op::X) {
        unsigned Byte = (16 * (O.Loc + 1) + (++Written[O.Loc])) ^ ValueXor;
        if (!FirstByte[O.Loc])
          FirstByte[O.Loc] = Byte;
        uint64_t V = Splat ? splat(Byte, P.Width) : Byte;
        if (static_cast<int>(T) == ExchangeThread && !Exchanged) {
          E.exchange(P.Width, P.Off, V);
          Exchanged = true;
        } else {
          E.store(P.Width, P.Off, V, Sc);
        }
        continue;
      }
      unsigned Reg = E.load(P.Width, P.Off, Sc);
      if (Control && !Branched && &O != &S.Threads[T].back()) {
        unsigned Byte = FirstByte[O.Loc] ? FirstByte[O.Loc]
                                         : (16 * (O.Loc + 1) + 1) ^ ValueXor;
        E.line("if r" + std::to_string(Reg) + " == " +
               std::to_string(Splat ? splat(Byte, P.Width) : Byte));
        ++E.Indent;
        Branched = true;
      }
    }
    if (static_cast<int>(T) == PrivateThread)
      E.store(1, 12 + T, 1 + T, false);
    if (Branched) {
      --E.Indent;
      E.line("end");
    }
  }
}

/// Re-spells \p Text without changing the program: comments, blank lines,
/// wider indentation and explicit thread ids, each at the generator's
/// choice (at least one always applies).
std::string respell(const std::string &Text, Rng &R) {
  bool Comments = R.chance(50), Blank = R.chance(50), Wide = R.chance(50);
  bool Ids = !(Comments || Blank || Wide) || R.chance(50);
  std::string Out = Comments ? "# re-spelled duplicate\n" : "";
  unsigned Thread = 0;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line == "thread") {
      if (Blank)
        Out += "\n";
      Out += Ids ? "thread " + std::to_string(Thread) : Line;
      Out += Comments ? "   # thread " + std::to_string(Thread) + "\n" : "\n";
      ++Thread;
      continue;
    }
    if (Wide && !Line.empty() && Line[0] == ' ')
      Line = "\t" + Line;
    Out += Line + "\n";
  }
  return Out;
}

std::string hex(uint64_t V) {
  static const char *Digits = "0123456789abcdef";
  std::string S;
  for (int I = 0; I < 8; ++I)
    S = Digits[(V >> (4 * I)) & 15] + S;
  return S;
}

} // namespace

/// Job order is the same for every seed, so where the costlier jobs fall
/// in a pass (and with it the pass's makespan) does not depend on the seed.
constexpr uint64_t OrderSeed = 0x6a09e667f3bcc908ull;

std::vector<BenchJob> perfbench::campaignJobs(uint64_t Seed, unsigned Count) {
  Rng R(Seed * 0x100000001b3ull + 11);
  Rng Order(OrderSeed);
  // The mix is assumed, not measured from any user's campaign, and kept
  // as plain as possible: distinct program G takes shape G mod 12,
  // alternates uni-size and mixed-size instantiations every 12 programs,
  // alternates the uni-size width between 8 and 16 bits every 24, and
  // carries one extra feature on the stride G mod 5 (none, an exchange, a
  // private store, a branch, an init directive). Every shape therefore
  // meets every feature, and the costly combinations have a fixed count.
  // No access is wider than 16 bits: the armv8 column walks candidates
  // byte by byte, and with 32-bit accesses (worst with an exchange) the
  // slowest programs cost 1-4 ms there, depending on the seeded modes and
  // on which thread holds the exchange, so the tail depended on the seed.
  // A 32-bit IRIW costs 0.1-1.5 s in that column, a known cost
  // perfbench/README.md records.
  struct Slot {
    unsigned Shape;
    bool Uni;
    unsigned UniWidth;
    bool Exchange, Private, Control, Init;
  };
  static const unsigned UniWidths[] = {1, 2};
  const std::vector<Shape> &Shapes = campaignShapes();
  const unsigned NShapes = static_cast<unsigned>(Shapes.size());
  unsigned Distinct = Count - Count / 5;
  std::vector<Slot> Slots;
  for (unsigned G = 0; G < Distinct; ++G) {
    unsigned F = G % 5;
    Slots.push_back({G % NShapes, (G / NShapes) % 2 == 0,
                     UniWidths[(G / (2 * NShapes)) % 2], F == 1, F == 2,
                     F == 3, F == 4});
  }
  shuffle(Slots, Order);

  std::vector<BenchJob> Jobs;
  std::vector<unsigned> Originals;
  size_t NextSlot = 0;
  for (unsigned I = 0; I < Count; ++I) {
    BenchJob J;
    J.Job.Name = "c" + std::to_string(I);
    J.Job.Model = "differential";
    J.Job.Threads = 1;
    if (I % 5 == 4 && !Originals.empty()) {
      // One job in five re-spells an earlier program: the verdict cache
      // must see through the spelling.
      unsigned Of = Originals[R.below(static_cast<unsigned>(Originals.size()))];
      J.DupOf = static_cast<int>(Of);
      J.Job.Litmus = respell(Jobs[Of].Job.Litmus, R);
      J.RefLitmus = Jobs[Of].RefLitmus;
      Jobs.push_back(std::move(J));
      continue;
    }
    const Slot &Sl = Slots[NextSlot++];
    const Shape &S = Shapes[Sl.Shape];
    bool Uni = Sl.Uni;
    unsigned NT = static_cast<unsigned>(S.Threads.size());
    int Exchange = Sl.Exchange ? static_cast<int>(R.below(NT)) : -1;
    int Private = Sl.Private ? static_cast<int>(R.below(NT)) : -1;
    Emitter E;
    E.Text = "name " + std::string(S.Name) + "-" + hex(R.next()) + "\n";
    E.Text += "buffer 16\n";
    if (Sl.Init)
      E.Text += "init u8 " + std::to_string(4 * R.below(2)) + " = 7\n";
    // Byte-pattern values only where accesses overlap (mixed-size): in a
    // uni-size program they would only multiply the byte-wise candidates.
    emitShape(S, Uni, Sl.UniWidth, /*MaxWidth=*/2, -1, /*Splat=*/!Uni,
              Sl.Control, Exchange, Private, /*ValueXor=*/0, R, E);
    J.Job.Litmus = E.Text;
    J.RefLitmus = E.Text;
    Originals.push_back(I);
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

std::vector<BenchJob> perfbench::ringJobs(uint64_t Seed, unsigned Count,
                                          unsigned Threads,
                                          unsigned EngineThreads) {
  Rng R(Seed * 0x100000001b3ull + 23);
  std::vector<BenchJob> Jobs;
  for (unsigned I = 0; I < Count; ++I) {
    // Thread t owns byte Loc[t], stores four distinct values to it and
    // loads its neighbour's byte (the neighbour direction is seeded).
    std::vector<unsigned> Loc(Threads);
    for (unsigned T = 0; T < Threads; ++T)
      Loc[T] = T;
    shuffle(Loc, R);
    std::vector<std::vector<unsigned>> Values(Threads);
    for (unsigned T = 0; T < Threads; ++T) {
      std::set<unsigned> Used;
      while (Used.size() < 4)
        Used.insert(1 + R.below(255));
      Values[T].assign(Used.begin(), Used.end());
      shuffle(Values[T], R);
    }
    bool Left = R.chance(50);
    BenchJob J;
    J.Job.Name = "ring" + std::to_string(Threads) + "-" + std::to_string(I);
    J.Job.Model = "revised";
    J.Job.Threads = EngineThreads;
    std::string &S = J.Job.Litmus;
    S = "name ring" + std::to_string(Threads) + "-" + hex(R.next()) + "\n";
    S += "buffer " + std::to_string(Threads) + "\n";
    for (unsigned T = 0; T < Threads; ++T) {
      unsigned Nb = Left ? (T + Threads - 1) % Threads : (T + 1) % Threads;
      S += "thread\n";
      for (unsigned V : Values[T])
        S += "  store u8 " + std::to_string(Loc[T]) + " = " +
             std::to_string(V) + "\n";
      S += "  r0 = load u8 " + std::to_string(Loc[Nb]) + "\n";
      std::vector<unsigned> Choices = {0};
      Choices.insert(Choices.end(), Values[Nb].begin(), Values[Nb].end());
      J.RingChoices.push_back(Choices);
    }
    J.RefLitmus = S;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

std::vector<BenchJob> perfbench::wideJobs(uint64_t Seed, unsigned Programs) {
  // The seed picks the values and the names; the layout (sizes, widths,
  // offsets, filler threads) comes from a fixed stream. A program's cost
  // depends on its layout: drawn per seed, one grid point's mixed-size
  // IRIW took five times as long under one seed as under another, and
  // the workload's job_tail_ms moved with the seed by more than its
  // bound. Relabelled values leave the candidates and their number as
  // they are.
  Rng R(Seed * 0x100000001b3ull + 37);
  // Each core with three fixed mode patterns (bit i: access i is SeqCst):
  // plain, a synchronising set, and a heavy one (all-SeqCst; for cosc all
  // but one read). In cosc two threads write x with SeqCst and a third
  // reads it with SeqCst, so in its uni-size form past SatThreshold the SAT
  // tier has to branch on the order of the writes. The other cores'
  // SeqCst writes never compete: propagation alone settles their tot
  // problems.
  struct Core {
    Shape S;
    int Masks[3];
  };
  static const Core Cores[] = {
      {{"iriw",
        {{{Op::W, 0}}, {{Op::R, 0}, {Op::R, 1}}, {{Op::W, 1}},
         {{Op::R, 1}, {Op::R, 0}}}},
       {0, 0b100001, 0b111111}},
      {{"sb", {{{Op::W, 0}, {Op::R, 1}}, {{Op::W, 1}, {Op::R, 0}}}},
       {0, 0b1001, 0b1111}},
      {{"mp", {{{Op::W, 0}, {Op::W, 1}}, {{Op::R, 1}, {Op::R, 0}}}},
       {0, 0b0110, 0b1111}},
      {{"cosc",
        {{{Op::R, 0}}, {{Op::R, 0}, {Op::W, 0}},
         {{Op::W, 1}, {Op::W, 1}, {Op::W, 0}}}},
       {0, 0b100101, 0b111101}},
  };
  const unsigned NCores = sizeof(Cores) / sizeof(Cores[0]);
  const std::vector<TargetModel> &Targets = TargetModel::all();
  // Event targets on a fixed grid from 65 to ~500 (with fixed jitter), so
  // every seed straddles EngineConfig::SatThreshold the same way.
  std::vector<unsigned> Order(Programs);
  for (unsigned K = 0; K < Programs; ++K)
    Order[K] = K;
  Rng Fixed(OrderSeed);
  shuffle(Order, Fixed);
  std::vector<BenchJob> Jobs;
  for (unsigned K : Order) {
    const Shape &Core = Cores[K % NCores].S;
    int Mask = Cores[K % NCores].Masks[(K / (2 * NCores)) % 3];
    bool Uni = (K / NCores) % 2 == 0;
    unsigned Target = 65 + (Programs > 1 ? 435 * K / (Programs - 1) : 0) +
                      Fixed.below(8);
    unsigned ValueXor = 64 + R.below(192);
    Emitter E;
    emitShape(Core, Uni, 4, 4, Mask, /*Splat=*/false, /*Control=*/false, -1,
              -1, ValueXor, Fixed, E);
    std::string CoreBody = E.Text;
    unsigned CoreOps = 0;
    for (const ThreadOps &T : Core.Threads)
      CoreOps += static_cast<unsigned>(T.size());
    // Private filler threads: unordered stores to bytes no other thread
    // touches, never read, so the verdict table is the core's.
    unsigned Fill = Target > CoreOps + 1 ? Target - CoreOps - 1 : 0;
    std::string Fillers;
    unsigned Off = 16;
    while (Fill) {
      unsigned N = std::min(Fill, 6 + Fixed.below(5));
      Fillers += "thread\n";
      for (unsigned I = 0; I < N; ++I, Off += 4)
        Fillers += "  store u32 " + std::to_string(Off) + " = " +
                   std::to_string(1 + R.below(200)) + "\n";
      Fill -= N;
    }
    std::string Name = "wide-" + std::string(Core.Name) + "-" + hex(R.next());
    std::string Head = "name " + Name + "\nbuffer " + std::to_string(Off) +
                       "\n";
    std::string CoreHead = "name " + Name + "\nbuffer 16\n";
    BenchJob J;
    J.Job.Name = Name;
    J.Job.Model = "revised";
    J.Job.Threads = 1;
    J.Job.Litmus = Head + CoreBody + Fillers;
    J.RefLitmus = CoreHead + CoreBody;
    Jobs.push_back(J);
    if (Uni) {
      J.Job.Model = Targets[(K / (2 * NCores)) % Targets.size()].name();
      J.Job.Name = Name + "@" + J.Job.Model;
      Jobs.push_back(J);
    }
  }
  return Jobs;
}

WorkloadShares perfbench::sharesOf(const std::vector<BenchJob> &Jobs) {
  WorkloadShares S;
  S.Jobs = static_cast<unsigned>(Jobs.size());
  unsigned Dups = 0, Distinct = 0, Uni = 0, Arm = 0, AboveSat = 0;
  std::set<std::string> Seen;
  for (const BenchJob &J : Jobs) {
    if (J.DupOf >= 0) {
      ++Dups;
      continue;
    }
    if (!Seen.insert(J.Job.Litmus).second)
      continue; // a second backend of the same program
    std::optional<LitmusFile> F = parseLitmus(J.Job.Litmus);
    if (!F)
      continue;
    ++Distinct;
    unsigned Events = programEventUpperBound(F->P);
    S.MinEvents = Distinct == 1 ? Events : std::min(S.MinEvents, Events);
    S.MaxEvents = std::max(S.MaxEvents, Events);
    if (Events > EngineConfig().SatThreshold)
      ++AboveSat;
    if (uniFromProgram(F->P))
      ++Uni;
    if (!F->P.hasNonZeroInit() &&
        !ExecutionEngine::capacityError(compileToArm(F->P).Arm))
      ++Arm;
  }
  if (S.Jobs)
    S.Duplicates = static_cast<double>(Dups) / S.Jobs;
  if (Distinct) {
    S.UniSize = static_cast<double>(Uni) / Distinct;
    S.Armv8Eligible = static_cast<double>(Arm) / Distinct;
    S.AboveSat = static_cast<double>(AboveSat) / Distinct;
  }
  return S;
}

std::string SweepQuestion::name() const {
  const char *Base = K == Kind::ArmCompilation ? "s5.2-arm-cex"
                     : K == Kind::ScDrf        ? "s5.4-scdrf-cex"
                                               : "s5.3-bounded";
  return std::string(Base) + (Revised ? "-revised" : "-original") + "@" +
         std::to_string(MaxEvents);
}

std::vector<SweepQuestion> perfbench::sweepQuestions(uint64_t Seed,
                                                     unsigned Threads) {
  using K = SweepQuestion::Kind;
  std::vector<SweepQuestion> Qs = {
      // §5.2: the original model's minimal compilation counter-example has
      // 6 events; the revised model has none (bound 5: 6 takes ~27 s).
      {K::ArmCompilation, false, 6, Threads, 6},
      {K::ArmCompilation, true, 5, Threads, 0},
      // §5.4: the original model's minimal SC-DRF counter-example (Fig. 8)
      // has 4 events; the revised model has none within the bound.
      {K::ScDrf, false, 5, Threads, 4},
      {K::ScDrf, true, 5, Threads, 0},
      // §5.3: the tot construction witnesses every ARM-consistent execution
      // of the revised model (bound 4: 5 takes ~3.5 s).
      {K::BoundedCompilation, true, 4, Threads, 0},
  };
  // The questions are the paper's; the seed only orders them.
  Rng R(Seed * 0x100000001b3ull + 53);
  shuffle(Qs, R);
  return Qs;
}
