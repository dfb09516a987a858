//===- armv8/ArmEvent.cpp -------------------------------------------------===//

#include "armv8/ArmEvent.h"

#include "support/Str.h"

#include <cassert>

using namespace jsmm;

uint8_t ArmEvent::byteAt(unsigned Loc) const {
  assert(touchesByte(Loc) && "location not accessed by this event");
  return Bytes[Loc - Index];
}

std::string ArmEvent::toString() const {
  std::string Out = std::to_string(Id) + ": ";
  switch (Kind) {
  case ArmKind::DmbFull:
    return Out + "dmb sy";
  case ArmKind::DmbLd:
    return Out + "dmb ld";
  case ArmKind::DmbSt:
    return Out + "dmb st";
  case ArmKind::Isb:
    return Out + "isb";
  case ArmKind::Read:
    Out += "R";
    break;
  case ArmKind::Write:
    Out += "W";
    break;
  }
  if (Acquire)
    Out += "acq";
  if (Release)
    Out += "rel";
  if (Exclusive)
    Out += "x";
  if (IsInit)
    Out += "init";
  Out += " b" + std::to_string(Block) + "[" + std::to_string(begin()) + ".." +
         std::to_string(end() - 1) + "]";
  Out += (isWrite() ? "=" : " reads ") + renderBytes(Bytes);
  return Out;
}

bool jsmm::armOverlap(const ArmEvent &A, const ArmEvent &B) {
  return A.isAccess() && B.isAccess() && A.Block == B.Block &&
         A.begin() < B.end() && B.begin() < A.end();
}

ArmEvent jsmm::makeArmRead(EventId Id, int Thread, unsigned Index,
                           unsigned Width, bool Acquire, bool Exclusive,
                           unsigned Block) {
  ArmEvent E;
  E.Id = Id;
  E.Thread = Thread;
  E.Kind = ArmKind::Read;
  E.Acquire = Acquire;
  E.Exclusive = Exclusive;
  E.Block = Block;
  E.Index = Index;
  E.Bytes.assign(Width, 0);
  return E;
}

ArmEvent jsmm::makeArmWrite(EventId Id, int Thread, unsigned Index,
                            unsigned Width, uint64_t Value, bool Release,
                            bool Exclusive, unsigned Block) {
  ArmEvent E;
  E.Id = Id;
  E.Thread = Thread;
  E.Kind = ArmKind::Write;
  E.Release = Release;
  E.Exclusive = Exclusive;
  E.Block = Block;
  E.Index = Index;
  E.Bytes = bytesOfValue(Value, Width);
  return E;
}

ArmEvent jsmm::makeArmFence(EventId Id, int Thread, ArmKind Kind) {
  ArmEvent E;
  E.Id = Id;
  E.Thread = Thread;
  E.Kind = Kind;
  return E;
}

ArmEvent jsmm::makeArmInit(EventId Id, unsigned Size, unsigned Block) {
  ArmEvent E;
  E.Id = Id;
  E.Thread = -1;
  E.Kind = ArmKind::Write;
  E.IsInit = true;
  E.Block = Block;
  E.Index = 0;
  E.Bytes.assign(Size, 0);
  return E;
}
