//===- tests/event_test.cpp - Event and range semantics -------------------===//

#include "core/Event.h"
#include "support/Str.h"

#include <gtest/gtest.h>

using namespace jsmm;

TEST(Event, WriteConstruction) {
  Event W = makeWrite(1, 0, Mode::SeqCst, 4, 4, 0x01020304);
  EXPECT_TRUE(W.isWrite());
  EXPECT_FALSE(W.isRead());
  EXPECT_FALSE(W.isRMW());
  EXPECT_EQ(W.writeBegin(), 4u);
  EXPECT_EQ(W.writeEnd(), 8u);
  // Little-endian byte layout.
  EXPECT_EQ(W.WriteBytes[0], 0x04);
  EXPECT_EQ(W.WriteBytes[3], 0x01);
}

TEST(Event, ReadConstruction) {
  Event R = makeRead(2, 1, Mode::Unordered, 0, 2, 0xBEEF);
  EXPECT_TRUE(R.isRead());
  EXPECT_FALSE(R.isWrite());
  EXPECT_EQ(R.readBegin(), 0u);
  EXPECT_EQ(R.readEnd(), 2u);
  EXPECT_EQ(valueOfBytes(R.ReadBytes), 0xBEEFu);
}

TEST(Event, RMWHasBothRanges) {
  Event M = makeRMW(3, 0, 8, 4, 7, 9);
  EXPECT_TRUE(M.isRMW());
  EXPECT_EQ(M.Ord, Mode::SeqCst);
  EXPECT_TRUE(M.TearFree);
  EXPECT_EQ(M.readBegin(), 8u);
  EXPECT_EQ(M.readEnd(), 12u);
  EXPECT_EQ(M.writeEnd(), 12u);
  EXPECT_EQ(valueOfBytes(M.ReadBytes), 7u);
  EXPECT_EQ(valueOfBytes(M.WriteBytes), 9u);
}

TEST(Event, InitCoversWholeBlock) {
  Event I = makeInit(0, 16);
  EXPECT_EQ(I.Ord, Mode::Init);
  EXPECT_EQ(I.Thread, -1);
  EXPECT_EQ(I.writeBegin(), 0u);
  EXPECT_EQ(I.writeEnd(), 16u);
  for (uint8_t B : I.WriteBytes)
    EXPECT_EQ(B, 0);
}

TEST(Event, ByteMembership) {
  Event W = makeWrite(0, 0, Mode::Unordered, 2, 4, 0);
  EXPECT_FALSE(W.writesByte(1));
  EXPECT_TRUE(W.writesByte(2));
  EXPECT_TRUE(W.writesByte(5));
  EXPECT_FALSE(W.writesByte(6));
  EXPECT_FALSE(W.readsByte(2)); // not a read
}

TEST(Event, WrittenByteAt) {
  Event W = makeWrite(0, 0, Mode::Unordered, 4, 2, 0xAABB);
  EXPECT_EQ(W.writtenByteAt(4), 0xBB);
  EXPECT_EQ(W.writtenByteAt(5), 0xAA);
}

TEST(Event, OverlapRequiresSameBlock) {
  Event A = makeWrite(0, 0, Mode::Unordered, 0, 4, 1, true, /*Block=*/0);
  Event B = makeWrite(1, 1, Mode::Unordered, 2, 4, 2, true, /*Block=*/1);
  EXPECT_FALSE(overlap(A, B));
  Event C = makeWrite(2, 1, Mode::Unordered, 2, 4, 2, true, /*Block=*/0);
  EXPECT_TRUE(overlap(A, C));
}

TEST(Event, OverlapPartialAndDisjoint) {
  Event A = makeWrite(0, 0, Mode::Unordered, 0, 4, 1);
  Event B = makeWrite(1, 1, Mode::Unordered, 4, 4, 2);
  EXPECT_FALSE(overlap(A, B)); // adjacent, not overlapping
  Event C = makeRead(2, 1, Mode::Unordered, 3, 2, 0);
  EXPECT_TRUE(overlap(A, C));
  EXPECT_TRUE(overlap(C, B));
}

TEST(Event, OverlapWithSelf) {
  Event A = makeWrite(0, 0, Mode::Unordered, 0, 4, 1);
  EXPECT_TRUE(overlap(A, A));
}

TEST(Event, SameWriteReadRange) {
  Event W = makeWrite(0, 0, Mode::SeqCst, 4, 4, 1);
  Event R = makeRead(1, 1, Mode::SeqCst, 4, 4, 1);
  EXPECT_TRUE(sameWriteReadRange(W, R));
  Event R2 = makeRead(2, 1, Mode::SeqCst, 4, 2, 1);
  EXPECT_FALSE(sameWriteReadRange(W, R2)); // narrower
  Event R3 = makeRead(3, 1, Mode::SeqCst, 0, 4, 1);
  EXPECT_FALSE(sameWriteReadRange(W, R3)); // shifted
  EXPECT_FALSE(sameWriteReadRange(R, W));  // wrong kinds
}

TEST(Event, SameWriteWriteRange) {
  Event A = makeWrite(0, 0, Mode::SeqCst, 4, 4, 1);
  Event B = makeWrite(1, 1, Mode::Unordered, 4, 4, 2);
  EXPECT_TRUE(sameWriteWriteRange(A, B));
  Event C = makeWrite(2, 1, Mode::Unordered, 4, 2, 2);
  EXPECT_FALSE(sameWriteWriteRange(A, C));
}

TEST(Event, RangeOfRMWIsUnionOfBoth) {
  Event M = makeRMW(0, 0, 4, 4, 0, 0);
  EXPECT_EQ(M.rangeBegin(), 4u);
  EXPECT_EQ(M.rangeEnd(), 8u);
}

TEST(Event, FootprintlessEventDoesNotOverlap) {
  // Ewake/Enotify events have empty footprints (§7).
  Event N;
  N.Id = 0;
  N.Thread = 0;
  N.Index = 4;
  Event W = makeWrite(1, 1, Mode::SeqCst, 0, 16, 1);
  EXPECT_FALSE(overlap(N, W));
  EXPECT_FALSE(overlap(W, N));
  EXPECT_FALSE(N.isRead());
  EXPECT_FALSE(N.isWrite());
}

TEST(Event, ModeNames) {
  EXPECT_STREQ(modeName(Mode::Unordered), "Un");
  EXPECT_STREQ(modeName(Mode::SeqCst), "SC");
  EXPECT_STREQ(modeName(Mode::Init), "I");
}

TEST(Event, ToStringSmoke) {
  Event W = makeWrite(7, 0, Mode::SeqCst, 4, 4, 5);
  std::string S = W.toString();
  EXPECT_NE(S.find("WSC"), std::string::npos);
  EXPECT_NE(S.find("[4..7]"), std::string::npos);
  EXPECT_NE(S.find("=5"), std::string::npos);
}

TEST(Str, ByteValueRoundTrip) {
  for (uint64_t V : {0ull, 1ull, 0xFFull, 0x1234ull, 0xDEADBEEFull}) {
    for (unsigned W : {1u, 2u, 4u, 8u}) {
      uint64_t Mask = W == 8 ? ~0ull : ((1ull << (8 * W)) - 1);
      EXPECT_EQ(valueOfBytes(bytesOfValue(V, W)), V & Mask);
    }
  }
}

TEST(Str, PaddingHelpers) {
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("abcde", 4), "abcde");
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Event, ToStringRendersBufferWideInit) {
  // An Init write covers its whole buffer, wider than a value word.
  EXPECT_NE(makeInit(0, 16).toString().find("[0..15]=0"), std::string::npos);
  std::vector<uint8_t> Bytes(16, 0);
  Bytes[9] = 5;
  std::string S = makeInit(0, Bytes).toString();
  EXPECT_NE(S.find("0x05"), std::string::npos) << S;
  EXPECT_EQ(renderBytes({1, 2}), "513");
}
