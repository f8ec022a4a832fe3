/// Unit tests for util/buffer.hpp (serialization roundtrips and bounds).

#include "util/buffer.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace dharma {
namespace {

TEST(Buffer, FixedWidthRoundtrip) {
  ByteWriter w;
  w.writeU8(0xab);
  w.writeU16(0x1234);
  w.writeU32(0xdeadbeef);
  w.writeU64(0x0123456789abcdefULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.readU8(), 0xab);
  EXPECT_EQ(r.readU16(), 0x1234);
  EXPECT_EQ(r.readU32(), 0xdeadbeefu);
  EXPECT_EQ(r.readU64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.atEnd());
}

TEST(Buffer, VarintSmallIsOneByte) {
  ByteWriter w;
  w.writeVarint(127);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Buffer, VarintBoundaries) {
  for (u64 v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                0xffffffffULL, ~0ULL}) {
    ByteWriter w;
    w.writeVarint(v);
    EXPECT_EQ(ByteWriter::varintSize(v), w.size()) << v;
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readVarint(), v);
    EXPECT_TRUE(r.atEnd());
  }
}

TEST(Buffer, StringRoundtrip) {
  ByteWriter w;
  w.writeString("hello");
  w.writeString("");
  w.writeString(std::string(1000, 'x'));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.readString(), "hello");
  EXPECT_EQ(r.readString(), "");
  EXPECT_EQ(r.readString(), std::string(1000, 'x'));
}

TEST(Buffer, BytesRoundtrip) {
  std::vector<u8> data{1, 2, 3, 255, 0};
  ByteWriter w;
  w.writeBytes(data.data(), data.size());
  ByteReader r(w.bytes());
  EXPECT_EQ(r.readBytes(), data);
}

TEST(Buffer, RawRoundtrip) {
  u8 in[4] = {9, 8, 7, 6};
  ByteWriter w;
  w.writeRaw(in, 4);
  ByteReader r(w.bytes());
  u8 out[4];
  r.readRaw(out, 4);
  EXPECT_EQ(0, memcmp(in, out, 4));
}

TEST(Buffer, TruncatedThrows) {
  ByteWriter w;
  w.writeU32(42);
  ByteReader r(w.bytes());
  r.readU16();
  EXPECT_THROW(r.readU32(), DecodeError);
}

TEST(Buffer, TruncatedStringThrows) {
  ByteWriter w;
  w.writeVarint(100);  // claims 100 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.readString(), DecodeError);
}

TEST(Buffer, MalformedVarintThrows) {
  // 11 continuation bytes overflow the 64-bit accumulator.
  std::vector<u8> bad(11, 0xff);
  ByteReader r(bad);
  EXPECT_THROW(r.readVarint(), DecodeError);
}

TEST(Buffer, EmptyReaderThrows) {
  std::vector<u8> empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.atEnd());
  EXPECT_THROW(r.readU8(), DecodeError);
}

TEST(Buffer, RemainingTracks) {
  ByteWriter w;
  w.writeU32(1);
  w.writeU32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.readU32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Buffer, TakeMovesBuffer) {
  ByteWriter w;
  w.writeU8(1);
  auto v = w.take();
  EXPECT_EQ(v.size(), 1u);
}

/// Property: random mixed-field messages roundtrip exactly.
class BufferProperty : public ::testing::TestWithParam<u64> {};

TEST_P(BufferProperty, MixedRoundtrip) {
  Rng rng(GetParam());
  ByteWriter w;
  std::vector<u64> varints;
  std::vector<std::string> strings;
  for (int i = 0; i < 50; ++i) {
    u64 v = rng.next() >> (rng.uniform(64));
    varints.push_back(v);
    w.writeVarint(v);
    std::string s;
    usize len = rng.uniform(40);
    for (usize j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform(256)));
    }
    strings.push_back(s);
    w.writeString(s);
  }
  ByteReader r(w.bytes());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(r.readVarint(), varints[static_cast<usize>(i)]);
    EXPECT_EQ(r.readString(), strings[static_cast<usize>(i)]);
  }
  EXPECT_TRUE(r.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferProperty,
                         ::testing::Values(10, 20, 30, 40, 50));

}  // namespace
}  // namespace dharma
