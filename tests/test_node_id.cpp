/// Unit tests for the 160-bit id space and XOR metric (dht/node_id.hpp).

#include "dht/node_id.hpp"

#include <gtest/gtest.h>

namespace dharma::dht {
namespace {

TEST(NodeId, ZeroIsAllZero) {
  NodeId z = NodeId::zero();
  for (u8 b : z.bytes) EXPECT_EQ(b, 0);
}

TEST(NodeId, HexRoundtrip) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    NodeId id = NodeId::random(rng);
    EXPECT_EQ(NodeId::fromHex(id.toHex()), id);
  }
}

TEST(NodeId, FromStringIsSha1) {
  NodeId id = NodeId::fromString("abc");
  EXPECT_EQ(id.toHex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(NodeId, XorSelfIsZero) {
  Rng rng(2);
  NodeId id = NodeId::random(rng);
  EXPECT_EQ(xorDistance(id, id), NodeId::zero());
}

TEST(NodeId, XorSymmetric) {
  Rng rng(3);
  NodeId a = NodeId::random(rng), b = NodeId::random(rng);
  EXPECT_EQ(xorDistance(a, b), xorDistance(b, a));
}

TEST(NodeId, BucketIndexSelfIsMinusOne) {
  Rng rng(4);
  NodeId a = NodeId::random(rng);
  EXPECT_EQ(bucketIndex(a, a), -1);
}

TEST(NodeId, BucketIndexTopBit) {
  NodeId a = NodeId::zero();
  NodeId b = NodeId::zero();
  b.bytes[0] = 0x80;  // differ in the most significant bit
  EXPECT_EQ(bucketIndex(a, b), 159);
}

TEST(NodeId, BucketIndexLowBit) {
  NodeId a = NodeId::zero();
  NodeId b = NodeId::zero();
  b.bytes[19] = 0x01;  // differ only in the least significant bit
  EXPECT_EQ(bucketIndex(a, b), 0);
}

TEST(NodeId, BucketIndexMidBit) {
  NodeId a = NodeId::zero();
  NodeId b = NodeId::zero();
  b.bytes[10] = 0x10;  // byte 10, bit 4 => (19-10)*8 + 4 = 76
  EXPECT_EQ(bucketIndex(a, b), 76);
}

TEST(NodeId, BitAccessorMatchesBucketIndex) {
  NodeId b = NodeId::zero();
  b.bytes[0] = 0x80;
  EXPECT_TRUE(b.bit(159));
  EXPECT_FALSE(b.bit(158));
  NodeId c = NodeId::zero();
  c.bytes[19] = 0x01;
  EXPECT_TRUE(c.bit(0));
}

TEST(NodeId, CompareDistanceOrdersByXor) {
  NodeId target = NodeId::zero();
  NodeId near = NodeId::zero();
  near.bytes[19] = 0x01;  // distance 1
  NodeId far = NodeId::zero();
  far.bytes[19] = 0x05;  // distance 5
  EXPECT_LT(compareDistance(target, near, far), 0);
  EXPECT_GT(compareDistance(target, far, near), 0);
  EXPECT_EQ(compareDistance(target, near, near), 0);
}

TEST(NodeId, CompareDistanceTriangleConsistency) {
  // Sorting by compareDistance yields a strict weak ordering.
  Rng rng(5);
  NodeId target = NodeId::random(rng);
  std::vector<NodeId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(NodeId::random(rng));
  std::sort(ids.begin(), ids.end(), [&](const NodeId& a, const NodeId& b) {
    return compareDistance(target, a, b) < 0;
  });
  for (usize i = 1; i < ids.size(); ++i) {
    EXPECT_LE(compareDistance(target, ids[i - 1], ids[i]), 0);
  }
}

TEST(NodeId, CloserToIsStrict) {
  NodeId t = NodeId::zero();
  NodeId a = NodeId::zero();
  a.bytes[19] = 1;
  EXPECT_TRUE(closerTo(t, a, NodeId::fromString("far")));
  EXPECT_FALSE(closerTo(t, a, a));
}

/// Byte-at-a-time references for the word-wise fast paths.
int refCompareDistance(const NodeId& t, const NodeId& a, const NodeId& b) {
  for (usize i = 0; i < 20; ++i) {
    const u8 da = a.bytes[i] ^ t.bytes[i];
    const u8 db = b.bytes[i] ^ t.bytes[i];
    if (da != db) return da < db ? -1 : 1;
  }
  return 0;
}

int refBucketIndex(const NodeId& a, const NodeId& b) {
  for (int bit = 159; bit >= 0; --bit) {
    if (a.bit(bit) != b.bit(bit)) return bit;
  }
  return -1;
}

/// Checks every distance-derived answer for (t, a, b) against the byte-wise
/// references, including the Distance words themselves.
void expectMatchesReference(const NodeId& t, const NodeId& a,
                            const NodeId& b) {
  const int want = refCompareDistance(t, a, b);
  EXPECT_EQ(compareDistance(t, a, b), want) << t.toHex() << " " << a.toHex()
                                            << " " << b.toHex();
  EXPECT_EQ(closerTo(t, a, b), want < 0);
  EXPECT_EQ(distance(t, a) < distance(t, b), want < 0);
  EXPECT_EQ(distance(t, a) == distance(t, b), want == 0);
  EXPECT_EQ(bucketIndex(t, a), refBucketIndex(t, a));
  const NodeId x = xorDistance(t, a);
  Distance words;
  for (usize i = 0; i < 8; ++i) words.hi = (words.hi << 8) | x.bytes[i];
  for (usize i = 8; i < 16; ++i) words.mid = (words.mid << 8) | x.bytes[i];
  for (usize i = 16; i < 20; ++i) {
    words.lo = static_cast<u32>((words.lo << 8) | x.bytes[i]);
  }
  EXPECT_EQ(distance(t, a), words);
}

TEST(NodeId, DistanceMatchesByteOrder) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const NodeId t = NodeId::random(rng);
    const NodeId a = NodeId::random(rng);
    const NodeId b = NodeId::random(rng);
    expectMatchesReference(t, a, b);
    expectMatchesReference(t, a, a);
    expectMatchesReference(t, t, a);
  }
  // Ids that differ in one byte only: every word boundary (7|8, 15|16) and
  // both ends, with the differing bits high, low and mixed.
  const u8 flips[] = {0x01, 0x80, 0x7f, 0xff, 0x10};
  for (usize byte : {usize{0}, usize{7}, usize{8}, usize{15}, usize{16},
                     usize{19}}) {
    for (u8 flip : flips) {
      for (int rep = 0; rep < 20; ++rep) {
        const NodeId t = NodeId::random(rng);
        const NodeId a = NodeId::random(rng);
        NodeId b = a;
        b.bytes[byte] ^= flip;
        expectMatchesReference(t, a, b);
        expectMatchesReference(t, b, a);
        expectMatchesReference(a, a, b);  // target equal to one of them
      }
    }
  }
  // One id nearer in a high word, the other in a low word: word order
  // decides.
  NodeId t = NodeId::zero();
  NodeId highBit = NodeId::zero();
  highBit.bytes[0] = 0x01;
  NodeId lowBits = NodeId::zero();
  for (usize i = 1; i < 20; ++i) lowBits.bytes[i] = 0xff;
  EXPECT_GT(compareDistance(t, highBit, lowBits), 0);
  NodeId midBit = NodeId::zero();
  midBit.bytes[8] = 0x01;
  NodeId lowWord = NodeId::zero();
  for (usize i = 16; i < 20; ++i) lowWord.bytes[i] = 0xff;
  EXPECT_GT(compareDistance(t, midBit, lowWord), 0);
  expectMatchesReference(t, highBit, lowBits);
  expectMatchesReference(t, midBit, lowWord);
}

TEST(NodeId, RandomIdsDistinct) {
  Rng rng(6);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(NodeId::random(rng).toHex());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(NodeId, HashFunctor) {
  Rng rng(7);
  NodeIdHash h;
  NodeId a = NodeId::random(rng);
  NodeId b = a;
  EXPECT_EQ(h(a), h(b));
}

TEST(NodeId, ShortHexPrefix) {
  NodeId id = NodeId::fromString("abc");
  EXPECT_EQ(id.shortHex(), id.toHex().substr(0, 8));
}

}  // namespace
}  // namespace dharma::dht
