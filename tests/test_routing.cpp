/// Unit tests for the Kademlia routing table (dht/routing_table.hpp).

#include "dht/routing_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dharma::dht {
namespace {

Contact mk(u32 n) {
  Contact c;
  c.id = NodeId::fromString("rt-contact-" + std::to_string(n));
  c.addr = n;
  return c;
}

TEST(RoutingTable, IgnoresSelf) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self);
  Contact c;
  c.id = self;
  c.addr = 1;
  rt.touch(c);
  EXPECT_EQ(rt.size(), 0u);
  EXPECT_FALSE(rt.contains(self));
}

TEST(RoutingTable, InsertAndContains) {
  RoutingTable rt(NodeId::fromString("self"));
  rt.touch(mk(1));
  EXPECT_TRUE(rt.contains(mk(1).id));
  EXPECT_FALSE(rt.contains(mk(2).id));
  EXPECT_EQ(rt.size(), 1u);
}

TEST(RoutingTable, RemoveWorks) {
  RoutingTable rt(NodeId::fromString("self"));
  rt.touch(mk(1));
  EXPECT_TRUE(rt.remove(mk(1).id));
  EXPECT_FALSE(rt.contains(mk(1).id));
  EXPECT_FALSE(rt.remove(mk(1).id));
}

TEST(RoutingTable, ClosestOrdersByXorDistance) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self);
  for (u32 i = 0; i < 200; ++i) rt.touch(mk(i));
  NodeId target = NodeId::fromString("target");
  auto closest = rt.closest(target, 20);
  ASSERT_EQ(closest.size(), 20u);
  for (usize i = 1; i < closest.size(); ++i) {
    EXPECT_LE(compareDistance(target, closest[i - 1].id, closest[i].id), 0);
  }
}

TEST(RoutingTable, ClosestIsGloballyBestWithRoomyBuckets) {
  // With buckets large enough that no contact is dropped, the head of
  // closest() must be the globally nearest inserted contact. (With default
  // capacity, far buckets overflow and drop contacts — by design.)
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, /*bucketCap=*/256);
  for (u32 i = 0; i < 200; ++i) rt.touch(mk(i));
  ASSERT_EQ(rt.size(), 200u);
  NodeId target = NodeId::fromString("target");
  auto closest = rt.closest(target, 20);
  ASSERT_FALSE(closest.empty());
  Contact best = closest[0];
  for (u32 i = 0; i < 200; ++i) {
    EXPECT_LE(compareDistance(target, best.id, mk(i).id), 0);
  }
}

TEST(RoutingTable, ClosestFewerThanRequested) {
  RoutingTable rt(NodeId::fromString("self"));
  rt.touch(mk(1));
  rt.touch(mk(2));
  EXPECT_EQ(rt.closest(NodeId::fromString("t"), 20).size(), 2u);
}

TEST(RoutingTable, ClosestOnEmpty) {
  RoutingTable rt(NodeId::fromString("self"));
  EXPECT_TRUE(rt.closest(NodeId::fromString("t"), 5).empty());
}

TEST(RoutingTable, BucketCapacityEnforced) {
  // With bucket capacity 2, the total size is bounded by 2 * 160 and any
  // single bucket never exceeds 2.
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, 2);
  for (u32 i = 0; i < 1000; ++i) rt.touch(mk(i));
  for (usize b = 0; b < 160; ++b) {
    EXPECT_LE(rt.bucket(b).size(), 2u);
  }
}

TEST(RoutingTable, EvictionCandidatePerBucket) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, 1);
  // Find two contacts in the same bucket.
  Contact first = mk(1);
  rt.touch(first);
  int idx1 = bucketIndex(self, first.id);
  u32 n = 2;
  Contact second;
  while (true) {
    second = mk(n++);
    if (bucketIndex(self, second.id) == idx1) break;
  }
  EXPECT_EQ(rt.touch(second), BucketInsert::kFull);
  auto cand = rt.evictionCandidateFor(second);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->id, first.id);
  rt.replaceStalestWith(second);
  EXPECT_TRUE(rt.contains(second.id));
  EXPECT_FALSE(rt.contains(first.id));
}

TEST(RoutingTable, NonEmptyBucketsCounts) {
  RoutingTable rt(NodeId::fromString("self"));
  EXPECT_EQ(rt.nonEmptyBuckets(), 0u);
  rt.touch(mk(1));
  EXPECT_GE(rt.nonEmptyBuckets(), 1u);
}

/// Reference k-closest: every contact, fully sorted by XOR distance.
std::vector<Contact> bruteClosest(const RoutingTable& rt, const NodeId& target,
                                  usize n) {
  std::vector<Contact> all;
  for (usize b = 0; b < 160; ++b) {
    const auto& e = rt.bucket(b).entries();
    all.insert(all.end(), e.begin(), e.end());
  }
  std::sort(all.begin(), all.end(), [&](const Contact& a, const Contact& b) {
    return compareDistance(target, a.id, b.id) < 0;
  });
  all.resize(std::min(n, all.size()));
  return all;
}

TEST(RoutingTable, ClosestMatchesBruteForce) {
  Rng rng(2024);
  for (usize cap : {usize{1}, usize{2}, usize{20}, usize{256}}) {
    for (int table = 0; table < 6; ++table) {
      RoutingTable rt(NodeId::random(rng), cap);
      // Uniform ids fill the top buckets; ids drawn per bucket populate the
      // low ones too, so targets near self see a non-trivial lower group.
      const usize contacts = 20 + rng.next() % 300;
      for (usize i = 0; i < contacts; ++i) {
        Contact c;
        c.id = i % 2 == 0
                   ? NodeId::random(rng)
                   : rt.randomIdInBucket(rng.next() % 160, rng);
        c.addr = static_cast<net::Address>(i + 1);
        rt.touch(c);
      }
      std::vector<NodeId> targets = {rt.self()};
      for (usize b = 0; b < 160; ++b) {
        const auto& e = rt.bucket(b).entries();
        if (e.empty()) continue;
        targets.push_back(e.front().id);                // a contact itself
        targets.push_back(rt.randomIdInBucket(b, rng));  // inside bucket b
      }
      for (int i = 0; i < 20; ++i) targets.push_back(NodeId::random(rng));

      const usize size = rt.size();
      const usize ns[] = {0, 1, 2, 3, 7, 20, size > 0 ? size - 1 : 0, size,
                          size + 1, size + 50};
      for (const NodeId& t : targets) {
        for (usize n : ns) {
          const auto got = rt.closest(t, n);
          const auto want = bruteClosest(rt, t, n);
          ASSERT_EQ(got.size(), want.size()) << "cap " << cap << " n " << n;
          for (usize i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "cap " << cap << " n " << n << " rank " << i
                << " target " << t.toHex();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dharma::dht
