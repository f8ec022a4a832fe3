/// Churn regression suite: the maintenance subsystem (bucket refresh,
/// replica republish, storage expiry), the scripted churn driver, and
/// regression tests for the four DHT-layer bugfixes (reply sender
/// matching, pinned eviction, fail-fast on send rejection, mergeMax
/// re-trim + kIncrementIfNewB zero-delta).

#include "dht/dht_network.hpp"
#include "workload/churn.hpp"

#include <algorithm>

#include <gtest/gtest.h>

namespace dharma::dht {
namespace {

DhtNetworkConfig smallConfig(usize nodes = 16, u64 seed = 42) {
  DhtNetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.latency = "constant";
  cfg.constantLatencyUs = 10000;
  return cfg;
}

StoreToken inc(const std::string& entry, u64 delta = 1) {
  return StoreToken{TokenKind::kIncrement, entry, delta, {}};
}

/// Short timers so maintenance acts within a few simulated seconds.
MaintenanceConfig fastMaintenance() {
  MaintenanceConfig m;
  m.bucketRefreshIntervalUs = 5'000'000;
  m.republishIntervalUs = 10'000'000;
  m.expiryTtlUs = 120'000'000;
  m.expiryCheckIntervalUs = 5'000'000;
  return m;
}

// ---------------------------------------------------------------------------
// Churn schedule generation
// ---------------------------------------------------------------------------

TEST(ChurnSchedule, DeterministicForFixedSeed) {
  wl::ChurnConfig cfg;
  cfg.crashFraction = 0.25;
  cfg.waves = 3;
  cfg.freshJoins = 4;
  cfg.reviveAfterUs = 30'000'000;
  cfg.seed = 7;
  auto a = wl::makeChurnSchedule(cfg, 40);
  auto b = wl::makeChurnSchedule(cfg, 40);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (usize i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].atUs, b.events[i].atUs);
    EXPECT_EQ(a.events[i].action, b.events[i].action);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
  }
  cfg.seed = 8;
  auto c = wl::makeChurnSchedule(cfg, 40);
  bool identical = a.events.size() == c.events.size();
  if (identical) {
    for (usize i = 0; i < a.events.size(); ++i) {
      identical = identical && a.events[i].node == c.events[i].node;
    }
  }
  EXPECT_FALSE(identical);
}

TEST(ChurnSchedule, WavesCrashDisjointNodesAndSpareSeed) {
  wl::ChurnConfig cfg;
  cfg.crashFraction = 0.2;
  cfg.waves = 2;
  cfg.firstCrashAtUs = 1'000'000;
  cfg.waveSpacingUs = 1'000'000;
  cfg.seed = 11;
  auto s = wl::makeChurnSchedule(cfg, 50);
  std::vector<usize> crashed;
  for (const auto& e : s.events) {
    ASSERT_EQ(e.action, ChurnAction::kCrash);
    EXPECT_NE(e.node, 0u);  // spareNodeZero
    EXPECT_LT(e.node, 50u);
    crashed.push_back(e.node);
  }
  // Wave 1: 20% of 50 = 10; wave 2: 20% of the surviving 40 = 8.
  EXPECT_EQ(crashed.size(), 18u);
  std::sort(crashed.begin(), crashed.end());
  EXPECT_TRUE(std::adjacent_find(crashed.begin(), crashed.end()) ==
              crashed.end());
  // Sorted by time.
  for (usize i = 1; i < s.events.size(); ++i) {
    EXPECT_LE(s.events[i - 1].atUs, s.events[i].atUs);
  }
}

TEST(ChurnSchedule, RevivesAndJoinsScheduled) {
  wl::ChurnConfig cfg;
  cfg.crashFraction = 0.5;
  cfg.waves = 1;
  cfg.firstCrashAtUs = 2'000'000;
  cfg.reviveAfterUs = 3'000'000;
  cfg.freshJoins = 3;
  cfg.joinStartUs = 1'000'000;
  cfg.joinSpacingUs = 500'000;
  auto s = wl::makeChurnSchedule(cfg, 10);
  usize crashes = 0, revives = 0, joins = 0;
  for (const auto& e : s.events) {
    switch (e.action) {
      case ChurnAction::kCrash: ++crashes; break;
      case ChurnAction::kRevive:
        ++revives;
        EXPECT_EQ(e.atUs, 5'000'000u);
        break;
      case ChurnAction::kJoin: ++joins; break;
    }
  }
  EXPECT_EQ(crashes, 5u);
  EXPECT_EQ(revives, 5u);
  EXPECT_EQ(joins, 3u);
}

// ---------------------------------------------------------------------------
// Churn driver + maintenance integration
// ---------------------------------------------------------------------------

TEST(Churn, FreshJoinsConverge) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  NodeId key = NodeId::fromString("pre-join-block");
  ASSERT_GE(net.putBlocking(1, key, inc("x", 5)), 1u);

  wl::ChurnConfig cfg;
  cfg.waves = 0;
  cfg.freshJoins = 2;
  cfg.joinStartUs = net.sim().now() + 1'000'000;
  cfg.joinSpacingUs = 1'000'000;
  net.scheduleChurn(wl::makeChurnSchedule(cfg, net.size()));
  net.runFor(30'000'000);

  ASSERT_EQ(net.size(), 18u);
  for (usize i = 16; i < 18; ++i) {
    EXPECT_TRUE(net.isOnline(i));
    EXPECT_GE(net.node(i).routing().size(), 4u) << "join " << i;
  }
  auto view = net.getBlocking(17, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("x"), 5u);
}

TEST(Churn, SurvivorsServeAfterCrashWaveWithMaintenance) {
  // The ISSUE scenario: crash 20% of a bootstrapped overlay and assert
  // gets on surviving replicas still succeed with maintenance on.
  auto cfg = smallConfig(32, 5);
  cfg.node.kStore = 4;
  DhtNetwork net(cfg);
  net.bootstrap();
  std::vector<NodeId> keys;
  for (int i = 0; i < 10; ++i) {
    NodeId key = NodeId::fromString("churny-" + std::to_string(i));
    keys.push_back(key);
    ASSERT_GE(net.putBlocking(static_cast<usize>(1 + i % 31), key,
                              inc("alpha", 3)),
              1u);
  }
  net.enableMaintenance(fastMaintenance());
  wl::ChurnConfig ccfg;
  ccfg.crashFraction = 0.2;
  ccfg.waves = 1;
  ccfg.firstCrashAtUs = net.sim().now() + 5'000'000;
  ccfg.seed = 5;
  net.scheduleChurn(wl::makeChurnSchedule(ccfg, net.size()));
  net.runFor(30'000'000);  // crash + >2 republish cycles

  EXPECT_EQ(net.onlineCount(), 32u - 6u);
  for (const auto& key : keys) {
    auto view = net.getBlocking(0, key);
    ASSERT_TRUE(view.has_value()) << key.shortHex();
    EXPECT_EQ(view->weightOf("alpha"), 3u);
  }
}

TEST(Maintenance, BucketRefreshRunsAndPurgesDeadContacts) {
  DhtNetwork net(smallConfig(16, 3));
  net.bootstrap();
  net.enableMaintenance(fastMaintenance());
  net.setOnline(3, false);
  NodeId victim = net.node(3).id();
  net.runFor(40'000'000);  // several refresh intervals

  u64 refreshes = 0;
  usize stillKnown = 0;
  for (usize i = 0; i < net.size(); ++i) {
    ASSERT_NE(net.maintenance(i), nullptr);
    refreshes += net.maintenance(i)->counters().refreshLookups;
    if (i != 3 && net.node(i).routing().contains(victim)) ++stillKnown;
  }
  EXPECT_GT(refreshes, 0u);
  // Refresh lookups route around (and time out on) the dead node, so most
  // survivors purge it; without maintenance nothing would.
  EXPECT_LT(stillKnown, 15u);
}

TEST(Maintenance, RepublishRestoresReplicationFactor) {
  auto cfg = smallConfig(32, 9);
  cfg.node.kStore = 4;
  DhtNetwork net(cfg);
  net.bootstrap();
  NodeId key = NodeId::fromString("replica-migration");
  ASSERT_GE(net.putBlocking(1, key, inc("x", 2)), 1u);

  std::vector<usize> holders;
  for (usize i = 0; i < net.size(); ++i) {
    if (net.node(i).store().has(key)) holders.push_back(i);
  }
  ASSERT_GE(holders.size(), 3u);
  // Crash half the replica set.
  for (usize i = 0; i < holders.size() / 2; ++i) {
    net.setOnline(holders[i], false);
  }
  net.enableMaintenance(fastMaintenance());
  net.runFor(25'000'000);  // > 2 republish intervals

  usize onlineHolders = 0;
  u64 republished = 0;
  for (usize i = 0; i < net.size(); ++i) {
    if (net.isOnline(i) && net.node(i).store().has(key)) ++onlineHolders;
    if (net.maintenance(i)) {
      republished += net.maintenance(i)->counters().blocksRepublished;
    }
  }
  EXPECT_GT(republished, 0u);
  // Surviving holders re-stored toward the current kStore-closest online
  // set, restoring the replication factor the crash halved.
  EXPECT_GE(onlineHolders, cfg.node.kStore);
  auto view = net.getBlocking(0, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("x"), 2u);
}

TEST(Maintenance, ExpiryDropsUntouchedBlocks) {
  DhtNetwork net(smallConfig(8, 2));
  net.bootstrap();
  NodeId key = NodeId::fromString("soft-state");
  ASSERT_TRUE(net.node(1).store().apply(key, inc("x"), net.sim().now()));

  MaintenanceConfig m;
  m.bucketRefreshIntervalUs = 0;  // isolate the expiry timer
  m.republishIntervalUs = 0;
  m.expiryTtlUs = 20'000'000;
  m.expiryCheckIntervalUs = 5'000'000;
  net.enableMaintenance(m);
  net.runFor(60'000'000);

  EXPECT_FALSE(net.node(1).store().has(key));
  ASSERT_NE(net.maintenance(1), nullptr);
  EXPECT_GE(net.maintenance(1)->counters().blocksExpired, 1u);
}

TEST(Maintenance, RepublishKeepsLiveBlocksPastTtl) {
  auto cfg = smallConfig(16, 4);
  cfg.node.kStore = 4;
  DhtNetwork net(cfg);
  net.bootstrap();
  NodeId key = NodeId::fromString("kept-alive");
  ASSERT_GE(net.putBlocking(1, key, inc("x", 9)), 1u);

  MaintenanceConfig m = fastMaintenance();
  m.expiryTtlUs = 30'000'000;  // 3x the republish interval
  net.enableMaintenance(m);
  net.runFor(90'000'000);  // 3x the TTL

  // Republish keeps touching the replicas, so the block outlives its TTL.
  auto view = net.getBlocking(0, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("x"), 9u);
}

TEST(Churn, DeterministicAcrossRuns) {
  auto run = [] {
    auto cfg = smallConfig(16, 21);
    DhtNetwork net(cfg);
    net.bootstrap();
    net.putBlocking(1, NodeId::fromString("det-churn"), inc("x", 1));
    net.enableMaintenance(fastMaintenance());
    wl::ChurnConfig ccfg;
    ccfg.crashFraction = 0.2;
    ccfg.waves = 1;
    ccfg.firstCrashAtUs = net.sim().now() + 2'000'000;
    ccfg.freshJoins = 1;
    ccfg.joinStartUs = net.sim().now() + 4'000'000;
    ccfg.seed = 21;
    net.scheduleChurn(wl::makeChurnSchedule(ccfg, net.size()));
    net.runFor(30'000'000);
    return std::make_pair(net.totalRpcsSent(), net.sim().executed());
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Bugfix regressions
// ---------------------------------------------------------------------------

TEST(Bugfix, ReplyFromWrongSenderIsDropped) {
  DhtNetwork net(smallConfig(3));
  // No bootstrap: node 0's first RPC deterministically uses rpcId 1.
  bool done = false, ok = false;
  net.node(0).ping(net.node(1).contact(), [&](bool r) {
    ok = r;
    done = true;
  });
  // Node 2 echoes the pending rpcId before the real pong arrives. With
  // rpcId-only matching this would resolve node 0's RPC; it must not.
  Envelope forged;
  forged.type = RpcType::kPong;
  forged.rpcId = 1;
  forged.sender = net.node(2).contact();
  forged.credential = net.cs().enroll("user-2");
  net.network().send(net.node(2).address(), net.node(0).address(),
                     forged.encode());
  while (!done && net.sim().step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(ok);  // the genuine pong still resolves the RPC
  EXPECT_EQ(net.node(0).counters().replySenderMismatches, 1u);
}

TEST(Bugfix, PinnedEvictionReplacesOnlyThePingedContact) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, 2);
  // Three contacts in one bucket: a (stalest), b, and newcomer c.
  auto mk = [](u32 n) {
    Contact c;
    c.id = NodeId::fromString("pin-" + std::to_string(n));
    c.addr = n;
    return c;
  };
  Contact a = mk(1);
  rt.touch(a);
  int idx = bucketIndex(self, a.id);
  u32 n = 2;
  Contact b, c;
  while (true) {
    b = mk(n++);
    if (bucketIndex(self, b.id) == idx) break;
  }
  while (true) {
    c = mk(n++);
    if (bucketIndex(self, c.id) == idx) break;
  }
  ASSERT_EQ(rt.touch(b), BucketInsert::kInserted);

  // The bucket reordered after the ping was issued: a was refreshed and b
  // is now stalest. Pinned replacement must still evict a, not b.
  rt.touch(a);
  EXPECT_TRUE(rt.replaceContact(a.id, c));
  EXPECT_FALSE(rt.contains(a.id));
  EXPECT_TRUE(rt.contains(b.id));
  EXPECT_TRUE(rt.contains(c.id));
}

TEST(Bugfix, PinnedEvictionDoesNotDisplaceLiveContactsWhenVictimGone) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, 2);
  auto mk = [](u32 n) {
    Contact c;
    c.id = NodeId::fromString("gone-" + std::to_string(n));
    c.addr = n;
    return c;
  };
  Contact a = mk(1);
  rt.touch(a);
  int idx = bucketIndex(self, a.id);
  u32 n = 2;
  Contact b, c, d;
  auto next = [&] {
    while (true) {
      Contact x = mk(n++);
      if (bucketIndex(self, x.id) == idx) return x;
    }
  };
  b = next();
  c = next();
  d = next();
  rt.touch(b);

  // The RPC-timeout path already removed the pinged victim a, leaving room:
  // the failed-ping callback just inserts the newcomer.
  rt.remove(a.id);
  EXPECT_TRUE(rt.replaceContact(a.id, c));
  EXPECT_TRUE(rt.contains(b.id));
  EXPECT_TRUE(rt.contains(c.id));

  // Victim gone AND the bucket refilled ({b, c}): the newcomer must NOT
  // displace a live contact that was never probed (the original bug).
  EXPECT_FALSE(rt.replaceContact(a.id, d));
  EXPECT_FALSE(rt.contains(d.id));
  EXPECT_TRUE(rt.contains(b.id));
  EXPECT_TRUE(rt.contains(c.id));
}

TEST(Bugfix, PutQuorumMissesAreCountedNotDropped) {
  // KademliaNode::put's replica count used to be dropped at every call
  // site, so a PUT landing on fewer than kStore replicas was invisible.
  // The node now counts the miss AND reports it in PutResult.
  auto cfg = smallConfig(16, 31);
  cfg.node.kStore = 4;
  DhtNetwork net(cfg);
  net.bootstrap();

  // Healthy overlay: full replication, no misses.
  PutResult healthy = net.putResult(1, NodeId::fromString("q-healthy"),
                                    inc("x", 1));
  EXPECT_EQ(healthy.acks, 4u);
  EXPECT_EQ(healthy.targets, 4u);
  EXPECT_TRUE(healthy.fullyReplicated());
  u64 before = 0;
  for (usize i = 0; i < net.size(); ++i) {
    before += net.node(i).counters().putQuorumFailures;
  }
  EXPECT_EQ(before, 0u);

  // Crash all but 3 nodes: the publisher can only find 3 responsive
  // replica targets — an under-replicated PUT whatever the key.
  for (usize i = 3; i < 16; ++i) net.setOnline(i, false);
  PutResult starved = net.putResult(0, NodeId::fromString("q-starved"),
                                    inc("x", 1));
  EXPECT_LT(starved.acks, 4u);
  EXPECT_FALSE(starved.fullyReplicated());
  EXPECT_GE(net.node(0).counters().putQuorumFailures, 1u);
}

TEST(Bugfix, OversizeStoreFailsFastInsteadOfTimingOut) {
  auto cfg = smallConfig(16);
  DhtNetwork net(cfg);
  net.bootstrap();
  // One token bigger than the MTU: unsplittable, the datagram is rejected
  // synchronously. The RPC must fail immediately, not after rpcTimeoutUs.
  std::string giant(2 * net.network().config().mtuBytes, 'g');
  net::SimTime t0 = net.sim().now();
  u32 acks = net.putManyBlocking(1, NodeId::fromString("oversize"),
                                 {inc(giant, 1)});
  net::SimTime elapsed = net.sim().now() - t0;
  EXPECT_LT(elapsed, cfg.node.rpcTimeoutUs);
  EXPECT_GE(net.node(1).counters().sendRejects, 1u);
  // Only a local self-replica (no datagram involved) can have acked.
  EXPECT_LE(acks, 1u);
}

TEST(Bugfix, MergeMaxReTrimsToTopN) {
  BlockView a;
  a.entries = {{"x", 9}, {"y", 8}, {"z", 7}};
  a.totalEntries = 3;
  BlockView b;
  b.entries = {{"p", 10}, {"q", 6}};
  b.totalEntries = 2;
  BlockView merged = a;
  merged.mergeMax(b, 3);
  ASSERT_EQ(merged.entries.size(), 3u);  // not 5: the cap is re-applied
  EXPECT_TRUE(merged.truncated);
  EXPECT_EQ(merged.entries[0].name, "p");
  EXPECT_EQ(merged.entries[1].name, "x");
  EXPECT_EQ(merged.entries[2].name, "y");

  BlockView unlimited = a;
  unlimited.mergeMax(b);  // topN = 0 keeps the full union
  EXPECT_EQ(unlimited.entries.size(), 5u);
  EXPECT_FALSE(unlimited.truncated);
}

TEST(Bugfix, IncrementIfNewBRejectsZeroDeltaOnPresentPath) {
  BlockStore s;
  NodeId k = NodeId::fromString("icb");
  StoreToken t{TokenKind::kIncrementIfNewB, "e", 0, {}};
  // Absent-path: delta is unused, the entry is created at weight 1.
  EXPECT_TRUE(s.apply(k, t, 0));
  u64 applied = s.tokensApplied();
  // Present-path: delta == 0 is a malformed increment, like kIncrement.
  EXPECT_FALSE(s.apply(k, t, 0));
  EXPECT_EQ(s.tokensApplied(), applied);
  EXPECT_EQ(s.query(k, {})->weightOf("e"), 1u);
}

// ---------------------------------------------------------------------------
// Storage: replication tokens + soft-state expiry
// ---------------------------------------------------------------------------

TEST(Storage, MergeMaxTokenIsIdempotentAndMonotone) {
  BlockStore s;
  NodeId k = NodeId::fromString("mm");
  EXPECT_TRUE(s.apply(k, StoreToken{TokenKind::kMergeMax, "e", 7, {}}, 0));
  EXPECT_TRUE(s.apply(k, StoreToken{TokenKind::kMergeMax, "e", 7, {}}, 0));
  EXPECT_EQ(s.query(k, {})->weightOf("e"), 7u);  // not 14: idempotent
  EXPECT_TRUE(s.apply(k, StoreToken{TokenKind::kMergeMax, "e", 5, {}}, 0));
  EXPECT_EQ(s.query(k, {})->weightOf("e"), 7u);  // never decreases
  EXPECT_TRUE(s.apply(k, StoreToken{TokenKind::kMergeMax, "e", 9, {}}, 0));
  EXPECT_EQ(s.query(k, {})->weightOf("e"), 9u);
  EXPECT_FALSE(s.apply(k, StoreToken{TokenKind::kMergeMax, "", 1, {}}, 0));
  EXPECT_FALSE(s.apply(k, StoreToken{TokenKind::kMergeMax, "e", 0, {}}, 0));
}

TEST(Storage, ApplyAllIsAtomic) {
  // The STORE path applies chunks through applyAll: a rejected token must
  // leave NO partial state, or the replay dedup would let a retry
  // double-apply the batch's valid increments.
  BlockStore s;
  NodeId k = NodeId::fromString("atomic");
  EXPECT_TRUE(s.apply(k, inc("seed", 2), 0));
  u64 before = s.tokensApplied();
  EXPECT_FALSE(s.applyAll(
      k, {inc("seed", 5), StoreToken{TokenKind::kIncrement, "", 1, {}}}, 0));
  EXPECT_EQ(s.query(k, {})->weightOf("seed"), 2u);  // rolled back
  EXPECT_EQ(s.tokensApplied(), before);

  // A rejected batch on a fresh key must not create the block.
  NodeId k2 = NodeId::fromString("atomic-fresh");
  EXPECT_FALSE(s.applyAll(k2, {inc("a", 1), inc("", 1)}, 0));
  EXPECT_FALSE(s.has(k2));
  EXPECT_TRUE(s.applyAll(k2, {inc("a", 1), inc("b", 2)}, 7'000));
  EXPECT_EQ(s.query(k2, {})->weightOf("b"), 2u);
  EXPECT_EQ(s.lastTouched(k2), 7'000u);
  EXPECT_FALSE(s.applyAll(k2, {}, 0));  // empty batches are rejected
}

StoreToken ifNewB(const std::string& entry, u64 delta) {
  return StoreToken{TokenKind::kIncrementIfNewB, entry, delta, {}};
}

TEST(Storage, ApplyAllRejectsIfNewBZeroAfterSameBatchCreate) {
  // A delta-0 conditional increment is valid only on an absent entry; an
  // entry created by an earlier token of the same batch is present.
  BlockStore s;
  NodeId k = NodeId::fromString("ifnewb-batch");
  EXPECT_FALSE(s.applyAll(k, {ifNewB("x", 0), ifNewB("x", 0)}, 0));
  EXPECT_FALSE(s.applyAll(k, {inc("x", 1), ifNewB("x", 0)}, 0));
  EXPECT_FALSE(s.applyAll(
      k, {StoreToken{TokenKind::kMergeMax, "x", 4, {}}, ifNewB("x", 0)}, 0));
  EXPECT_FALSE(s.has(k));
  EXPECT_EQ(s.tokensApplied(), 0u);
  // Other entries, or a non-zero delta, are fine.
  EXPECT_TRUE(s.applyAll(k, {ifNewB("x", 0), ifNewB("y", 0), ifNewB("x", 3)},
                         0));
  EXPECT_EQ(s.query(k, {})->weightOf("x"), 4u);
  EXPECT_EQ(s.query(k, {})->weightOf("y"), 1u);
  // And an entry that existed before the batch.
  EXPECT_FALSE(s.applyAll(k, {ifNewB("z", 0), ifNewB("y", 0)}, 0));
  EXPECT_EQ(s.query(k, {})->weightOf("z"), 0u);
}

TEST(Storage, ApplyAllRejectLeavesPayloadAndLastTouched) {
  BlockStore s;
  NodeId k = NodeId::fromString("reject-keeps-block");
  EXPECT_TRUE(s.applyAll(
      k, {StoreToken{TokenKind::kSetPayload, "", 1, "uri://old"}, inc("a", 2)},
      5'000));
  const u64 before = s.tokensApplied();
  EXPECT_FALSE(s.applyAll(
      k, {StoreToken{TokenKind::kSetPayload, "", 1, "uri://new"},
          StoreToken{TokenKind::kTouch, "", 1, {}}, inc("a", 1), inc("", 1)},
      9'000));
  EXPECT_FALSE(s.applyAll(
      k, {StoreToken{TokenKind::kSetPayload, "", 1, "uri://new"},
          ifNewB("a", 0)},
      9'000));
  EXPECT_EQ(s.query(k, {})->payload, "uri://old");
  EXPECT_EQ(s.query(k, {})->weightOf("a"), 2u);
  EXPECT_EQ(s.lastTouched(k), 5'000u);
  EXPECT_EQ(s.tokensApplied(), before);
}

TEST(Storage, ApplyAllMixedBatchOnFreshKeyLeavesNoBlock) {
  BlockStore s;
  NodeId k = NodeId::fromString("mixed-fresh");
  EXPECT_FALSE(s.applyAll(
      k, {StoreToken{TokenKind::kTouch, "", 1, {}},
          StoreToken{TokenKind::kSetPayload, "", 1, "uri://p"},
          StoreToken{TokenKind::kMergeMax, "m", 3, {}}, ifNewB("n", 0),
          inc("i", 2), StoreToken{TokenKind::kMergeMax, "bad", 0, {}}},
      1'000));
  EXPECT_FALSE(s.has(k));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.tokensApplied(), 0u);
}

TEST(Storage, ExpireDropsBlocksByLastTouched) {
  BlockStore s;
  NodeId oldKey = NodeId::fromString("old");
  NodeId newKey = NodeId::fromString("new");
  EXPECT_TRUE(s.apply(oldKey, inc("a"), 10'000));
  EXPECT_TRUE(s.apply(newKey, inc("b"), 50'000));
  EXPECT_EQ(s.lastTouched(oldKey), 10'000u);
  EXPECT_EQ(s.expire(5'000), 0u);
  EXPECT_EQ(s.expire(20'000), 1u);
  EXPECT_FALSE(s.has(oldKey));
  EXPECT_TRUE(s.has(newKey));
  // A later touch refreshes the stamp.
  EXPECT_TRUE(s.apply(newKey, inc("b"), 80'000));
  EXPECT_EQ(s.lastTouched(newKey), 80'000u);
  EXPECT_EQ(s.expire(60'000), 0u);
}

}  // namespace
}  // namespace dharma::dht
