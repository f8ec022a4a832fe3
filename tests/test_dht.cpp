/// Integration tests for the full Kademlia/Likir overlay (dht/*).

#include "dht/dht_network.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <tuple>

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

TEST(Dht, BootstrapPopulatesRoutingTables) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  for (usize i = 0; i < net.size(); ++i) {
    EXPECT_GE(net.node(i).routing().size(), 4u) << "node " << i;
  }
}

TEST(Dht, PutGetRoundtrip) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  NodeId key = NodeId::fromString("some-block");
  EXPECT_GE(net.putBlocking(1, key, inc("rock", 3)), 1u);
  auto view = net.getBlocking(5, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("rock"), 3u);
}

TEST(Dht, GetMissingKeyIsNullopt) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  EXPECT_FALSE(net.getBlocking(0, NodeId::fromString("never-stored")).has_value());
}

TEST(Dht, TokensAccumulateAcrossWriters) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  NodeId key = NodeId::fromString("shared-block");
  net.putBlocking(1, key, inc("tag", 1));
  net.putBlocking(2, key, inc("tag", 1));
  net.putBlocking(3, key, inc("other", 5));
  auto view = net.getBlocking(4, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("tag"), 2u);
  EXPECT_EQ(view->weightOf("other"), 5u);
}

TEST(Dht, ReplicationOnKStoreClosest) {
  auto cfg = smallConfig(32);
  cfg.node.kStore = 8;
  DhtNetwork net(cfg);
  net.bootstrap();
  NodeId key = NodeId::fromString("replicated");
  u32 acks = net.putBlocking(0, key, inc("x", 1));
  EXPECT_EQ(acks, 8u);
  usize holders = 0;
  for (usize i = 0; i < net.size(); ++i) {
    if (net.node(i).store().has(key)) ++holders;
  }
  EXPECT_EQ(holders, 8u);
}

TEST(Dht, LookupCounterIsPaperUnit) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  u64 before = net.node(3).counters().lookups;
  NodeId key = NodeId::fromString("counted");
  net.putBlocking(3, key, inc("a", 1));
  EXPECT_EQ(net.node(3).counters().lookups, before + 1);  // PUT = 1 lookup
  net.getBlocking(3, key);
  EXPECT_EQ(net.node(3).counters().lookups, before + 2);  // GET = 1 lookup
}

TEST(Dht, LookupQueriesEachPeerOnce) {
  // A contact named by several replies is one shortlist entry, so a lookup
  // sends each peer at most one FIND_NODE. With 16 nodes and k = 20 no
  // bucket is ever full, so no eviction pings ride along.
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  for (int t = 0; t < 8; ++t) {
    std::vector<u64> before(net.size());
    for (usize i = 0; i < net.size(); ++i) {
      before[i] = net.node(i).counters().rpcsReceived;
    }
    const NodeId target = NodeId::fromString("once-" + std::to_string(t));
    LookupResult res = net.await<LookupResult>(
        [&](std::function<void(LookupResult)> done) {
          net.node(0).findNode(target, std::move(done));
        });
    net.runFor(5'000'000);  // late replies and stragglers land
    u64 queried = 0;
    for (usize i = 1; i < net.size(); ++i) {
      const u64 got = net.node(i).counters().rpcsReceived - before[i];
      EXPECT_LE(got, 1u) << "node " << i << " queried twice, lookup " << t;
      queried += got;
    }
    EXPECT_EQ(queried, res.messagesSent);
    std::set<NodeId> ids;
    for (const Contact& c : res.closest) ids.insert(c.id);
    EXPECT_EQ(ids.size(), res.closest.size());
    for (usize i = 1; i < res.closest.size(); ++i) {
      EXPECT_LT(compareDistance(target, res.closest[i - 1].id,
                                res.closest[i].id),
                0);
    }
  }
}

TEST(Dht, PutManyIsSingleLookup) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  u64 before = net.node(2).counters().lookups;
  std::vector<StoreToken> batch;
  for (int i = 0; i < 40; ++i) batch.push_back(inc("e" + std::to_string(i), 1));
  u32 acks = net.putManyBlocking(2, NodeId::fromString("batched"), batch);
  EXPECT_GE(acks, 1u);
  EXPECT_EQ(net.node(2).counters().lookups, before + 1);
  auto view = net.getBlocking(7, NodeId::fromString("batched"));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->totalEntries, 40u);
}

TEST(Dht, LargeBatchSplitsAcrossMtu) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  // ~200 tokens with long names: far beyond one 1400-byte datagram.
  std::vector<StoreToken> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back(inc("very-long-tag-name-padding-padding-" + std::to_string(i), 1));
  }
  u64 before = net.node(1).counters().lookups;
  u32 acks = net.putManyBlocking(1, NodeId::fromString("big"), batch);
  EXPECT_GE(acks, 1u);
  EXPECT_EQ(net.node(1).counters().lookups, before + 1);  // still one lookup
  EXPECT_EQ(net.network().stats().droppedOversize, 0u);   // fragmentation worked
  auto view = net.getBlocking(9, NodeId::fromString("big"), GetOptions{0, 100000});
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->totalEntries, 200u);
}

TEST(Dht, IndexSideFilteringTopN) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  NodeId key = NodeId::fromString("filtered");
  std::vector<StoreToken> batch;
  for (int i = 1; i <= 50; ++i) {
    batch.push_back(inc("t" + std::to_string(i), static_cast<u64>(i)));
  }
  net.putManyBlocking(0, key, batch);
  GetOptions opt;
  opt.topN = 5;
  auto view = net.getBlocking(3, key, opt);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->entries.size(), 5u);
  EXPECT_TRUE(view->truncated);
  EXPECT_EQ(view->entries[0].name, "t50");  // heaviest survive
}

TEST(Dht, ResponderNeverExceedsMtu) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  NodeId key = NodeId::fromString("huge-block");
  std::vector<StoreToken> batch;
  for (int i = 0; i < 500; ++i) {
    batch.push_back(inc("padded-tag-name-entry-" + std::to_string(i), 1));
  }
  net.putManyBlocking(0, key, batch);
  // Unfiltered GET from a node that does NOT hold a replica (a local read
  // is not payload-constrained): the index must trim the reply to fit the
  // MTU instead of producing an oversize datagram.
  usize reader = net.size();
  for (usize i = 0; i < net.size(); ++i) {
    if (!net.node(i).store().has(key)) {
      reader = i;
      break;
    }
  }
  ASSERT_LT(reader, net.size());
  auto view = net.getBlocking(reader, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->truncated);
  EXPECT_LT(view->entries.size(), 500u);
  EXPECT_EQ(net.network().stats().droppedOversize, 0u);
}

TEST(Dht, SurvivesReplicaChurn) {
  auto cfg = smallConfig(32);
  cfg.node.kStore = 8;
  DhtNetwork net(cfg);
  net.bootstrap();
  NodeId key = NodeId::fromString("churny");
  net.putBlocking(0, key, inc("x", 7));
  // Kill half the replicas.
  usize killed = 0;
  for (usize i = 1; i < net.size() && killed < 4; ++i) {
    if (net.node(i).store().has(key)) {
      net.setOnline(i, false);
      ++killed;
    }
  }
  ASSERT_EQ(killed, 4u);
  auto view = net.getBlocking(0, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("x"), 7u);
}

TEST(Dht, CredentialForgeryRejected) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  // Handcraft an envelope with a forged credential (wrong CS).
  crypto::CertificationService rogue("rogue-secret");
  Envelope e;
  e.type = RpcType::kPing;
  e.rpcId = 777;
  e.sender.id = NodeId::fromString("evil");
  e.sender.addr = net.node(1).address();
  e.credential = rogue.enroll("evil");
  u64 before = net.node(0).counters().credentialRejects;
  net.network().send(net.node(1).address(), net.node(0).address(), e.encode());
  net.sim().run();
  EXPECT_EQ(net.node(0).counters().credentialRejects, before + 1);
  EXPECT_FALSE(net.node(0).routing().contains(e.sender.id));
}

TEST(Dht, CredentialNodeIdBindingEnforced) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  // Valid credential, but claimed sender id differs from the bound id.
  Envelope e;
  e.type = RpcType::kPing;
  e.rpcId = 778;
  e.sender.id = NodeId::fromString("not-the-bound-id");
  e.sender.addr = net.node(1).address();
  e.credential = net.cs().enroll("user-1");
  u64 before = net.node(0).counters().credentialRejects;
  net.network().send(net.node(1).address(), net.node(0).address(), e.encode());
  net.sim().run();
  EXPECT_EQ(net.node(0).counters().credentialRejects, before + 1);
}

TEST(Dht, ForgedStoreRejected) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  NodeId key = NodeId::fromString("protected");
  StoreReq req;
  req.key = key;
  req.tokens.push_back(inc("spam", 100));
  // Signature from a rogue CS: receivers must refuse the token.
  crypto::CertificationService rogue("rogue");
  req.signature = rogue.signContent("user-1", key.toHex(), req.canonicalBatch());
  Envelope e;
  e.type = RpcType::kStore;
  e.rpcId = 900;
  e.sender = net.node(1).contact();
  e.credential = net.cs().enroll("user-1");
  e.body = req.encode();
  net.network().send(net.node(1).address(), net.node(0).address(), e.encode());
  net.sim().run();
  EXPECT_FALSE(net.node(0).store().has(key));
  EXPECT_GE(net.node(0).counters().storesRejectedAuth, 1u);
}

TEST(Dht, LossyNetworkStillConverges) {
  auto cfg = smallConfig(16, 7);
  cfg.net.lossRate = 0.05;
  cfg.node.rpcTimeoutUs = 100000;
  DhtNetwork net(cfg);
  net.bootstrap();
  NodeId key = NodeId::fromString("lossy");
  u32 acks = net.putBlocking(0, key, inc("x", 1));
  EXPECT_GE(acks, 1u);
  auto view = net.getBlocking(8, key);
  ASSERT_TRUE(view.has_value());
}

TEST(Dht, TimeoutsEvictDeadContacts) {
  DhtNetwork net(smallConfig(16));
  net.bootstrap();
  // Take a node down, then make someone who knows it look something up.
  net.setOnline(3, false);
  NodeId victim = net.node(3).id();
  // Drive traffic so pings/lookups hit node 3 and time out.
  for (int i = 0; i < 5; ++i) {
    net.putBlocking(0, NodeId::fromString("traffic-" + std::to_string(i)),
                    inc("x", 1));
  }
  net.sim().run();
  usize stillKnown = 0;
  for (usize i = 0; i < net.size(); ++i) {
    if (i != 3 && net.node(i).routing().contains(victim)) ++stillKnown;
  }
  // Not everyone must have purged it (only nodes that tried to talk to it),
  // but the system keeps functioning and at least someone noticed.
  auto view = net.getBlocking(1, NodeId::fromString("traffic-0"));
  EXPECT_TRUE(view.has_value());
  EXPECT_GT(net.node(0).counters().timeouts + net.node(1).counters().timeouts +
                stillKnown,
            0u);
}

TEST(Dht, ValueQuorumMergesReplicas) {
  auto cfg = smallConfig(32);
  cfg.node.valueQuorum = 2;
  DhtNetwork net(cfg);
  net.bootstrap();
  NodeId key = NodeId::fromString("quorum");
  net.putBlocking(0, key, inc("a", 4));
  auto view = net.getBlocking(9, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("a"), 4u);
}

TEST(Dht, DeterministicAcrossRuns) {
  // Determinism: the same seed reproduces the run exactly (traffic counts
  // AND replica placement); different seeds place node ids elsewhere on
  // the ring, so the key lands on a different holder set.
  auto run = [](u64 seed) {
    DhtNetwork net(smallConfig(16, seed));
    net.bootstrap();
    net.putBlocking(1, NodeId::fromString("det"), inc("x", 1));
    std::vector<std::string> holders;
    for (usize i = 0; i < net.size(); ++i) {
      if (net.node(i).store().has(NodeId::fromString("det"))) {
        holders.push_back(net.node(i).id().toHex());
      }
    }
    return std::make_pair(net.totalRpcsSent(), holders);
  };
  auto a = run(123);
  EXPECT_EQ(a, run(123));
  EXPECT_NE(a.second, run(456).second);
}

TEST(Dht, ScalesTo128Nodes) {
  DhtNetwork net(smallConfig(128, 11));
  net.bootstrap();
  NodeId key = NodeId::fromString("big-net");
  EXPECT_GE(net.putBlocking(17, key, inc("x", 1)), 1u);
  auto view = net.getBlocking(99, key);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->weightOf("x"), 1u);
}

// -- Credential memo: one HMAC per distinct credential ----------------------

/// A PING from \p cred, delivered to node \p to from node \p from's address.
void pingWith(DhtNetwork& net, const crypto::Credential& cred, usize from,
              usize to, u64 rpcId) {
  Envelope e;
  e.type = RpcType::kPing;
  e.rpcId = rpcId;
  e.sender.id = NodeId::fromDigest(cred.nodeId);
  e.sender.addr = net.node(from).address();
  e.credential = cred;
  net.network().send(net.node(from).address(), net.node(to).address(),
                     e.encode());
  net.sim().run();
}

TEST(Dht, CredentialMemoRejectsTamperedFields) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  KademliaNode& n0 = net.node(0);
  const crypto::Credential valid = net.cs().enroll("user-1");
  const NodeId id1 = NodeId::fromDigest(valid.nodeId);
  pingWith(net, valid, 1, 0, 1);  // memoized now, whatever came before
  ASSERT_TRUE(n0.routing().contains(id1));

  crypto::Credential badUser = valid;
  badUser.userId = "user-2";
  crypto::Credential badExpiry = valid;
  badExpiry.expiresAt = 1'000'000'000;
  crypto::Credential badMac = valid;
  badMac.mac[0] ^= 0x01;
  u64 rpcId = 2;
  for (const crypto::Credential& bad : {badUser, badExpiry, badMac}) {
    n0.routing().remove(id1);
    u64 before = n0.counters().credentialRejects;
    pingWith(net, bad, 1, 0, rpcId++);
    EXPECT_EQ(n0.counters().credentialRejects, before + 1);
    EXPECT_FALSE(n0.routing().contains(id1));
  }
  // The memoized credential itself is still accepted without a new HMAC.
  u64 verifies = n0.counters().credentialVerifies;
  pingWith(net, valid, 1, 0, rpcId);
  EXPECT_TRUE(n0.routing().contains(id1));
  EXPECT_EQ(n0.counters().credentialVerifies, verifies);
}

TEST(Dht, CredentialMemoRechecksExpiry) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  KademliaNode& n0 = net.node(0);
  const net::TimeUs expiresAt = net.sim().now() + 1'000'000;
  const crypto::Credential cred = net.cs().enroll("short-lived", expiresAt);
  const NodeId id = NodeId::fromDigest(cred.nodeId);
  u64 rejects = n0.counters().credentialRejects;
  pingWith(net, cred, 1, 0, 1);
  EXPECT_TRUE(n0.routing().contains(id));
  EXPECT_EQ(n0.counters().credentialRejects, rejects);

  n0.routing().remove(id);
  net.sim().runUntil(expiresAt + 1);
  u64 verifies = n0.counters().credentialVerifies;
  pingWith(net, cred, 1, 0, 2);
  EXPECT_EQ(n0.counters().credentialRejects, rejects + 1);
  EXPECT_FALSE(n0.routing().contains(id));
  // Rejected on the memo hit itself: the expiry check runs per datagram.
  EXPECT_EQ(n0.counters().credentialVerifies, verifies);
}

TEST(Dht, CredentialMemoVerifiesOncePerSender) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  KademliaNode& n0 = net.node(0);
  const crypto::Credential cred = net.cs().enroll("pinger");
  u64 verifies = n0.counters().credentialVerifies;
  u64 received = n0.counters().rpcsReceived;
  for (u64 i = 0; i < 10; ++i) pingWith(net, cred, 1, 0, 100 + i);
  EXPECT_EQ(n0.counters().rpcsReceived, received + 10);
  EXPECT_EQ(n0.counters().credentialVerifies, verifies + 1);
}

TEST(Dht, CredentialMemoStaysBounded) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  KademliaNode& n0 = net.node(0);
  const usize senders = KademliaNode::kCredentialMemoCap + 1;
  u64 rejects = n0.counters().credentialRejects;
  u64 verifies = n0.counters().credentialVerifies;
  for (usize i = 0; i < senders; ++i) {
    pingWith(net, net.cs().enroll("sender-" + std::to_string(i)), 1, 0, i + 1);
    ASSERT_LE(n0.credentialMemoSize(), KademliaNode::kCredentialMemoCap);
  }
  EXPECT_EQ(n0.counters().credentialRejects, rejects);
  EXPECT_EQ(n0.counters().credentialVerifies, verifies + senders);
  EXPECT_EQ(n0.credentialMemoSize(), KademliaNode::kCredentialMemoCap);
}

// -- STORE replay dedup on (sender, putId, chunk) ---------------------------

/// A signed one-token STORE of inc(\p entry) under \p key, as node \p from
/// (user-<from>) would send it for logical PUT \p putId.
Envelope storeFrom(DhtNetwork& net, usize from, const NodeId& key,
                   const std::string& entry, u64 putId, u32 chunk = 0) {
  const std::string user = "user-" + std::to_string(from);
  StoreReq req;
  req.key = key;
  req.putId = putId;
  req.chunk = chunk;
  req.tokens.push_back(inc(entry));
  req.signature = net.cs().signContent(user, key.toHex(), req.canonicalBatch());
  Envelope e;
  e.type = RpcType::kStore;
  e.rpcId = putId;
  e.sender = net.node(from).contact();
  e.credential = net.cs().enroll(user);
  e.body = req.encode();
  return e;
}

void deliver(DhtNetwork& net, usize to, const Envelope& e) {
  net.network().send(e.sender.addr, net.node(to).address(), e.encode());
  net.sim().run();
}

u64 weightAt(DhtNetwork& net, usize node, const NodeId& key,
             const std::string& entry) {
  auto view = net.node(node).store().query(key, {});
  return view ? view->weightOf(entry) : 0;
}

TEST(Dht, StoreDedupKeepsSendersApart) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  const NodeId key = NodeId::fromString("dedup-senders");
  // Both senders already have chunks in the window before they collide.
  deliver(net, 0, storeFrom(net, 1, key, "x", 4));
  deliver(net, 0, storeFrom(net, 2, key, "x", 6));
  deliver(net, 0, storeFrom(net, 1, key, "x", 5));
  deliver(net, 0, storeFrom(net, 2, key, "x", 5));
  EXPECT_EQ(weightAt(net, 0, key, "x"), 4u);
  EXPECT_EQ(net.node(0).counters().storesDeduplicated, 0u);
}

TEST(Dht, StoreReplayIsAckedNotReapplied) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  const NodeId key = NodeId::fromString("dedup-replay");
  const Envelope e = storeFrom(net, 1, key, "x", 9, 3);
  deliver(net, 0, e);
  u64 accepted = net.node(0).counters().storesAccepted;
  deliver(net, 0, e);
  EXPECT_EQ(weightAt(net, 0, key, "x"), 1u);
  EXPECT_EQ(net.node(0).counters().storesAccepted, accepted);
  EXPECT_EQ(net.node(0).counters().storesDeduplicated, 1u);
}

TEST(Dht, StoreDedupWindowForgetsOldestFirst) {
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  KademliaNode& n0 = net.node(0);
  const NodeId key = NodeId::fromString("dedup-window");
  // The oldest chunk comes from user-2; the next kSeenPutCap from user-1
  // push it out of the window.
  const Envelope first = storeFrom(net, 2, key, "x", 1);
  deliver(net, 0, first);
  std::vector<Envelope> rest;
  for (u64 putId = 1; putId <= KademliaNode::kSeenPutCap; ++putId) {
    rest.push_back(storeFrom(net, 1, key, "x", putId));
    deliver(net, 0, rest.back());
  }
  const u64 applied = KademliaNode::kSeenPutCap + 1;
  ASSERT_EQ(weightAt(net, 0, key, "x"), applied);

  for (const Envelope& e : rest) deliver(net, 0, e);
  EXPECT_EQ(n0.counters().storesDeduplicated, KademliaNode::kSeenPutCap);
  EXPECT_EQ(weightAt(net, 0, key, "x"), applied);

  deliver(net, 0, first);
  EXPECT_EQ(n0.counters().storesDeduplicated, KademliaNode::kSeenPutCap);
  EXPECT_EQ(weightAt(net, 0, key, "x"), applied + 1);
}

TEST(Dht, StoreDedupMatchesReferenceWindow) {
  // Random STOREs over more distinct (sender, putId, chunk) keys than the
  // window holds, checked step by step against a plain FIFO set: hits,
  // misses, evictions and re-applies after eviction must all agree. One
  // sender is rare, so its interned slot is released and reused.
  DhtNetwork net(smallConfig(8));
  net.bootstrap();
  KademliaNode& n0 = net.node(0);
  const NodeId key = NodeId::fromString("dedup-reference");
  std::set<std::tuple<usize, u64, u32>> seen;
  std::deque<std::tuple<usize, u64, u32>> order;
  u64 dedups = 0;
  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const usize from = rng.uniform(100) == 0 ? 4 : 1 + rng.uniform(3);
    const u64 putId = 1 + rng.uniform(3000);
    const u32 chunk = static_cast<u32>(rng.uniform(2));
    deliver(net, 0, storeFrom(net, from, key, "x", putId, chunk));
    auto k = std::make_tuple(from, putId, chunk);
    if (seen.count(k) != 0) {
      ++dedups;
    } else {
      seen.insert(k);
      order.push_back(k);
      if (order.size() > KademliaNode::kSeenPutCap) {
        seen.erase(order.front());
        order.pop_front();
      }
    }
    ASSERT_EQ(n0.counters().storesDeduplicated, dedups) << "step " << step;
  }
  EXPECT_EQ(weightAt(net, 0, key, "x"), 20000 - dedups);
  EXPECT_GT(dedups, 0u);
}

}  // namespace
}  // namespace dharma::dht
