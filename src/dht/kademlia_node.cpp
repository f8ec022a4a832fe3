#include "dht/kademlia_node.hpp"

#include "net/affinity.hpp"

#include <algorithm>
#include <cassert>

#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace dharma::dht {

namespace {
/// Candidate state inside an iterative lookup.
enum class CandState : u8 { kFresh, kInflight, kResponded, kFailed };

/// Request RpcTypes are the even enum values; value/2 indexes these.
constexpr const char* kRpcNames[] = {"ping", "find_node", "find_value",
                                     "store", "store_cache"};
constexpr const char* kLookupKinds[] = {"node", "value"};

struct Candidate {
  Contact contact;
  Distance dist;  ///< XOR distance to the lookup target, the sort key
  CandState state = CandState::kFresh;
};
}  // namespace

/// Shared state of one α-parallel iterative lookup.
struct KademliaNode::LookupTask {
  NodeId target;
  bool isValue = false;
  GetOptions opt;
  std::function<void(LookupResult)> cb;
  std::vector<Candidate> candidates;  // sorted by XOR distance to target
  usize inflight = 0;
  bool done = false;
  u32 messagesSent = 0;
  u32 valueReplies = 0;
  u32 cachedReplies = 0;
  u32 rpcFailures = 0;
  BlockView mergedValue;
  bool haveValue = false;
  net::TimeUs startUs = 0;    ///< for the lookup-latency histogram
  bool traced = false;        ///< span below is live (NodeConfig::traces set)
  obs::TraceSpan span;        ///< per-hop RPC events under the client's id
  /// Nodes observed to already have the value (authoritative replicas and
  /// cache servers alike): never chosen as the path-cache target.
  std::vector<NodeId> holders;

  /// Appends a span event naming \p peer when tracing; otherwise one branch
  /// and no hex formatting.
  void ev(net::TimeUs t, const char* label, const NodeId& peer) {
    if (traced) span.event(t, label, peer.shortHex());
  }

  bool isHolder(const NodeId& id) const {
    return std::find(holders.begin(), holders.end(), id) != holders.end();
  }

  /// First candidate not closer to the target than \p d.
  std::vector<Candidate>::iterator slotFor(const Distance& d) {
    return std::lower_bound(
        candidates.begin(), candidates.end(), d,
        [](const Candidate& a, const Distance& b) { return a.dist < b; });
  }

  /// Inserts \p c in distance order unless its id is already a candidate
  /// (equal distance to the target means equal id).
  void addCandidate(const Contact& c) {
    const Distance d = distance(target, c.id);
    auto pos = slotFor(d);
    if (pos != candidates.end() && pos->dist == d) return;
    candidates.insert(pos, Candidate{c, d, CandState::kFresh});
  }

  Candidate* find(const NodeId& id) {
    const Distance d = distance(target, id);
    auto pos = slotFor(d);
    return pos != candidates.end() && pos->dist == d ? &*pos : nullptr;
  }
};

KademliaNode::KademliaNode(net::Executor& exec, net::Transport& net,
                           const crypto::CertificationService& cs,
                           crypto::Credential cred, NodeConfig cfg, u64 seed)
    : exec_(exec), net_(net), cs_(cs), credential_(std::move(cred)), cfg_(cfg),
      rng_(seed), self_{NodeId::fromDigest(credential_.nodeId), net::kNullAddress},
      routing_(self_.id, cfg.k), cache_(cfg.cachePolicy) {
  // The node's record cache lives and dies on this executor's loop thread;
  // bind it so debug builds assert that ownership on every cache op.
  cache_.bindOwner(&exec_);
  initObs();
  // Registered with THIS node's executor as the delivery target: under a
  // sharded runtime every datagram for this node lands on its own shard,
  // which is exactly the affinity cache_.bindOwner asserts above.
  self_.addr = net_.registerEndpoint(
      [this](net::Address from, const std::vector<u8>& data) {
        onDatagram(from, data);
      },
      exec_);
}

void KademliaNode::initObs() {
  if (cfg_.metrics == nullptr) return;
  for (usize i = 0; i < rpcServiceHist_.size(); ++i) {
    rpcServiceHist_[i] = &cfg_.metrics->histogram(
        "dharma_node_rpc_service_us",
        "Inbound RPC request handler service time (microseconds)",
        {{"rpc", kRpcNames[i]}});
  }
  for (usize k = 0; k < 2; ++k) {
    lookupHopsHist_[k] = &cfg_.metrics->histogram(
        "dharma_node_lookup_hops",
        "RPCs issued per iterative lookup, by lookup kind",
        {{"kind", kLookupKinds[k]}});
    lookupLatencyHist_[k] = &cfg_.metrics->histogram(
        "dharma_node_lookup_latency_us",
        "Iterative lookup wall time by lookup kind (microseconds)",
        {{"kind", kLookupKinds[k]}});
  }
}

void KademliaNode::addSeed(const Contact& c) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::addSeed");
  if (c.id == self_.id) return;
  routing_.touch(c);
}

void KademliaNode::join(const Contact& seed, std::function<void()> done) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::join");
  addSeed(seed);
  findNode(self_.id, [done = std::move(done)](const LookupResult&) {
    if (done) done();
  });
}

void KademliaNode::ping(const Contact& c, std::function<void(bool)> cb) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::ping");
  sendRequest(c, RpcType::kPing, {}, [cb = std::move(cb)](bool ok, const Envelope&) {
    if (cb) cb(ok);
  });
}

void KademliaNode::pingAddress(net::Address addr, std::function<void(bool)> cb) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::pingAddress");
  // A placeholder contact: the id is unknown until the PONG arrives, so the
  // pending RPC is flagged anyPeer and correlation falls back to rpcId
  // alone. The reply's (credential-verified) envelope feeds observeSender,
  // which is what actually enrolls the peer for the join lookup that
  // follows.
  sendRequestImpl(Contact{NodeId{}, addr}, /*anyPeer=*/true, RpcType::kPing,
                  {}, [cb = std::move(cb)](bool ok, const Envelope&) {
                    if (cb) cb(ok);
                  });
}

void KademliaNode::findNode(const NodeId& target,
                            std::function<void(LookupResult)> cb) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::findNode");
  startLookup(target, false, GetOptions{}, std::move(cb));
}

void KademliaNode::findValue(const NodeId& key, const GetOptions& opt,
                             std::function<void(LookupResult)> cb) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::findValue");
  startLookup(key, true, opt, std::move(cb));
}

void KademliaNode::put(const NodeId& key, const StoreToken& token,
                       std::function<void(PutResult)> cb) {
  putMany(key, {token}, std::move(cb));
}

void KademliaNode::putMany(const NodeId& key, std::vector<StoreToken> tokens,
                           std::function<void(PutResult)> cb) {
  putMany(key, std::move(tokens), allocatePutId(), std::move(cb));
}

bool KademliaNode::wasPutApplied(const std::string& user, u64 putId,
                                 u32 chunk) const {
  auto it = putSenderSlots_.find(user);
  if (it == putSenderSlots_.end()) return false;
  return seenPutIndex_[seenPutSlot(PutKey{putId, chunk, it->second})] != 0;
}

void KademliaNode::recordPutApplied(const std::string& user, u64 putId,
                                    u32 chunk) {
  auto [it, fresh] = putSenderSlots_.try_emplace(user, 0);
  if (fresh) {
    if (freePutSenders_.empty()) {
      it->second = static_cast<u32>(putSenders_.size());
      putSenders_.emplace_back();
    } else {
      it->second = freePutSenders_.back();
      freePutSenders_.pop_back();
    }
    putSenders_[it->second].user = &it->first;
  }
  const PutKey key{putId, chunk, it->second};
  if (!fresh && seenPutIndex_[seenPutSlot(key)] != 0) return;
  ++putSenders_[key.sender].refs;

  usize pos = 0;
  if (seenPutCount_ < kSeenPutCap) {
    pos = seenPutCount_++;
    auto& block = seenPutBlocks_[pos / kSeenPutBlock];
    if (!block) block = std::make_unique<PutKey[]>(kSeenPutBlock);
    seenPut(pos) = key;
    if (2 * seenPutCount_ > seenPutIndex_.size()) {
      reindexSeenPuts(std::max<usize>(16, 2 * seenPutIndex_.size()));
      return;
    }
  } else {
    // Window full: the new chunk takes the oldest chunk's ring position.
    pos = seenPutHead_;
    unindexSeenPut(seenPutSlot(seenPut(pos)));
    releasePutSender(seenPut(pos).sender);
    seenPut(pos) = key;
    seenPutHead_ = (pos + 1) % kSeenPutCap;
  }
  seenPutIndex_[seenPutSlot(key)] = static_cast<u16>(pos + 1);
}

usize KademliaNode::seenPutSlot(const PutKey& key) const {
  const usize mask = seenPutIndex_.size() - 1;
  usize i = key.hash() & mask;
  while (seenPutIndex_[i] != 0 && !(seenPut(seenPutIndex_[i] - 1) == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

void KademliaNode::unindexSeenPut(usize hole) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home slot lies cyclically in (hole, i].
  const usize mask = seenPutIndex_.size() - 1;
  seenPutIndex_[hole] = 0;
  for (usize i = (hole + 1) & mask; seenPutIndex_[i] != 0; i = (i + 1) & mask) {
    usize home = seenPut(seenPutIndex_[i] - 1).hash() & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      seenPutIndex_[hole] = seenPutIndex_[i];
      seenPutIndex_[i] = 0;
      hole = i;
    }
  }
}

void KademliaNode::releasePutSender(u32 sender) {
  PutSender& s = putSenders_[sender];
  if (--s.refs != 0) return;
  putSenderSlots_.erase(putSenderSlots_.find(*s.user));
  s.user = nullptr;
  freePutSenders_.push_back(sender);
}

void KademliaNode::reindexSeenPuts(usize capacity) {
  seenPutIndex_.assign(capacity, 0);
  for (usize p = 0; p < seenPutCount_; ++p) {
    seenPutIndex_[seenPutSlot(seenPut(p))] = static_cast<u16>(p + 1);
  }
}

void KademliaNode::putMany(const NodeId& key, std::vector<StoreToken> tokens,
                           u64 putId, std::function<void(PutResult)> cb) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::putMany");
  ++counters_.puts;
  if (tokens.empty()) {
    if (cb) cb(PutResult{});
    return;
  }
  // Split the batch so each STORE datagram fits the MTU (the lookup cost is
  // unaffected: fragmentation happens after the single iterative lookup).
  const usize mtu = net_.mtuBytes();
  const usize budget = mtu > 300 ? mtu - 300 : mtu / 2;
  std::vector<std::vector<StoreToken>> chunks;
  chunks.emplace_back();
  usize used = 0;
  for (auto& t : tokens) {
    usize cost = t.entry.size() + t.payload.size() + 16;
    if (used + cost > budget && !chunks.back().empty()) {
      chunks.emplace_back();
      used = 0;
    }
    used += cost;
    chunks.back().push_back(std::move(t));
  }

  findNode(key, [this, key, putId, chunks = std::move(chunks),
                 cb = std::move(cb)](const LookupResult& res) {
    // Kademlia stores on the kStore closest NODES to the key — the
    // publisher included. A lookup never returns self, so merge self into
    // the candidate list by XOR distance; without this, two publishers
    // near the key would write to slightly different replica sets and
    // replicas would diverge.
    std::vector<Contact> targets = res.closest;
    auto selfPos = std::lower_bound(
        targets.begin(), targets.end(), self_,
        [&](const Contact& a, const Contact& b) {
          return compareDistance(key, a.id, b.id) < 0;
        });
    targets.insert(selfPos, self_);
    usize replicas = std::min(cfg_.kStore, targets.size());
    targets.resize(replicas);
    if (replicas == 0) {
      ++counters_.putQuorumFailures;
      if (cb) {
        cb(PutResult{0, 0, static_cast<u32>(cfg_.kStore), res.rpcFailures});
      }
      return;
    }
    struct Shared {
      PutResult result;
      usize repliesOutstanding = 0;
      std::vector<usize> chunksLeft;
      std::vector<bool> allOk;
      std::function<void(PutResult)> cb;
      NodeCounters* counters = nullptr;

      void finishIfDone() {
        if (repliesOutstanding != 0) return;
        // Quorum miss: the PUT landed on fewer replicas than the kStore it
        // aimed for (dead targets, rejected stores, or a thinned candidate
        // set). Callers historically dropped the ack count on the floor;
        // the counter makes under-replication observable even for them.
        if (result.acks < result.intended) ++counters->putQuorumFailures;
        if (cb) cb(result);
      }
    };
    auto sh = std::make_shared<Shared>();
    sh->result.targets = static_cast<u32>(replicas);
    sh->result.intended = static_cast<u32>(cfg_.kStore);
    sh->result.rpcFailures = res.rpcFailures;
    sh->chunksLeft.assign(replicas, chunks.size());
    sh->allOk.assign(replicas, true);
    sh->repliesOutstanding = replicas * chunks.size();
    sh->cb = cb;
    sh->counters = &counters_;

    for (usize i = 0; i < replicas; ++i) {
      if (targets[i].id == self_.id) {
        // Local replica: apply directly (own tokens need no signature
        // round-trip), with the same replay dedup as the RPC path so a
        // retried PUT cannot double-apply here either.
        bool ok = true;
        for (usize c = 0; c < chunks.size(); ++c) {
          u32 chunkIdx = static_cast<u32>(c);
          if (wasPutApplied(credential_.userId, putId, chunkIdx)) {
            ++counters_.storesDeduplicated;
            continue;
          }
          // Atomic chunk apply (all-or-nothing), recorded only on success:
          // a rejected chunk leaves no partial state behind and must fail
          // the retry again rather than be dedup-acked.
          bool chunkOk = store_.applyAll(key, chunks[c], exec_.now());
          if (chunkOk) recordPutApplied(credential_.userId, putId, chunkIdx);
          ok = ok && chunkOk;
        }
        if (ok) {
          ++sh->result.acks;
          ++counters_.storesAccepted;
        }
        sh->repliesOutstanding -= chunks.size();
        sh->finishIfDone();
        continue;
      }
      for (usize c = 0; c < chunks.size(); ++c) {
        StoreReq req;
        req.key = key;
        req.putId = putId;
        req.chunk = static_cast<u32>(c);
        req.tokens = chunks[c];
        req.signature = cs_.signContent(credential_.userId, key.toHex(),
                                        req.canonicalBatch());
        sendRequest(targets[i], RpcType::kStore, req.encode(),
                    [sh, i](bool ok, const Envelope& env) {
                      bool applied = false;
                      if (ok) {
                        try {
                          ByteReader r(env.body);
                          applied = StoreReply::decode(r).ok;
                        } catch (const DecodeError&) {
                        }
                      } else {
                        ++sh->result.rpcFailures;
                      }
                      if (!applied) sh->allOk[i] = false;
                      if (--sh->chunksLeft[i] == 0 && sh->allOk[i]) {
                        ++sh->result.acks;
                      }
                      --sh->repliesOutstanding;
                      sh->finishIfDone();
                    });
      }
    }
  });
}

void KademliaNode::get(const NodeId& key, const GetOptions& opt,
                       std::function<void(GetResult)> cb) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::get");
  ++counters_.gets;
  findValue(key, opt, [cb = std::move(cb)](const LookupResult& res) {
    if (cb) {
      cb(GetResult{res.value, res.valueReplies, res.messagesSent,
                   res.rpcFailures, res.cachedReplies});
    }
  });
}

usize KademliaNode::sweepCache() {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::sweepCache");
  usize dropped = cache_.expire(exec_.now());
  syncCacheCounters();
  return dropped;
}

void KademliaNode::syncCacheCounters() {
  const cache::CacheStats& s = cache_.stats();
  counters_.cacheHits = s.hits;
  counters_.cacheMisses = s.misses;
  counters_.cacheEvictions = s.evictions;
  counters_.cacheExpirations = s.expirations;
}

// ---------------------------------------------------------------------------
// Datagram plumbing
// ---------------------------------------------------------------------------

Envelope KademliaNode::makeEnvelope(RpcType type, u64 rpcId,
                                    std::vector<u8> body) const {
  Envelope e;
  e.type = type;
  e.rpcId = rpcId;
  e.sender = self_;
  e.credential = credential_;
  e.body = std::move(body);
  return e;
}

void KademliaNode::sendRequest(const Contact& to, RpcType type,
                               std::vector<u8> body,
                               std::function<void(bool, const Envelope&)> onDone) {
  sendRequestImpl(to, /*anyPeer=*/false, type, std::move(body),
                  std::move(onDone));
}

void KademliaNode::sendRequestImpl(
    const Contact& to, bool anyPeer, RpcType type, std::vector<u8> body,
    std::function<void(bool, const Envelope&)> onDone) {
  u64 rpcId = nextRpcId_++;
  Envelope env = makeEnvelope(type, rpcId, std::move(body));
  ++counters_.rpcsSent;

  PendingRpc p;
  p.onDone = std::move(onDone);
  p.expectedPeer = to.id;
  p.anyPeer = anyPeer;
  if (!net_.send(self_.addr, to.addr, env.encode())) {
    // The network refused the datagram synchronously (oversize): fail the
    // RPC on the next simulator step instead of burning the full timeout.
    // Deferring (rather than calling onDone inline) keeps lookup state
    // machines safe from re-entrant mutation. The peer is not at fault, so
    // it stays in the routing table.
    ++counters_.sendRejects;
    p.timeoutEvent = exec_.schedule(0, [this, rpcId] {
      auto it = pending_.find(rpcId);
      if (it == pending_.end()) return;
      auto onDone = std::move(it->second.onDone);
      pending_.erase(it);
      Envelope dummy;
      if (onDone) onDone(false, dummy);
    });
    pending_.emplace(rpcId, std::move(p));
    return;
  }
  p.timeoutEvent = exec_.schedule(
      cfg_.rpcTimeoutUs, [this, rpcId, anyPeer, peer = to] {
        auto it = pending_.find(rpcId);
        if (it == pending_.end()) return;
        auto onDone = std::move(it->second.onDone);
        pending_.erase(it);
        ++counters_.timeouts;
        // Unresponsive peers fall out of the routing table (Kademlia
        // liveness). An address-only probe has no peer id to remove.
        if (!anyPeer) routing_.remove(peer.id);
        Envelope dummy;
        if (onDone) onDone(false, dummy);
      });
  pending_.emplace(rpcId, std::move(p));
}

void KademliaNode::sendReply(const Envelope& req, RpcType type,
                             std::vector<u8> body) {
  Envelope env = makeEnvelope(type, req.rpcId, std::move(body));
  ++counters_.rpcsSent;
  net_.send(self_.addr, req.sender.addr, env.encode());
}

void KademliaNode::observeSender(const Envelope& env) {
  Contact c = env.sender;
  BucketInsert r = routing_.touch(c);
  if (r != BucketInsert::kFull) return;
  // Bucket full: ping the stalest entry; replace it only if unresponsive
  // (Kademlia's anti-churn bias toward long-lived contacts).
  auto stalest = routing_.evictionCandidateFor(c);
  if (!stalest) return;
  ping(*stalest, [this, c, victimId = stalest->id](bool alive) {
    if (alive) return;  // ping() -> onDatagram already refreshed its position
    // Pinned eviction: replace exactly the contact that was pinged. By the
    // time this callback runs the bucket may have reordered (or the RPC
    // timeout may already have removed the victim); replacing "whatever is
    // stalest now" would evict a live contact that was never probed.
    routing_.replaceContact(victimId, c);
  });
}

bool KademliaNode::credentialValid(const NodeId& credId,
                                   const crypto::Credential& c) {
  const net::TimeUs now = exec_.now();
  auto it = credentialMemo_.find(credId);
  if (it != credentialMemo_.end() && it->second.userId == c.userId &&
      it->second.expiresAt == c.expiresAt && it->second.mac == c.mac) {
    // The very credential the HMAC already accepted: only expiry can have
    // changed since (CertificationService::verify's rule, 0 = never).
    return c.expiresAt == 0 || now <= c.expiresAt;
  }
  ++counters_.credentialVerifies;
  if (!cs_.verify(c, now)) return false;
  if (it != credentialMemo_.end()) {
    it->second = c;
    return true;
  }
  if (credentialMemo_.size() >= kCredentialMemoCap) {
    credentialMemo_.erase(credentialMemo_.begin());
  }
  credentialMemo_.emplace(credId, c);
  return true;
}

void KademliaNode::onDatagram(net::Address from, const std::vector<u8>& data) {
  DHARMA_ASSERT_AFFINITY(&exec_, "KademliaNode::onDatagram");
  auto envOpt = Envelope::decode(data);
  if (!envOpt) return;
  Envelope& env = *envOpt;
  ++counters_.rpcsReceived;

  if (cfg_.verifyCredentials) {
    // Likir: the credential must verify AND bind the claimed node id.
    const NodeId credId = NodeId::fromDigest(env.credential.nodeId);
    if (!credentialValid(credId, env.credential) || credId != env.sender.id) {
      ++counters_.credentialRejects;
      return;
    }
  }
  // Trust the transport source over the claimed address.
  env.sender.addr = from;
  observeSender(env);

  switch (env.type) {
    case RpcType::kPing:
    case RpcType::kFindNode:
    case RpcType::kFindValue:
    case RpcType::kStore:
    case RpcType::kStoreCache: {
      // Request dispatch, timed as `dharma_node_rpc_service_us{rpc}` when a
      // registry is wired (one clock read + one atomic add; null handles
      // skip even the clock).
      obs::Histogram* h = rpcServiceHist_[static_cast<usize>(env.type) / 2];
      const net::TimeUs t0 = h != nullptr ? exec_.now() : 0;
      switch (env.type) {
        case RpcType::kPing: handlePing(env); break;
        case RpcType::kFindNode: handleFindNode(env); break;
        case RpcType::kFindValue: handleFindValue(env); break;
        case RpcType::kStore: handleStore(env); break;
        default: handleStoreCache(env); break;
      }
      if (h != nullptr) h->record(exec_.now() - t0);
      break;
    }
    case RpcType::kPong:
    case RpcType::kFindNodeReply:
    case RpcType::kFindValueReply:
    case RpcType::kStoreReply:
    case RpcType::kStoreCacheReply: {
      auto it = pending_.find(env.rpcId);
      if (it == pending_.end()) return;  // late/duplicate reply
      if (!it->second.anyPeer && env.sender.id != it->second.expectedPeer) {
        // A reply correlates by (rpcId, peer), not rpcId alone: any node
        // that learned the id could otherwise resolve someone else's RPC.
        ++counters_.replySenderMismatches;
        return;
      }
      auto onDone = std::move(it->second.onDone);
      exec_.cancel(it->second.timeoutEvent);
      pending_.erase(it);
      if (onDone) onDone(true, env);
      break;
    }
  }
}

void KademliaNode::handlePing(const Envelope& env) {
  sendReply(env, RpcType::kPong, {});
}

void KademliaNode::handleFindNode(const Envelope& env) {
  try {
    ByteReader r(env.body);
    FindNodeReq req = FindNodeReq::decode(r);
    ContactsReply rep;
    rep.contacts = routing_.closest(req.target, cfg_.k);
    sendReply(env, RpcType::kFindNodeReply, rep.encode());
  } catch (const DecodeError&) {
  }
}

void KademliaNode::handleFindValue(const Envelope& env) {
  try {
    ByteReader r(env.body);
    FindValueReq req = FindValueReq::decode(r);
    FindValueReply rep;
    GetOptions opt;
    opt.topN = req.topN;
    // Index-side filtering: never build a reply larger than the MTU even if
    // the requester asked for more (Section V-A).
    usize mtuBudget = net_.mtuBytes() > 256 ? net_.mtuBytes() - 256 : 256;
    opt.maxBytes = req.maxBytes == 0 ? mtuBudget
                                     : std::min<usize>(req.maxBytes, mtuBudget);
    if (auto view = store_.query(req.key, opt)) {
      rep.found = true;
      rep.view = std::move(*view);
    } else if (cfg_.cacheEnabled && req.allowCached) {
      // No authoritative replica here, but the requester accepts a
      // non-authoritative copy: serve the record cache, marked `cached` so
      // it can never masquerade as a replica on the requester side.
      const BlockView* cached = cache_.find(req.key, exec_.now());
      syncCacheCounters();
      if (cached != nullptr) {
        rep.found = true;
        rep.cached = true;
        rep.view = *cached;
        // A cached answer honours the same index-side filtering contract
        // as an authoritative one (the cached copy may have been built for
        // a laxer request).
        rep.view.trim(opt);
      } else {
        rep.contacts = routing_.closest(req.key, cfg_.k);
      }
    } else {
      rep.contacts = routing_.closest(req.key, cfg_.k);
    }
    sendReply(env, RpcType::kFindValueReply, rep.encode());
  } catch (const DecodeError&) {
  }
}

void KademliaNode::handleStoreCache(const Envelope& env) {
  try {
    ByteReader r(env.body);
    StoreCacheReq req = StoreCacheReq::decode(r);
    StoreCacheReply rep;
    // Non-authoritative by construction: the copy lands in the record
    // cache, never BlockStore, and a node already holding an authoritative
    // replica ignores it (a cached copy must not shadow real state). The
    // sender's TTL is honoured but capped by our own policy base.
    if (cfg_.cacheEnabled && !store_.has(req.key)) {
      net::SimTime ttl = std::min(req.ttlUs, cfg_.pathCacheTtlBaseUs);
      rep.ok = cache_.insertWithTtl(req.key, std::move(req.view), ttl,
                                    exec_.now());
      syncCacheCounters();
      if (rep.ok) ++counters_.storeCacheAccepted;
    }
    sendReply(env, RpcType::kStoreCacheReply, rep.encode());
  } catch (const DecodeError&) {
  }
}

void KademliaNode::handleStore(const Envelope& env) {
  try {
    ByteReader r(env.body);
    StoreReq req = StoreReq::decode(r);
    StoreReply rep;
    if (cfg_.verifyContent &&
        !cs_.verifyContent(req.signature, req.key.toHex(),
                           req.canonicalBatch())) {
      ++counters_.storesRejectedAuth;
      rep.ok = false;
    } else if (wasPutApplied(req.signature.userId, req.putId, req.chunk)) {
      // Replay of a chunk this replica already applied (the sender's ack
      // was lost, or a client retry re-sent the batch): ack idempotently
      // WITHOUT re-applying — kIncrement tokens would double-count.
      ++counters_.storesDeduplicated;
      rep.ok = true;
    } else {
      // Atomic: a rejected batch leaves no partial state, so recording the
      // dedup key on success is airtight — deduped ⟺ fully applied.
      rep.ok = store_.applyAll(req.key, req.tokens, exec_.now());
      if (rep.ok) {
        recordPutApplied(req.signature.userId, req.putId, req.chunk);
        ++counters_.storesAccepted;
      }
    }
    sendReply(env, RpcType::kStoreReply, rep.encode());
  } catch (const DecodeError&) {
  }
}

// ---------------------------------------------------------------------------
// Iterative lookup
// ---------------------------------------------------------------------------

void KademliaNode::startLookup(const NodeId& target, bool isValue,
                               GetOptions opt,
                               std::function<void(LookupResult)> cb) {
  ++counters_.lookups;
  auto task = std::make_shared<LookupTask>();
  task->target = target;
  task->isValue = isValue;
  task->opt = opt;
  task->cb = std::move(cb);
  if (lookupLatencyHist_[0] != nullptr || cfg_.traces != nullptr) {
    task->startUs = exec_.now();
  }
  // A pending trace id (beginTrace) binds exactly one lookup — this one:
  // put/get/findNode all start their lookup synchronously on the loop
  // thread, so the handoff cannot interleave with another caller.
  const u64 traceId = pendingTraceId_;
  pendingTraceId_ = 0;
  if (cfg_.traces != nullptr && traceId != 0) {
    task->traced = true;
    task->span.traceId = traceId;
    task->span.kind = "lookup";
    task->span.label = kLookupKinds[isValue ? 1 : 0];
    task->span.startUs = task->startUs;
  }
  if (isValue) {
    // Local hit: the querying node may itself hold a replica.
    if (auto view = store_.query(target, opt)) {
      task->haveValue = true;
      task->mergedValue = std::move(*view);
      ++task->valueReplies;
      if (task->valueReplies >= cfg_.valueQuorum) {
        finishLookup(task);
        return;
      }
    } else if (opt.allowCached && cfg_.cacheEnabled) {
      // No authoritative local replica, but a non-authoritative read may be
      // served from this node's own record cache without touching the wire.
      const BlockView* cached = cache_.find(target, exec_.now());
      syncCacheCounters();
      if (cached != nullptr) {
        task->haveValue = true;
        task->mergedValue = *cached;
        // Same filtering contract as an authoritative local hit.
        task->mergedValue.trim(opt);
        ++task->cachedReplies;
        finishLookup(task);
        return;
      }
    }
  }
  for (const Contact& c : routing_.closest(target, cfg_.k)) {
    task->addCandidate(c);
  }
  if (task->candidates.empty()) {
    finishLookup(task);
    return;
  }
  pumpLookup(task);
}

void KademliaNode::pumpLookup(const std::shared_ptr<LookupTask>& task) {
  if (task->done) return;

  // Completion: value quorum reached (or, for a non-authoritative read, any
  // cached reply arrived), or the k best candidates have all been queried
  // (responded/failed) with nothing in flight.
  if (task->isValue && task->haveValue &&
      (task->valueReplies >= cfg_.valueQuorum || task->cachedReplies > 0)) {
    finishLookup(task);
    return;
  }

  // Launch queries at fresh candidates among the k closest, keeping at most
  // alpha in flight.
  usize considered = 0;
  for (usize i = 0; i < task->candidates.size() && task->inflight < cfg_.alpha;
       ++i) {
    Candidate& cand = task->candidates[i];
    if (cand.state == CandState::kFailed) continue;  // doesn't occupy a slot
    ++considered;
    if (considered > cfg_.k) break;  // only the k best matter
    if (cand.state != CandState::kFresh) continue;

    cand.state = CandState::kInflight;
    ++task->inflight;
    ++task->messagesSent;
    Contact peer = cand.contact;
    task->ev(exec_.now(), "rpc-sent", peer.id);

    auto onDone = [this, task, peerId = peer.id](bool ok, const Envelope& env) {
      if (task->done) return;
      --task->inflight;
      if (!ok) ++task->rpcFailures;
      task->ev(exec_.now(), ok ? "rpc-reply" : "rpc-timeout", peerId);
      Candidate* c = task->find(peerId);
      if (c) c->state = ok ? CandState::kResponded : CandState::kFailed;
      if (ok) {
        try {
          if (env.type == RpcType::kFindValueReply) {
            ByteReader r(env.body);
            FindValueReply rep = FindValueReply::decode(r);
            if (rep.found) {
              // Cached replies are counted apart from authoritative ones:
              // they terminate a non-authoritative read (see pumpLookup)
              // but can never contribute to the value quorum.
              if (rep.cached) {
                ++task->cachedReplies;
              } else {
                ++task->valueReplies;
              }
              task->holders.push_back(peerId);
              if (task->haveValue) {
                task->mergedValue.mergeMax(rep.view, task->opt.topN);
              } else {
                task->mergedValue = std::move(rep.view);
                task->haveValue = true;
              }
            } else {
              for (const Contact& nc : rep.contacts) {
                if (nc.id != self_.id) task->addCandidate(nc);
              }
            }
          } else if (env.type == RpcType::kFindNodeReply) {
            ByteReader r(env.body);
            ContactsReply rep = ContactsReply::decode(r);
            for (const Contact& nc : rep.contacts) {
              if (nc.id != self_.id) task->addCandidate(nc);
            }
          }
        } catch (const DecodeError&) {
        }
      }
      pumpLookup(task);
    };

    if (task->isValue) {
      FindValueReq req;
      req.key = task->target;
      req.topN = task->opt.topN;
      req.maxBytes = static_cast<u32>(task->opt.maxBytes);
      req.allowCached = task->opt.allowCached;
      sendRequest(peer, RpcType::kFindValue, req.encode(), onDone);
    } else {
      FindNodeReq req;
      req.target = task->target;
      sendRequest(peer, RpcType::kFindNode, req.encode(), onDone);
    }
  }

  if (task->inflight == 0) {
    // No queries in flight and none launchable: every useful candidate has
    // been consumed.
    bool anyFresh = false;
    usize considered2 = 0;
    for (const Candidate& c : task->candidates) {
      if (c.state == CandState::kFailed) continue;
      ++considered2;
      if (considered2 > cfg_.k) break;
      if (c.state == CandState::kFresh) {
        anyFresh = true;
        break;
      }
    }
    if (!anyFresh) finishLookup(task);
  }
}

void KademliaNode::finishLookup(const std::shared_ptr<LookupTask>& task) {
  if (task->done) return;
  task->done = true;
  LookupResult res;
  res.messagesSent = task->messagesSent;
  res.valueReplies = task->valueReplies;
  res.cachedReplies = task->cachedReplies;
  res.rpcFailures = task->rpcFailures;
  if (task->haveValue) res.value = std::move(task->mergedValue);
  for (const Candidate& c : task->candidates) {
    if (c.state == CandState::kResponded) {
      res.closest.push_back(c.contact);
      if (res.closest.size() >= cfg_.k) break;
    }
  }
  if (cfg_.cacheEnabled && task->isValue && res.value.has_value()) {
    publishPathCache(*task, res);
  }
  const usize kind = task->isValue ? 1 : 0;
  if (lookupHopsHist_[kind] != nullptr) {
    lookupHopsHist_[kind]->record(task->messagesSent);
    lookupLatencyHist_[kind]->record(exec_.now() - task->startUs);
  }
  if (task->traced) {
    task->span.endUs = exec_.now();
    task->span.outcome =
        task->isValue ? (task->haveValue ? "found" : "miss") : "ok";
    cfg_.traces->push(std::move(task->span));
    task->traced = false;
  }
  if (task->cb) task->cb(std::move(res));
}

void KademliaNode::publishPathCache(const LookupTask& task,
                                    const LookupResult& res) {
  // Only values backed by at least one AUTHORITATIVE replica propagate.
  // Re-publishing a view that came solely from caches would grant stale
  // content a fresh TTL on every read, letting it circulate cache-to-cache
  // past the one-TTL staleness bound DESIGN.md §6 promises.
  if (task.valueReplies == 0) return;
  // Target: the closest responsive node on the lookup path that did NOT
  // return the value (a holder — authoritative or cached — has it already).
  const Contact* target = nullptr;
  for (const Contact& c : res.closest) {
    if (!task.isHolder(c.id)) {
      target = &c;
      break;
    }
  }
  if (target == nullptr) return;

  // Distance-scaled TTL (Kademlia §2.3's "exponentially inversely
  // proportional" rule, in bucket units): a copy as close to the key as the
  // nearest holder gets the full base TTL; every extra bucket of XOR
  // distance halves it, floored at pathCacheTtlMinUs. Far-flung copies thus
  // age out quickly while copies shielding the hot replica set live long.
  int dTarget = bucketIndex(target->id, task.target);
  int dHolder = 160;
  for (const NodeId& h : task.holders) {
    dHolder = std::min(dHolder, bucketIndex(h, task.target));
  }
  if (task.holders.empty()) dHolder = bucketIndex(self_.id, task.target);
  int extra = std::max(0, dTarget - dHolder);
  net::SimTime ttl = cfg_.pathCacheTtlBaseUs >> std::min(extra, 40);
  ttl = std::max(ttl, cfg_.pathCacheTtlMinUs);

  StoreCacheReq req;
  req.key = task.target;
  req.ttlUs = ttl;
  req.view = *res.value;
  ++counters_.storeCachePublished;
  // Fire-and-forget: the GET already completed; a lost or refused copy
  // costs nothing but the missed future hit.
  sendRequest(*target, RpcType::kStoreCache, req.encode(),
              [](bool, const Envelope&) {});
}

}  // namespace dharma::dht
