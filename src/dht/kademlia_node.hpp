#pragma once
/// \file kademlia_node.hpp
/// \brief One Kademlia/Likir overlay node.
///
/// Implements the Kademlia RPCs over the simulated network, the α-parallel
/// iterative lookup, the PUT/GET primitives the paper assumes ("retrieving
/// or modifying the content of a block on the DHT costs only one overlay
/// lookup operation"), and — when NodeConfig::cacheEnabled — the classic
/// Kademlia lookup-path caching: successful GETs replicate the value to the
/// closest observed non-holder via the non-authoritative STORE_CACHE RPC.
/// counters().lookups is the quantity Table I counts.

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/record_cache.hpp"
#include "crypto/identity.hpp"
#include "dht/routing_table.hpp"
#include "dht/rpc.hpp"
#include "dht/storage.hpp"
#include "net/executor.hpp"
#include "net/transport.hpp"

namespace dharma::obs {
class Histogram;
class MetricsRegistry;
class TraceRing;
}  // namespace dharma::obs

namespace dharma::dht {

/// Tunables (Kademlia defaults).
struct NodeConfig {
  usize k = 20;                       ///< bucket capacity & lookup width
  usize alpha = 3;                    ///< lookup parallelism
  usize kStore = 8;                   ///< replication factor for PUT
  u32 valueQuorum = 1;                ///< replicas merged per GET
  net::TimeUs rpcTimeoutUs = 1500000; ///< RPC timeout (1.5 s)
  bool verifyCredentials = true;      ///< Likir sender authentication
  bool verifyContent = true;          ///< Likir content-signature checks

  /// Lookup-path record caching (docs/PROTOCOL.md "Record caching"). Off by
  /// default: with it off the node neither publishes STORE_CACHE after GETs
  /// nor serves cached replies, so every existing cost identity is
  /// untouched.
  bool cacheEnabled = false;
  cache::CachePolicy cachePolicy;     ///< node-side cache bounds / TTL caps
  /// TTL granted to a cached copy sitting as close to the key as the
  /// nearest holder; each extra bucket of XOR distance halves it.
  net::TimeUs pathCacheTtlBaseUs = 30'000'000;
  net::TimeUs pathCacheTtlMinUs = 2'000'000;  ///< distance-scaling floor

  /// Optional observability sinks (docs/OBSERVABILITY.md). With `metrics`
  /// set the node records `dharma_node_rpc_service_us{rpc}` around every
  /// inbound request handler and `dharma_node_lookup_hops{kind}` /
  /// `dharma_node_lookup_latency_us{kind}` per finished lookup. With
  /// `traces` set, lookups started under beginTrace() emit per-RPC spans.
  /// Both must outlive the node; null disables at one-branch cost.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* traces = nullptr;
};

/// Result of an iterative lookup.
struct LookupResult {
  std::vector<Contact> closest;      ///< closest responsive contacts found
  std::optional<BlockView> value;    ///< merged value (value lookups only)
  u32 messagesSent = 0;              ///< RPCs issued by this lookup
  u32 valueReplies = 0;              ///< replicas that returned the value
  u32 rpcFailures = 0;               ///< lookup RPCs that timed out / failed
  u32 cachedReplies = 0;             ///< non-authoritative cached answers
};

/// Outcome of one PUT, threaded up to the client layer so callers can tell
/// "stored on every intended replica" apart from "silently under-replicated"
/// (the distinction PR 2's churn work made real).
struct PutResult {
  u32 acks = 0;         ///< replicas that acknowledged every chunk
  u32 targets = 0;      ///< responsive replicas the store was attempted on
  u32 intended = 0;     ///< the replication degree aimed for (kStore)
  u32 rpcFailures = 0;  ///< lookup + STORE RPCs that timed out / failed

  /// True when the full intended replica set acknowledged. targets alone
  /// cannot tell: a crashed overlay shrinks the responsive candidate set,
  /// so acks == targets < kStore is still under-replication.
  bool fullyReplicated() const { return intended > 0 && acks >= intended; }
};

/// Outcome of one GET. `view == nullopt` alone cannot distinguish "the
/// block does not exist" from "every holder was unreachable"; rpcFailures
/// carries the evidence.
struct GetResult {
  std::optional<BlockView> view;
  u32 valueReplies = 0;  ///< AUTHORITATIVE replicas that returned the value
  u32 messagesSent = 0;  ///< RPCs issued by the value lookup
  u32 rpcFailures = 0;   ///< lookup RPCs that timed out / failed
  u32 cachedReplies = 0; ///< record-cache answers (never count as replicas)

  bool found() const { return view.has_value(); }

  /// True when the view came exclusively from record caches — possible only
  /// for GETs issued with GetOptions::allowCached, and the signal benches
  /// use to classify a stale cached read instead of calling it silent.
  bool servedFromCache() const {
    return view.has_value() && valueReplies == 0 && cachedReplies > 0;
  }
};

/// Monotonic per-node counters.
struct NodeCounters {
  u64 lookups = 0;             ///< iterative procedures run (Table I unit)
  u64 puts = 0;                ///< PUT operations issued
  u64 gets = 0;                ///< GET operations issued
  u64 rpcsSent = 0;
  u64 rpcsReceived = 0;
  u64 timeouts = 0;
  u64 storesAccepted = 0;      ///< tokens applied on behalf of peers
  u64 storesRejectedAuth = 0;  ///< forged content signatures refused
  u64 credentialRejects = 0;   ///< datagrams dropped for bad credentials
  u64 credentialVerifies = 0;  ///< full HMAC verifies run (memo misses)
  u64 replySenderMismatches = 0; ///< replies echoing a pending rpcId from the wrong peer
  u64 sendRejects = 0;         ///< RPCs failed fast (datagram refused by the network)
  u64 putQuorumFailures = 0;   ///< PUTs acked by fewer replicas than intended
  u64 storesDeduplicated = 0;  ///< replayed STOREs acked without re-applying
  // Record-cache counters (mirrored from RecordCache::stats so callers that
  // only see counters() — benches, churn classification — get them too).
  u64 cacheHits = 0;           ///< GETs answered from this node's cache
  u64 cacheMisses = 0;         ///< cache consults that found nothing fresh
  u64 cacheEvictions = 0;      ///< cache entries dropped by LRU pressure
  u64 cacheExpirations = 0;    ///< cache entries dropped past their TTL
  u64 storeCacheAccepted = 0;  ///< STORE_CACHE copies absorbed for peers
  u64 storeCachePublished = 0; ///< STORE_CACHE copies pushed after GETs
};

/// A single overlay node. The node is runtime-agnostic: it talks to the
/// world only through the Executor (clock, timers) and Transport (datagram)
/// interfaces, so the identical protocol code runs on the deterministic
/// simulator and on real UDP sockets under a real-time executor.
///
/// Every received datagram's credential is checked (docs/DESIGN.md §2), but
/// the HMAC runs once per distinct credential: credentials that passed
/// CertificationService::verify are memoized per sender node id, a later
/// datagram skips the HMAC only when its credential equals the memoized one
/// field for field, and expiry is re-checked against the clock on every
/// datagram.
class KademliaNode {
 public:
  /// Bound on memoized sender credentials; past it an arbitrary entry is
  /// dropped (its sender just pays one more full verify).
  static constexpr usize kCredentialMemoCap = 1024;
  /// Replay-dedup window: the last kSeenPutCap applied STORE chunks.
  static constexpr usize kSeenPutCap = 8192;

  /// \param exec  shared event loop (SimExecutor or RealTimeExecutor)
  /// \param net   shared datagram transport (SimTransport or UdpTransport)
  /// \param cs    certification service (verification oracle)
  /// \param cred  this node's Likir credential (fixes the node id)
  /// \param cfg   protocol parameters
  /// \param seed  per-node randomness (lookup tie-breaking etc.)
  KademliaNode(net::Executor& exec, net::Transport& net,
               const crypto::CertificationService& cs, crypto::Credential cred,
               NodeConfig cfg, u64 seed);

  KademliaNode(const KademliaNode&) = delete;
  KademliaNode& operator=(const KademliaNode&) = delete;

  const NodeId& id() const { return self_.id; }
  net::Address address() const { return self_.addr; }
  Contact contact() const { return self_; }
  const std::string& userId() const { return credential_.userId; }

  /// Seeds the routing table without any traffic.
  void addSeed(const Contact& c);

  /// Standard join: insert \p seed, then look up our own id.
  void join(const Contact& seed, std::function<void()> done);

  /// Liveness probe; cb(true) on pong before timeout.
  void ping(const Contact& c, std::function<void(bool)> cb);

  /// Bootstrap probe toward a bare transport address (a "host:port" peer
  /// whose node id is not yet known — how a dharma_node daemon joins an
  /// existing cluster). The PONG's verified credential reveals the peer's
  /// id and enrolls it in the routing table (observeSender); cb(true) on
  /// reply. This is the ONE request whose reply is accepted from any
  /// sender id — the id is what the probe exists to learn; the credential
  /// check still gates it, exactly as for every other datagram.
  void pingAddress(net::Address addr, std::function<void(bool)> cb);

  /// Iterative FIND_NODE toward \p target.
  void findNode(const NodeId& target, std::function<void(LookupResult)> cb);

  /// Iterative FIND_VALUE for \p key with index-side filtering options.
  void findValue(const NodeId& key, const GetOptions& opt,
                 std::function<void(LookupResult)> cb);

  /// PUT: one lookup + replicated signed STOREs. cb receives the replica
  /// ack count plus the intended replication degree (PutResult); a PUT that
  /// lands on fewer replicas than intended bumps counters().putQuorumFailures.
  void put(const NodeId& key, const StoreToken& token,
           std::function<void(PutResult)> cb);

  /// PUT of a token batch against one block: still exactly ONE lookup (the
  /// paper's per-block-operation cost unit); batches that would overflow
  /// the MTU are transparently split across several STORE datagrams.
  /// PutResult::acks counts replicas that acknowledged every chunk.
  /// Allocates a fresh put id (see allocatePutId).
  void putMany(const NodeId& key, std::vector<StoreToken> tokens,
               std::function<void(PutResult)> cb);

  /// putMany under an explicit logical-PUT identity. Retrying callers MUST
  /// reuse the id of the failed attempt: replicas dedup STOREs on
  /// (sender, putId, chunk), which is what makes re-sending a batch of
  /// non-idempotent kIncrement tokens safe.
  void putMany(const NodeId& key, std::vector<StoreToken> tokens, u64 putId,
               std::function<void(PutResult)> cb);

  /// Reserves a logical-PUT identity for putMany (unique per node;
  /// globally scoped by the sender credential replicas dedup against).
  u64 allocatePutId() { return nextPutId_++; }

  /// GET: one value lookup; GetResult::view is nullopt if not found, with
  /// rpcFailures telling a clean miss apart from unreachable holders.
  void get(const NodeId& key, const GetOptions& opt,
           std::function<void(GetResult)> cb);

  BlockStore& store() { return store_; }
  const BlockStore& store() const { return store_; }
  RoutingTable& routing() { return routing_; }
  const RoutingTable& routing() const { return routing_; }
  const NodeCounters& counters() const { return counters_; }
  /// Distinct sender credentials currently memoized (≤ kCredentialMemoCap).
  usize credentialMemoSize() const { return credentialMemo_.size(); }
  const NodeConfig& config() const { return cfg_; }

  /// Node-side record cache (non-authoritative STORE_CACHE copies).
  cache::RecordCache& recordCache() { return cache_; }
  const cache::RecordCache& recordCache() const { return cache_; }

  /// Drops every cache entry past its TTL at the current simulated time;
  /// returns the number dropped. Periodically driven by MaintenanceManager
  /// so dead entries on idle nodes don't survive past their TTL (find()
  /// only expires lazily, on the keys that are actually read).
  usize sweepCache();

  /// Tags the NEXT lookup started on this node (loop thread, synchronously
  /// — put/get/findNode start their lookup before returning) with \p
  /// traceId, so its span lands in NodeConfig::traces under the same id as
  /// the client op that issued it. No-op when traces is unset.
  void beginTrace(u64 traceId) { pendingTraceId_ = traceId; }

 private:
  struct LookupTask;

  net::Executor& exec_;
  net::Transport& net_;
  const crypto::CertificationService& cs_;
  crypto::Credential credential_;
  NodeConfig cfg_;
  Rng rng_;
  Contact self_;
  RoutingTable routing_;
  BlockStore store_;
  cache::RecordCache cache_;
  NodeCounters counters_;
  u64 nextRpcId_ = 1;
  u64 nextPutId_ = 1;
  u64 pendingTraceId_ = 0;  ///< consumed by the next startLookup (beginTrace)

  // Pre-resolved histogram handles (null when cfg_.metrics is unset).
  // rpcServiceHist_ is indexed by RpcType request value; lookup arrays by
  // kind (0 = node, 1 = value).
  std::array<obs::Histogram*, 5> rpcServiceHist_{};
  std::array<obs::Histogram*, 2> lookupHopsHist_{};
  std::array<obs::Histogram*, 2> lookupLatencyHist_{};
  void initObs();

  /// Credentials that passed cs_.verify, keyed by credential node id (at
  /// most kCredentialMemoCap). Only successes are stored; like the rest of
  /// the node's state it is touched only on the node's own loop.
  std::unordered_map<NodeId, crypto::Credential, NodeIdHash> credentialMemo_;

  /// True when \p c passes cs_.verify at the current time, running the
  /// HMAC only when \p c differs from the memoized credential for its id.
  bool credentialValid(const NodeId& credId, const crypto::Credential& c);

  /// Replay-dedup memory for STOREs: (sender, putId, chunk) chunks that
  /// fully APPLIED (recorded only on success — a rejected chunk must fail
  /// again on retry, not be dedup-acked). A FIFO window of the last
  /// kSeenPutCap, so a long-lived replica can't grow unboundedly; a retry
  /// arrives within a few backoff periods, far inside the window.
  ///
  /// Keys are exact and fixed-size: the sender's user id is interned into
  /// a slot that lives while any window entry names it. The window is a
  /// ring (oldest at seenPutHead_ once full) indexed by an open-addressing
  /// table of ring position + 1 (0 = empty), kept at most half full.
  struct PutKey {
    u64 putId = 0;
    u32 chunk = 0;
    u32 sender = 0;  ///< slot in putSenders_
    bool operator==(const PutKey&) const = default;
    usize hash() const {
      return static_cast<usize>(
          splitmix64(putId ^ splitmix64((u64{chunk} << 32) | sender)));
    }
  };
  struct PutSender {
    const std::string* user = nullptr;  ///< key inside putSenderSlots_
    u32 refs = 0;                       ///< window entries naming it
  };
  /// Ring storage, allocated block by block as the window first fills (a
  /// doubling vector would hold up to twice the live entries on every node
  /// whose window is still filling). Ring position p lives at
  /// seenPutBlocks_[p / kSeenPutBlock][p % kSeenPutBlock].
  static constexpr usize kSeenPutBlock = 512;
  static_assert(kSeenPutCap % kSeenPutBlock == 0,
                "the ring is a whole number of blocks");
  std::array<std::unique_ptr<PutKey[]>, kSeenPutCap / kSeenPutBlock>
      seenPutBlocks_;
  usize seenPutCount_ = 0;  ///< ring positions in use (≤ kSeenPutCap)
  usize seenPutHead_ = 0;
  std::vector<u16> seenPutIndex_;
  std::unordered_map<std::string, u32> putSenderSlots_;
  std::vector<PutSender> putSenders_;
  std::vector<u32> freePutSenders_;

  static_assert(kSeenPutCap < 0xFFFF, "ring positions must fit the u16 index");
  PutKey& seenPut(usize pos) {
    return seenPutBlocks_[pos / kSeenPutBlock][pos % kSeenPutBlock];
  }
  const PutKey& seenPut(usize pos) const {
    return seenPutBlocks_[pos / kSeenPutBlock][pos % kSeenPutBlock];
  }
  bool wasPutApplied(const std::string& user, u64 putId, u32 chunk) const;
  void recordPutApplied(const std::string& user, u64 putId, u32 chunk);
  /// Index slot holding \p key, else the empty slot where it would go.
  usize seenPutSlot(const PutKey& key) const;
  void unindexSeenPut(usize slot);
  void releasePutSender(u32 sender);
  void reindexSeenPuts(usize capacity);

  struct PendingRpc {
    std::function<void(bool, const Envelope&)> onDone;  // ok=false on timeout
    net::TaskId timeoutEvent = net::kNullTask;
    NodeId expectedPeer;  ///< only replies from this node id resolve the RPC
    /// Address-only bootstrap probes (pingAddress) cannot know the peer id
    /// yet; they alone skip the expectedPeer match.
    bool anyPeer = false;
  };
  std::unordered_map<u64, PendingRpc> pending_;

  // -- plumbing --
  void onDatagram(net::Address from, const std::vector<u8>& data);
  void sendRequest(const Contact& to, RpcType type, std::vector<u8> body,
                   std::function<void(bool, const Envelope&)> onDone);
  /// Shared scaffolding behind sendRequest and pingAddress: envelope,
  /// pending-RPC entry, send-reject fast-fail, timeout arming.
  void sendRequestImpl(const Contact& to, bool anyPeer, RpcType type,
                       std::vector<u8> body,
                       std::function<void(bool, const Envelope&)> onDone);
  void sendReply(const Envelope& req, RpcType type, std::vector<u8> body);
  Envelope makeEnvelope(RpcType type, u64 rpcId, std::vector<u8> body) const;
  void observeSender(const Envelope& env);

  // -- request handlers --
  void handlePing(const Envelope& env);
  void handleFindNode(const Envelope& env);
  void handleFindValue(const Envelope& env);
  void handleStore(const Envelope& env);
  void handleStoreCache(const Envelope& env);

  // -- lookup machinery --
  void startLookup(const NodeId& target, bool isValue, GetOptions opt,
                   std::function<void(LookupResult)> cb);
  void pumpLookup(const std::shared_ptr<LookupTask>& task);
  void finishLookup(const std::shared_ptr<LookupTask>& task);

  // -- record cache plumbing --
  /// Mirrors RecordCache::stats into counters_ (single source of truth is
  /// the cache; the mirror keeps counters() self-contained).
  void syncCacheCounters();
  /// Lookup-path caching: replicate a freshly fetched value to the closest
  /// observed non-holder with a distance-scaled TTL.
  void publishPathCache(const LookupTask& task, const LookupResult& res);
};

}  // namespace dharma::dht
