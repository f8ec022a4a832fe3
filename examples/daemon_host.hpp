#pragma once
/// \file daemon_host.hpp
/// \brief DaemonHost: the live overlay dharma_node and dharma_gateway both
/// serve (Likir-enrolled Kademlia nodes on a sharded real-time runtime over
/// one datagram transport, their maintenance managers, a DharmaClient on
/// node 0, one metrics registry, trace ring and sampler), plus the stdin
/// command loop and stop-signal plumbing the two daemons share. Each daemon
/// passes in only its own values (HostSpec) and keeps its front end.

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/runtime.hpp"
#include "dht/maintenance.hpp"
#include "net/datagram.hpp"
#include "net/sharded.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/options.hpp"

namespace dharma::daemon {

/// The flags both daemons read, with the same meaning in each; their
/// defaults live in readHostFlags.
struct HostFlags {
  usize nodes = 0;
  usize shards = 0;
  net::NetBackend backend{};
  std::string joinSpec;
  usize joinRetries = 0;
  net::TimeUs rpcTimeoutUs = 0;
  u64 statsIntervalMs = 0;
  std::string metricsOutPath;
  bool tracesOn = false;
};

/// Value of the integer flag --\p key: \p fallback when absent or bare,
/// else a plain decimal integer >= 0. Nullopt after one line on stderr for
/// anything else (a sign, trailing bytes, overflow); the daemon then
/// exits 2.
std::optional<u64> readCountFlag(const Options& opts, const std::string& key,
                                 u64 fallback);

/// Reads the shared flags (--nodes defaults to \p defaultNodes). Nullopt
/// after one line on stderr for an unusable --net-backend, a malformed or
/// negative integer flag, or a zero --nodes/--shards; the daemon then
/// exits 2.
std::optional<HostFlags> readHostFlags(const Options& opts,
                                       usize defaultNodes);

/// What each daemon passes in that is not a flag of both.
struct HostSpec {
  std::string idPrefix;  ///< "node-" / "gw-"; pid and node index follow
  u64 nodeSeed = 0;       ///< node i seeds its Rng with nodeSeed + i
  u64 managerSeed = 0;    ///< manager i seeds with managerSeed + i
  u64 samplerSeed = 0;
  bool maintenance = true;
  dht::MaintenanceConfig maintenanceCfg;
  core::DharmaConfig clientCfg;  ///< metrics/traces set by the host
};

struct DaemonHost {
  /// Blocks the stop signals (SIGTERM/SIGINT) for every thread to come,
  /// then builds and boots the host and its (not yet ticking) sampler.
  /// Nullptr after a startup failure and its ERR line; the daemon then
  /// exits 2.
  static std::unique_ptr<DaemonHost> start(const std::string& bindHost,
                                           const HostFlags& flags,
                                           HostSpec spec);

  DaemonHost(const std::string& bindHost, const HostFlags& flags,
             HostSpec spec);
  ~DaemonHost();

  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  /// Sets the sampler's collect hook (the engine mirror, then
  /// \p alsoCollect) and starts its tick when --stats-interval-ms > 0. Call
  /// once, before any command: the hook is set from this thread.
  void startSampler(std::function<void()> alsoCollect = {});

  /// The engine's counters: the client's, node 0's, the client cache's and
  /// the transport's.
  struct EngineCounters {
    core::DharmaClient::Counters client;
    core::OpCost cost;
    dht::NodeCounters node;
    cache::CacheStats cache;
    usize routingTable = 0;
    net::UdpStats udp;
  };

  /// Reads the engine counters from any thread: they are protocol state,
  /// so they are read on shard 0's loop thread.
  EngineCounters readEngine();

  /// Mirrors the engine counters into the registry. MUST run on shard 0:
  /// the sampler's collect hook calls it there; other threads post it
  /// through rt0().awaitDone.
  void syncEngineOnLoop();

  /// The runtime blocking ops against node 0 and the client wait on.
  core::Runtime& rt0() { return rt.forShard(0); }

  /// Unblocks the stop signals on main, the one thread that takes them,
  /// and runs the stdin commands until quit/exit, end of input or a stop
  /// signal. \p handle answers each command first; when it returns false,
  /// the shared ones (stats-json, trace) are tried.
  void serveCommands(
      const std::function<bool(const std::string& cmd,
                               std::istringstream& args)>& handle);

  /// Answers "ERR <what>"; the run now exits 1.
  void fail(const std::string& what);

  /// Prints "done" or "done (with errors)" and returns the exit code.
  int finish() const;

  const HostFlags flags;
  const HostSpec spec;
  bool anyError = false;

  /// Process-wide observability: one registry every layer (client, node,
  /// transport, gateway) records into, one trace ring completed op spans
  /// land in. Declared before the executors: the shard group registers
  /// its per-shard families at construction.
  obs::MetricsRegistry registry;
  obs::TraceRing traces{256};
  /// The sharded runtime: node i lives on shard i % shards forever — its
  /// datagrams, timers and blocking ops all run there (see rtFor/shardOf).
  net::ShardedExecutor execs;
  std::unique_ptr<net::DatagramTransport> transport;
  // The shared secret stands in for a real certification authority; every
  // daemon on the host uses the same one so cross-process credentials
  // verify (Likir's CS is a trusted third party by construction).
  crypto::CertificationService cs{"dharma-node-demo-secret"};
  core::ShardedRuntime rt;
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes;
  std::vector<std::unique_ptr<dht::MaintenanceManager>> managers;
  std::unique_ptr<core::DharmaClient> client;
  std::unique_ptr<obs::MetricsSampler> sampler;
  std::shared_ptr<std::ofstream> metricsOut;

 private:
  usize shardOf(usize i) const { return execs.shardOf(i); }
  core::Runtime& rtFor(usize i) { return rt.forShard(shardOf(i)); }

  /// Enrolls the nodes, runs --join, joins nodes 1..n-1 to node 0, starts
  /// the managers, then creates the client. False after an ERR line.
  bool boot();

  EngineCounters readEngineOnLoop();

  /// Builds the sampler (always, so `stats-json` works); no hook yet.
  void createSampler();
};

}  // namespace dharma::daemon
