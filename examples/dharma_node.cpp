/// \file dharma_node.cpp
/// \brief A live DHARMA node daemon on real UDP sockets.
///
/// The first program in this repo where nothing is simulated: a
/// RealTimeExecutor drives the protocol against the wall clock, a
/// UdpTransport moves every RPC through real POSIX sockets, and the same
/// KademliaNode / DharmaClient code that reproduces the paper's numbers in
/// virtual time serves interactive traffic.
///
///   $ ./dharma_node                      # boot a 3-node loopback cluster
///   $ ./dharma_node --nodes 8            # a bigger one
///   $ ./dharma_node --join 127.0.0.1:PORT  # join another daemon's cluster
///
/// Each node prints "node <i> listening on <ip:port>"; hand any of those
/// addresses to a second daemon's --join. Commands arrive on stdin, one
/// per line (the tiny line protocol; see `help`):
///
///   insert <res> <uri> <tag> [tag ...]
///   tag <res> <tag> [tag ...]
///   search <tag>
///   resolve <res>
///   ping <ip:port>
///   drop <ip:port> | undrop <ip:port> | undrop all
///   stats
///   quit
///
/// Every command answers "OK ..." or "ERR ...". The process exits 0 iff no
/// command failed — which is what lets CI drive a 3-node put/get/tag smoke
/// through a pipe, and what lets the cluster harness (tests/cluster/)
/// script whole fleets of these processes.
///
/// SIGTERM/SIGINT request a graceful stop: the daemon finishes the command
/// in flight, prints "OK shutdown signal=...", flushes, and exits through
/// the same deterministic path as `quit` — so a harness can tell a clean
/// stop (exit code 0/1) from a crash (killed by signal). The drop/undrop
/// commands and the --drop-peers flag install transport-level partition
/// rules (datagrams to/from those peers silently vanish), which is how the
/// harness scripts network partitions on one host.

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/runtime.hpp"
#include "dht/maintenance.hpp"
#include "net/datagram.hpp"
#include "net/realtime.hpp"
#include "net/sharded.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/options.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

using namespace dharma;

namespace {

/// Signal number of the pending graceful-stop request (0 = none). Written
/// by the signal handler, read by the command loop.
volatile std::sig_atomic_t g_stopSignal = 0;

/// Self-pipe: the handler writes one byte to the write end, and the command
/// loop polls the read end beside stdin. A signal that lands after the
/// loop's last stop check but before it blocks still wakes it.
int g_stopPipe[2] = {-1, -1};

void onStopSignal(int sig) {
  g_stopSignal = sig;
  const int savedErrno = errno;
  const char byte = 1;
  const ssize_t wrote = ::write(g_stopPipe[1], &byte, 1);
  (void)wrote;  // a full pipe already holds a wake-up
  errno = savedErrno;
}

/// Reads stdin one line at a time; waits for input or a stop signal,
/// whichever comes first.
class StdinLines {
 public:
  /// Stores the next line (without its '\n') in \p line. False at end of
  /// input or once a stop signal has arrived; a stop wins over lines that
  /// are already buffered.
  bool next(std::string& line) {
    for (;;) {
      if (g_stopSignal != 0) return false;
      const usize nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      if (eof_) {
        if (buf_.empty()) return false;
        line = std::move(buf_);
        buf_.clear();
        return true;
      }
      pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {g_stopPipe[0], POLLIN, 0}};
      if (::poll(fds, 2, -1) < 0) {
        if (errno != EINTR) eof_ = true;
        continue;
      }
      if (fds[1].revents != 0 || fds[0].revents == 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
      if (n > 0) {
        buf_.append(chunk, static_cast<usize>(n));
      } else if (n == 0 || errno != EINTR) {
        eof_ = true;
      }
    }
  }

 private:
  std::string buf_;
  bool eof_ = false;
};

const char* errorName(core::OpError e) {
  switch (e) {
    case core::OpError::kNotFound: return "not-found";
    case core::OpError::kQuorumFailed: return "quorum-failed";
    case core::OpError::kTimeout: return "timeout";
    case core::OpError::kNodeOffline: return "node-offline";
  }
  return "unknown";
}

struct Daemon {
  /// Process-wide observability: one registry every layer (client, node,
  /// UDP) records into, one trace ring completed op spans land in. The
  /// `stats` line stays raw-counter based for harness compat; `stats-json`
  /// and --metrics-out read THIS registry, so both surfaces render the
  /// same snapshot. Declared before the executors: the shard group
  /// registers its per-shard families at construction.
  obs::MetricsRegistry registry;
  obs::TraceRing traces{256};
  bool tracesOn = true;
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

  Daemon(const std::string& bindHost, usize shards, net::NetBackend backend)
      : execs(net::ShardedExecutor::Config{shards, &registry}),
        transport(net::makeDatagramTransport(
            backend, execs.shard(0),
            net::UdpConfig{bindHost, 1400, &registry})),
        rt(execs, *transport) {}

  /// The shard owning node \p i, and the runtime blocking ops against it
  /// must wait on. nodes[0] (the command-loop node) is always on shard 0.
  usize shardOf(usize i) const { return execs.shardOf(i); }
  core::Runtime& rtFor(usize i) { return rt.forShard(shardOf(i)); }
  core::Runtime& rt0() { return rt.forShard(0); }

  ~Daemon() {
    // Stop the sampler on its loop thread BEFORE stopping the loops, so a
    // tick can't re-arm mid-stop (same discipline as the managers below).
    if (sampler) {
      rt0().awaitDone([&](std::function<void()> done) {
        sampler->stop();
        done();
      });
    }
    // Stop the loops FIRST: manager ticks run (and re-arm themselves) on
    // their node's loop thread, so stopping a manager from here while its
    // loop is alive would race its timer bookkeeping. With the executors
    // stopped, the managers' stop() is just cancel() calls into dead
    // queues.
    execs.stop();
    for (auto& m : managers) m->stop();
    transport->close();
  }

  /// Mirrors engine counters into the registry. MUST run on the loop
  /// thread (sampler collect hook does; `stats-json` posts through the
  /// runtime).
  void syncEngineOnLoop() {
    core::DharmaClient::Counters cc = client->counters();
    core::OpCost cost = client->totalCost();
    dht::NodeCounters nc = nodes[0]->counters();
    cache::CacheStats cs = client->cacheStats();
    net::UdpStats us = transport->stats();
    registry.counter("dharma_client_ops_total", "Protocol operations completed")
        .set(cc.ops);
    registry
        .counter("dharma_client_failures_total",
                 "Operations returning an error")
        .set(cc.failures);
    registry
        .counter("dharma_client_lookups_total",
                 "Overlay lookups paid (Table I unit)")
        .set(cost.lookups);
    registry
        .counter("dharma_client_cache_hits_total",
                 "Reads served by the client record cache")
        .set(cs.hits);
    registry
        .counter("dharma_client_cache_misses_total",
                 "Client record cache misses")
        .set(cs.misses);
    registry
        .counter("dharma_node_cache_hits_total",
                 "GETs answered from the node-side cache")
        .set(nc.cacheHits);
    registry
        .counter("dharma_node_stores_deduplicated_total",
                 "Replayed STOREs acked without re-applying")
        .set(nc.storesDeduplicated);
    registry.counter("dharma_node_rpcs_sent_total", "RPC requests sent")
        .set(nc.rpcsSent);
    registry.counter("dharma_node_timeouts_total", "RPCs that timed out")
        .set(nc.timeouts);
    registry
        .counter("dharma_udp_datagrams_sent_total",
                 "Datagrams accepted by sendto()")
        .set(us.sent);
    registry
        .counter("dharma_udp_datagrams_received_total",
                 "Datagrams handed to an endpoint handler")
        .set(us.received);
    registry.counter("dharma_udp_bytes_sent_total", "Payload bytes accepted")
        .set(us.bytesSent);
  }

  /// Builds the sampler (always, so `stats-json` works) and starts its
  /// periodic tick when \p intervalMs > 0.
  void startSampler(u64 intervalMs, const std::string& outPath, u64 seed) {
    obs::SamplerConfig sc;
    sc.intervalUs = (intervalMs == 0 ? 1000 : intervalMs) * 1000;
    sc.seed = seed;
    // The sampler ticks on shard 0 — where nodes[0] and the client live,
    // so its collect hook reads their counters with the right affinity.
    sampler = std::make_unique<obs::MetricsSampler>(execs.shard(0), registry,
                                                    sc);
    sampler->setCollect([this] { syncEngineOnLoop(); });
    if (!outPath.empty()) {
      metricsOut = std::make_shared<std::ofstream>(outPath,
                                                   std::ios::out |
                                                       std::ios::trunc);
      if (!*metricsOut) {
        std::cout << "ERR cannot open --metrics-out '" << outPath << "'\n";
        metricsOut.reset();
      } else {
        sampler->addSink([out = metricsOut](const obs::Sample& sample) {
          *out << sample.toJson() << "\n";
          out->flush();
        });
      }
    }
    if (intervalMs > 0) {
      rt0().awaitDone([&](std::function<void()> done) {
        sampler->start();
        done();
      });
    }
  }

  bool boot(usize n, const std::string& joinSpec, bool maintenance,
            dht::NodeConfig nodeCfg, const dht::MaintenanceConfig& mCfg,
            usize joinRetries) {
    execs.start();
    nodeCfg.metrics = &registry;
    if (tracesOn) nodeCfg.traces = &traces;
    // Distinct user ids per process so two daemons on one host never
    // collide in id space.
    std::string prefix = "node-" + std::to_string(::getpid()) + "-";
    for (usize i = 0; i < n; ++i) {
      // Node i is born onto its shard and never leaves it: the executor
      // reference IS the affinity, and registerEndpoint routes the node's
      // datagrams to the same place.
      nodes.push_back(std::make_unique<dht::KademliaNode>(
          execs.shard(shardOf(i)), *transport, cs,
          cs.enroll(prefix + std::to_string(i)), nodeCfg, 0x9000 + i));
      std::cout << "node " << i << " listening on "
                << net::formatAddress(nodes[i]->address()) << "\n";
    }

    if (!joinSpec.empty()) {
      net::PeerResolution peer = transport->resolvePeer(joinSpec);
      if (!peer.ok()) {
        std::cout << "ERR bad --join spec '" << joinSpec << "' ("
                  << peer.errorName() << ")\n";
        return false;
      }
      // Learn the peer's node id with a bootstrap ping, then the usual
      // self-lookup join through the enrolled contact. Retried: the peer
      // process may still be booting when we come up (cluster harness
      // restarts race their bootstrap target's socket).
      bool up = false;
      for (usize attempt = 0; attempt < joinRetries && !up; ++attempt) {
        up = core::awaitResult<bool>(rt0(),
                                     [&](std::function<void(bool)> done) {
          nodes[0]->pingAddress(peer.addr, std::move(done));
        });
      }
      if (!up) {
        std::cout << "ERR join peer " << joinSpec << " did not answer\n";
        return false;
      }
      rt0().awaitDone([&](std::function<void()> done) {
        nodes[0]->findNode(nodes[0]->id(),
                           [done = std::move(done)](dht::LookupResult) {
                             done();
                           });
      });
      std::cout << "joined cluster via " << joinSpec << "\n";
    }
    for (usize i = 1; i < nodes.size(); ++i) {
      dht::Contact seed = nodes[0]->contact();
      // Each join waits on the joining node's OWN shard; the RPCs cross
      // shards over the transport like any other wire traffic.
      rtFor(i).awaitDone([&](std::function<void()> done) {
        nodes[i]->join(seed, std::move(done));
      });
    }

    if (maintenance) {
      for (usize i = 0; i < nodes.size(); ++i) {
        managers.push_back(std::make_unique<dht::MaintenanceManager>(
            execs.shard(shardOf(i)), *transport, *nodes[i], mCfg,
            0x7000 + i));
      }
      // start() reads routing tables, which each loop thread may already
      // be mutating (e.g. refresh lookups from a cluster we joined) — run
      // it in the callback world like every other protocol-state access,
      // on the manager's own shard.
      for (usize i = 0; i < managers.size(); ++i) {
        rtFor(i).awaitDone([&](std::function<void()> done) {
          managers[i]->start();
          done();
        });
      }
    }

    core::DharmaConfig clientCfg;
    clientCfg.metrics = &registry;
    if (tracesOn) clientCfg.traces = &traces;
    client = std::make_unique<core::DharmaClient>(rt0(), *nodes[0],
                                                  clientCfg);
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered protocol over pipes: the cluster harness reads replies as
  // they happen, so every line must leave the process immediately.
  std::cout << std::unitbuf;

  Options opts(argc, argv);
  usize n = static_cast<usize>(opts.getInt("nodes", 3));
  std::string joinSpec = opts.getString("join", "");
  std::string bindHost = opts.getString("bind", "127.0.0.1");
  bool maintenance = opts.getBool("maintenance", true);
  usize joinRetries = static_cast<usize>(opts.getInt("join-retries", 5));
  u64 statsIntervalMs = static_cast<u64>(opts.getInt("stats-interval-ms", 0));
  std::string metricsOutPath = opts.getString("metrics-out", "");
  bool tracesOn = opts.getBool("traces", true);
  usize shards = static_cast<usize>(opts.getInt("shards", 1));
  std::string backendName =
      opts.getString("net-backend", net::netBackendName(net::defaultNetBackend()));
  auto backend = net::parseNetBackend(backendName);
  if (!backend || !net::netBackendAvailable(*backend)) {
    std::cerr << "bad --net-backend '" << backendName
              << "' (want: poll" << (net::netBackendAvailable(net::NetBackend::kEpoll)
                                         ? " | epoll" : "")
              << ")\n";
    return 2;
  }
  if (n == 0 || shards == 0) {
    std::cerr << "--nodes and --shards must be >= 1\n";
    return 2;
  }

  dht::NodeConfig nodeCfg;
  nodeCfg.rpcTimeoutUs =
      static_cast<net::TimeUs>(opts.getInt("rpc-timeout-ms", 1500)) * 1000;
  dht::MaintenanceConfig mCfg;
  mCfg.bucketRefreshIntervalUs =
      static_cast<net::TimeUs>(opts.getInt("refresh-ms", 30'000)) * 1000;
  mCfg.republishIntervalUs =
      static_cast<net::TimeUs>(opts.getInt("republish-ms", 60'000)) * 1000;

  // Graceful-stop plumbing, in three steps: block the signals (so the
  // executor/receiver threads spawned during boot inherit the blocked
  // mask), install the handlers (which set g_stopSignal and write the
  // self-pipe that wakes the command loop), and unblock on the main thread
  // only once boot is done — making main the one thread that takes
  // delivery.
  if (::pipe(g_stopPipe) != 0) {
    std::cerr << "ERR startup: pipe: " << std::strerror(errno) << "\n";
    return 2;
  }
  for (int fd : g_stopPipe) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(g_stopPipe[1], F_SETFL, O_NONBLOCK);
  sigset_t stopSet;
  sigemptyset(&stopSet);
  sigaddset(&stopSet, SIGTERM);
  sigaddset(&stopSet, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stopSet, nullptr);
  struct sigaction sa{};
  sa.sa_handler = onStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // Transport/socket failures at boot (bad --bind host, fd exhaustion) are
  // typed: one crisp ERR line and exit 2 — the startup-failure code,
  // distinct from protocol errors (1) — never an uncaught-exception abort.
  std::unique_ptr<Daemon> daemon;
  try {
    daemon = std::make_unique<Daemon>(bindHost, shards, *backend);
    daemon->tracesOn = tracesOn;
    if (!daemon->boot(n, joinSpec, maintenance, nodeCfg, mCfg, joinRetries)) {
      return 2;
    }
  } catch (const net::TransportError& e) {
    std::cerr << "ERR startup (" << e.kindName() << "): " << e.what() << "\n";
    return 2;
  }
  Daemon& d = *daemon;
  d.startSampler(statsIntervalMs, metricsOutPath, 0xD0DE);

  // Boot-time partition rules (comma-separated ip:port list).
  std::string dropSpec = opts.getString("drop-peers", "");
  if (!dropSpec.empty()) {
    std::istringstream specs(dropSpec);
    std::string one;
    while (std::getline(specs, one, ',')) {
      net::PeerResolution p = d.transport->resolvePeer(one);
      if (!p.ok()) {
        std::cerr << "bad --drop-peers entry '" << one << "' ("
                  << p.errorName() << ")\n";
        return 2;
      }
      d.transport->dropPeer(p.addr);
    }
  }

  std::cout << "cluster up: " << n << " node(s); type 'help' for commands\n";
  pthread_sigmask(SIG_UNBLOCK, &stopSet, nullptr);

  bool anyError = false;
  auto fail = [&](const std::string& what) {
    anyError = true;
    std::cout << "ERR " << what << "\n";
  };

  StdinLines input;
  std::string line;
  while (input.next(line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "help") {
      std::cout << "OK commands: insert <res> <uri> <tag> [tag ...] | "
                   "tag <res> <tag> [tag ...] | search <tag> | "
                   "resolve <res> | ping <ip:port> | drop <ip:port> | "
                   "undrop <ip:port>|all | stats | stats-json | trace | "
                   "quit\n";
    } else if (cmd == "insert") {
      std::string res, uri, t;
      in >> res >> uri;
      std::vector<std::string> tags;
      while (in >> t) tags.push_back(t);
      if (res.empty() || uri.empty()) {
        fail("usage: insert <res> <uri> <tag> [tag ...]");
        continue;
      }
      auto out = d.client->insertResource(res, uri, tags);
      if (out.ok()) {
        std::cout << "OK inserted " << res << " (" << tags.size()
                  << " tags, " << out.cost.lookups << " lookups, minAcks="
                  << out.value().minReplicas << ")\n";
      } else {
        fail("insert " + res + ": " + errorName(*out.err));
      }
    } else if (cmd == "tag") {
      std::string res, t;
      in >> res;
      std::vector<std::string> tags;
      while (in >> t) tags.push_back(t);
      if (res.empty() || tags.empty()) {
        fail("usage: tag <res> <tag> [tag ...]");
        continue;
      }
      auto out = d.client->tagResources(res, tags);
      if (out.ok()) {
        std::cout << "OK tagged " << res << " (+" << tags.size() << " tags, "
                  << out.cost.lookups << " lookups)\n";
      } else {
        fail("tag " + res + ": " + errorName(*out.err));
      }
    } else if (cmd == "search") {
      std::string t;
      in >> t;
      if (t.empty()) {
        fail("usage: search <tag>");
        continue;
      }
      auto out = d.client->searchStep(t);
      if (!out.ok()) {
        fail("search " + t + ": " + errorName(*out.err));
        continue;
      }
      std::cout << "OK search " << t << ": " << out.val->resources.size()
                << " resource(s), " << out.val->relatedTags.size()
                << " related tag(s)\n";
      for (const auto& e : out.val->resources) {
        std::cout << "  resource " << e.name << " (w=" << e.weight << ")\n";
      }
      for (const auto& e : out.val->relatedTags) {
        std::cout << "  related " << e.name << " (w=" << e.weight << ")\n";
      }
    } else if (cmd == "resolve") {
      std::string res;
      in >> res;
      if (res.empty()) {
        fail("usage: resolve <res>");
        continue;
      }
      auto out = d.client->resolveUri(res);
      if (out.ok()) {
        std::cout << "OK " << res << " -> " << *out.val << "\n";
      } else {
        fail("resolve " + res + ": " + errorName(*out.err));
      }
    } else if (cmd == "ping") {
      std::string spec;
      in >> spec;
      if (spec.empty()) {
        fail("usage: ping <ip:port>");
        continue;
      }
      net::PeerResolution p = d.transport->resolvePeer(spec);
      if (!p.ok()) {
        fail("ping " + spec + ": " + p.errorName());
        continue;
      }
      bool up = core::awaitResult<bool>(
          d.rt0(), [&](std::function<void(bool)> done) {
            d.nodes[0]->pingAddress(p.addr, std::move(done));
          });
      if (up) {
        std::cout << "OK ping " << net::formatAddress(p.addr) << "\n";
      } else {
        fail("ping " + net::formatAddress(p.addr) + ": timeout");
      }
    } else if (cmd == "drop") {
      std::string spec;
      in >> spec;
      net::PeerResolution p = d.transport->resolvePeer(spec);
      if (spec.empty() || !p.ok()) {
        fail("usage: drop <ip:port>" +
             (spec.empty() ? std::string()
                           : std::string(" (") + p.errorName() + ")"));
        continue;
      }
      d.transport->dropPeer(p.addr);
      std::cout << "OK drop " << net::formatAddress(p.addr)
                << " (rules=" << d.transport->droppedPeerCount() << ")\n";
    } else if (cmd == "undrop") {
      std::string spec;
      in >> spec;
      if (spec == "all") {
        usize removed = d.transport->clearDroppedPeers();
        std::cout << "OK undrop all (removed=" << removed << ")\n";
        continue;
      }
      net::PeerResolution p = d.transport->resolvePeer(spec);
      if (spec.empty() || !p.ok()) {
        fail("usage: undrop <ip:port>|all" +
             (spec.empty() ? std::string()
                           : std::string(" (") + p.errorName() + ")"));
        continue;
      }
      bool removed = d.transport->undropPeer(p.addr);
      std::cout << "OK undrop " << net::formatAddress(p.addr)
                << " (removed=" << (removed ? 1 : 0) << ")\n";
    } else if (cmd == "stats") {
      // Protocol state (counters, routing tables) belongs to the loop
      // thread; read it there, like every other protocol-state access.
      core::DharmaClient::Counters cc;
      core::OpCost cost;
      dht::NodeCounters nc;
      usize rt0 = 0;
      d.rt0().awaitDone([&](std::function<void()> done) {
        cc = d.client->counters();
        cost = d.client->totalCost();
        nc = d.nodes[0]->counters();
        rt0 = d.nodes[0]->routing().size();
        done();
      });
      net::UdpStats s = d.transport->stats();
      std::cout << "OK stats: ops=" << cc.ops << " failures=" << cc.failures
                << " lookups=" << cost.lookups << " rt=" << rt0
                << " addr=" << net::formatAddress(d.nodes[0]->address())
                << " droprules=" << d.transport->droppedPeerCount()
                << " cachehits=" << nc.cacheHits
                << " storededup=" << nc.storesDeduplicated
                << " | udp sent=" << s.sent << " received=" << s.received
                << " bytes=" << s.bytesSent
                << " oversize=" << s.droppedOversize
                << " ruledrops=" << s.droppedByRule << "\n";
    } else if (cmd == "stats-json") {
      // One registry snapshot serves every surface: this is the same
      // sampler the /metrics-out JSONL sink and (in the gateway daemon)
      // GET /stats read, so no counter is reachable from only one of them.
      std::string json = core::awaitResult<std::string>(
          d.rt0(), [&](std::function<void(std::string)> done) {
            done(d.sampler->sampleNow().toJson());
          });
      std::cout << "OK stats-json " << json << "\n";
    } else if (cmd == "trace") {
      if (!tracesOn) {
        fail("tracing disabled (--traces off)");
      } else {
        std::cout << "OK trace " << d.traces.renderJson(16) << "\n";
      }
    } else {
      fail("unknown command '" + cmd + "' (try 'help')");
    }
  }

  if (g_stopSignal != 0) {
    std::cout << "OK shutdown signal="
              << (g_stopSignal == SIGTERM ? "term" : "int") << "\n";
  }
  std::cout << (anyError ? "done (with errors)\n" : "done\n");
  return anyError ? 1 : 0;
}
