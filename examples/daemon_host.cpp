/// \file daemon_host.cpp
/// \brief DaemonHost: the overlay stack and stdin plumbing dharma_node and
/// dharma_gateway share.

#include "daemon_host.hpp"

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstring>
#include <iostream>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace dharma::daemon {

namespace {

/// Signal number of the pending graceful-stop request (0 = none). Written
/// by the signal handler, read by the command loop.
volatile std::sig_atomic_t g_stopSignal = 0;

/// Self-pipe: the handler writes one byte to the write end, and the command
/// loop polls the read end beside stdin. A signal that lands after the
/// loop's last stop check but before it blocks still wakes it.
int g_stopPipe[2] = {-1, -1};

sigset_t stopSet() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  return set;
}

void onStopSignal(int sig) {
  g_stopSignal = sig;
  const int savedErrno = errno;
  const char byte = 1;
  const ssize_t wrote = ::write(g_stopPipe[1], &byte, 1);
  (void)wrote;  // a full pipe already holds a wake-up
  errno = savedErrno;
}

/// Graceful-stop plumbing, in three steps: block the signals (so the
/// executor/receiver threads spawned during boot inherit the blocked mask),
/// install the handlers (which set g_stopSignal and write the self-pipe
/// that wakes the command loop), and unblock on the main thread only once
/// boot is done — making main the one thread that takes delivery.
bool installStopSignals() {
  if (::pipe(g_stopPipe) != 0) {
    std::cerr << "ERR startup: pipe: " << std::strerror(errno) << "\n";
    return false;
  }
  for (int fd : g_stopPipe) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(g_stopPipe[1], F_SETFL, O_NONBLOCK);
  const sigset_t set = stopSet();
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  struct sigaction sa{};
  sa.sa_handler = onStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  return true;
}

void acceptStopSignals() {
  const sigset_t set = stopSet();
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
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

}  // namespace

std::optional<u64> readCountFlag(const Options& opts, const std::string& key,
                                 u64 fallback) {
  const std::string v = opts.getString(key, "");
  if (v.empty()) return fallback;
  u64 out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || end != v.data() + v.size()) {
    std::cerr << "bad --" << key << " '" << v
              << "' (want a non-negative integer)\n";
    return std::nullopt;
  }
  return out;
}

std::optional<HostFlags> readHostFlags(const Options& opts,
                                       usize defaultNodes) {
  // Short-circuit: the first bad value is the one error line.
  auto count = [&opts](const char* key, u64 fallback, u64& out) {
    const auto v = readCountFlag(opts, key, fallback);
    if (v) out = *v;
    return v.has_value();
  };
  u64 nodes = 0;
  u64 joinRetries = 0;
  u64 rpcTimeoutMs = 0;
  u64 shards = 0;
  HostFlags f;
  if (!count("nodes", defaultNodes, nodes) ||
      !count("join-retries", 5, joinRetries) ||
      !count("rpc-timeout-ms", 1500, rpcTimeoutMs) ||
      !count("stats-interval-ms", 0, f.statsIntervalMs) ||
      !count("shards", 1, shards)) {
    return std::nullopt;
  }
  f.nodes = static_cast<usize>(nodes);
  f.joinSpec = opts.getString("join", "");
  f.joinRetries = static_cast<usize>(joinRetries);
  f.rpcTimeoutUs = static_cast<net::TimeUs>(rpcTimeoutMs) * 1000;
  f.metricsOutPath = opts.getString("metrics-out", "");
  f.tracesOn = opts.getBool("traces", true);
  f.shards = static_cast<usize>(shards);
  std::string backendName = opts.getString(
      "net-backend", net::netBackendName(net::defaultNetBackend()));
  auto backend = net::parseNetBackend(backendName);
  if (!backend || !net::netBackendAvailable(*backend)) {
    const bool epoll = net::netBackendAvailable(net::NetBackend::kEpoll);
    std::cerr << "bad --net-backend '" << backendName << "' (want: poll"
              << (epoll ? " | epoll" : "") << ")\n";
    return std::nullopt;
  }
  f.backend = *backend;
  if (f.nodes == 0 || f.shards == 0) {
    std::cerr << "--nodes and --shards must be >= 1\n";
    return std::nullopt;
  }
  return f;
}

std::unique_ptr<DaemonHost> DaemonHost::start(const std::string& bindHost,
                                              const HostFlags& flags,
                                              HostSpec spec) {
  if (!installStopSignals()) return nullptr;
  // Transport/socket failures at boot (bad --bind host, fd exhaustion) are
  // typed: one crisp ERR line and exit 2 — the startup-failure code,
  // distinct from protocol errors (1) — never an uncaught-exception abort.
  std::unique_ptr<DaemonHost> host;
  try {
    host = std::make_unique<DaemonHost>(bindHost, flags, std::move(spec));
    if (!host->boot()) return nullptr;
  } catch (const net::TransportError& e) {
    std::cerr << "ERR startup (" << e.kindName() << "): " << e.what() << "\n";
    return nullptr;
  }
  host->createSampler();
  return host;
}

DaemonHost::DaemonHost(const std::string& bindHost, const HostFlags& flags,
                       HostSpec spec)
    : flags(flags),
      spec(std::move(spec)),
      execs(net::ShardedExecutor::Config{flags.shards, &registry}),
      transport(net::makeDatagramTransport(
          flags.backend, execs.shard(0),
          net::UdpConfig{bindHost, 1400, &registry})),
      rt(execs, *transport) {}

DaemonHost::~DaemonHost() {
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
  // queues. A front end that blocks through the runtime (the gateway's
  // workers) must already be stopped by now.
  execs.stop();
  for (auto& m : managers) m->stop();
  transport->close();
}

bool DaemonHost::boot() {
  execs.start();
  dht::NodeConfig nodeCfg;
  nodeCfg.rpcTimeoutUs = flags.rpcTimeoutUs;
  nodeCfg.metrics = &registry;
  if (flags.tracesOn) nodeCfg.traces = &traces;
  // Distinct user ids per process so two daemons on one host never
  // collide in id space.
  std::string prefix = spec.idPrefix + std::to_string(::getpid()) + "-";
  for (usize i = 0; i < flags.nodes; ++i) {
    // Node i is born onto its shard and never leaves it: the executor
    // reference IS the affinity, and registerEndpoint routes the node's
    // datagrams to the same place.
    nodes.push_back(std::make_unique<dht::KademliaNode>(
        execs.shard(shardOf(i)), *transport, cs,
        cs.enroll(prefix + std::to_string(i)), nodeCfg, spec.nodeSeed + i));
    std::cout << "node " << i << " listening on "
              << net::formatAddress(nodes[i]->address()) << "\n";
  }

  if (!flags.joinSpec.empty()) {
    net::PeerResolution peer = transport->resolvePeer(flags.joinSpec);
    if (!peer.ok()) {
      std::cout << "ERR bad --join spec '" << flags.joinSpec << "' ("
                << peer.errorName() << ")\n";
      return false;
    }
    // Learn the peer's node id with a bootstrap ping, then the usual
    // self-lookup join through the enrolled contact. Retried: the peer
    // process may still be booting when we come up (cluster harness
    // restarts race their bootstrap target's socket).
    bool up = false;
    for (usize attempt = 0; attempt < flags.joinRetries && !up; ++attempt) {
      up = core::awaitResult<bool>(rt0(), [&](std::function<void(bool)> done) {
        nodes[0]->pingAddress(peer.addr, std::move(done));
      });
    }
    if (!up) {
      std::cout << "ERR join peer " << flags.joinSpec << " did not answer\n";
      return false;
    }
    rt0().awaitDone([&](std::function<void()> done) {
      nodes[0]->findNode(nodes[0]->id(),
                         [done = std::move(done)](dht::LookupResult) {
                           done();
                         });
    });
    std::cout << "joined cluster via " << flags.joinSpec << "\n";
  }
  for (usize i = 1; i < nodes.size(); ++i) {
    dht::Contact seed = nodes[0]->contact();
    // Each join waits on the joining node's OWN shard; the RPCs cross
    // shards over the transport like any other wire traffic.
    rtFor(i).awaitDone([&](std::function<void()> done) {
      nodes[i]->join(seed, std::move(done));
    });
  }

  if (spec.maintenance) {
    for (usize i = 0; i < nodes.size(); ++i) {
      managers.push_back(std::make_unique<dht::MaintenanceManager>(
          execs.shard(shardOf(i)), *transport, *nodes[i], spec.maintenanceCfg,
          spec.managerSeed + i));
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

  core::DharmaConfig clientCfg = spec.clientCfg;
  clientCfg.metrics = &registry;
  if (flags.tracesOn) clientCfg.traces = &traces;
  client = std::make_unique<core::DharmaClient>(rt0(), *nodes[0], clientCfg);
  return true;
}

void DaemonHost::createSampler() {
  obs::SamplerConfig sc;
  sc.intervalUs =
      (flags.statsIntervalMs == 0 ? 1000 : flags.statsIntervalMs) * 1000;
  sc.seed = spec.samplerSeed;
  // The sampler ticks on shard 0 — where nodes[0] and the client live, so
  // its collect hook reads their counters with the right affinity.
  sampler = std::make_unique<obs::MetricsSampler>(execs.shard(0), registry,
                                                  sc);
  if (flags.metricsOutPath.empty()) return;
  metricsOut = std::make_shared<std::ofstream>(
      flags.metricsOutPath, std::ios::out | std::ios::trunc);
  if (!*metricsOut) {
    std::cout << "ERR cannot open --metrics-out '" << flags.metricsOutPath
              << "'\n";
    metricsOut.reset();
  } else {
    sampler->addSink([out = metricsOut](const obs::Sample& sample) {
      *out << sample.toJson() << "\n";
      out->flush();
    });
  }
}

void DaemonHost::startSampler(std::function<void()> alsoCollect) {
  sampler->setCollect([this, also = std::move(alsoCollect)] {
    syncEngineOnLoop();
    if (also) also();
  });
  if (flags.statsIntervalMs == 0) return;
  rt0().awaitDone([&](std::function<void()> done) {
    sampler->start();
    done();
  });
}

DaemonHost::EngineCounters DaemonHost::readEngine() {
  return core::awaitResult<EngineCounters>(
      rt0(), [&](std::function<void(EngineCounters)> done) {
        done(readEngineOnLoop());
      });
}

DaemonHost::EngineCounters DaemonHost::readEngineOnLoop() {
  EngineCounters e;
  e.client = client->counters();
  e.cost = client->totalCost();
  e.node = nodes[0]->counters();
  e.cache = client->cacheStats();
  e.routingTable = nodes[0]->routing().size();
  e.udp = transport->stats();
  return e;
}

void DaemonHost::syncEngineOnLoop() {
  const EngineCounters e = readEngineOnLoop();
  const struct {
    const char* family;
    const char* help;
    u64 value;
  } mirror[] = {
      {"dharma_client_ops_total", "Protocol operations completed",
       e.client.ops},
      {"dharma_client_failures_total", "Operations returning an error",
       e.client.failures},
      {"dharma_client_lookups_total", "Overlay lookups paid (Table I unit)",
       e.cost.lookups},
      {"dharma_client_cache_hits_total",
       "Reads served by the client record cache", e.cache.hits},
      {"dharma_client_cache_misses_total", "Client record cache misses",
       e.cache.misses},
      {"dharma_node_cache_hits_total", "GETs answered from the node-side cache",
       e.node.cacheHits},
      {"dharma_node_stores_deduplicated_total",
       "Replayed STOREs acked without re-applying", e.node.storesDeduplicated},
      {"dharma_node_rpcs_sent_total", "RPC requests sent", e.node.rpcsSent},
      {"dharma_node_timeouts_total", "RPCs that timed out", e.node.timeouts},
      {"dharma_udp_datagrams_sent_total", "Datagrams accepted by sendto()",
       e.udp.sent},
      {"dharma_udp_datagrams_received_total",
       "Datagrams handed to an endpoint handler", e.udp.received},
      {"dharma_udp_bytes_sent_total", "Payload bytes accepted",
       e.udp.bytesSent},
  };
  for (const auto& m : mirror) registry.counter(m.family, m.help).set(m.value);
}

void DaemonHost::serveCommands(
    const std::function<bool(const std::string& cmd,
                             std::istringstream& args)>& handle) {
  acceptStopSignals();
  StdinLines input;
  std::string line;
  while (input.next(line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (handle(cmd, in)) continue;

    if (cmd == "stats-json") {
      // One registry snapshot serves every surface: this is the same
      // sampler the --metrics-out JSONL sink and the gateway's GET /stats
      // read, so no counter is reachable from only one of them. Its
      // collect hook runs the engine mirror, once.
      std::string json = core::awaitResult<std::string>(
          rt0(), [&](std::function<void(std::string)> done) {
            done(sampler->sampleNow().toJson());
          });
      std::cout << "OK stats-json " << json << "\n";
    } else if (cmd == "trace") {
      if (!flags.tracesOn) {
        fail("tracing disabled (--traces off)");
      } else {
        std::cout << "OK trace " << traces.renderJson(16) << "\n";
      }
    } else {
      fail("unknown command '" + cmd + "' (try 'help')");
    }
  }
  if (g_stopSignal != 0) {
    std::cout << "OK shutdown signal="
              << (g_stopSignal == SIGTERM ? "term" : "int") << "\n";
  }
}

void DaemonHost::fail(const std::string& what) {
  anyError = true;
  std::cout << "ERR " << what << "\n";
}

int DaemonHost::finish() const {
  std::cout << (anyError ? "done (with errors)\n" : "done\n");
  return anyError ? 1 : 0;
}

}  // namespace dharma::daemon
