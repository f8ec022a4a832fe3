/// \file dharma_gateway.cpp
/// \brief The DHARMA HTTP gateway daemon: REST in, overlay ops out.
///
/// Boots a live overlay node (or joins an existing dharma_node cluster),
/// then serves the six REST routes over real TCP sockets through
/// gateway::GatewayServer — the first way to reach a DHARMA overlay
/// without linking the C++ stack:
///
///   $ ./dharma_gateway --bind 127.0.0.1:8080
///   $ curl -X PUT  localhost:8080/resources/song1?tag=rock -d 'http://u'
///   $ curl -X POST localhost:8080/resources/song1/tags -d 'indie'
///   $ curl 'localhost:8080/search?tag=rock&steps=2'
///   $ curl localhost:8080/resolve/song1
///   $ curl localhost:8080/stats      # gateway + engine counters, JSON
///   $ curl localhost:8080/metrics    # Prometheus text exposition
///
/// Flags: --bind ip:port (HTTP; port 0 = ephemeral, printed in the
/// banner), --join ip:port (join a dharma_node cluster), --nodes N
/// (embedded overlay nodes), --workers N (HTTP worker pool), --cache
/// on|off (the PR 4 read-through record cache as this gateway's
/// hot-record shield).
///
/// The overlay underneath is DaemonHost (daemon_host.hpp), the same one
/// dharma_node serves; this file is the HTTP front end on top.
///
/// Threading: gateway workers run blocking DharmaClient calls, which post
/// to the engine loop thread through the runtime — HTTP concurrency never
/// touches engine state directly (the Debug affinity checker enforces it).
///
/// SIGTERM/SIGINT drain gracefully: stop accepting, answer everything in
/// flight, then exit 0 through the same path as `quit`. Startup failures
/// (HTTP or UDP port in use, bad bind address) print one typed ERR line
/// and exit 2 — distinct from protocol errors (1) and clean runs (0).

#include <iostream>
#include <sstream>
#include <string>

#include "daemon_host.hpp"
#include "gateway/server.hpp"

using namespace dharma;

namespace {

/// Splits "ip:port" (port may be 0). Returns false on malformed input.
bool splitHostPort(const std::string& spec, std::string& host, u16& port) {
  usize colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  host = spec.substr(0, colon);
  std::string p = spec.substr(colon + 1);
  if (p.empty() || p.size() > 5) return false;
  u32 v = 0;
  for (char c : p) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<u32>(c - '0');
  }
  if (v > 65535) return false;
  port = static_cast<u16>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << std::unitbuf;

  Options opts(argc, argv);
  std::string bindSpec = opts.getString("bind", "127.0.0.1:8080");
  const auto workersFlag = daemon::readCountFlag(opts, "workers", 4);
  if (!workersFlag) return 2;
  const usize workers = static_cast<usize>(*workersFlag);
  bool cacheOn = opts.getBool("cache", true);
  auto flags = daemon::readHostFlags(opts, 1);
  if (!flags) return 2;

  std::string httpHost;
  u16 httpPort = 0;
  if (!splitHostPort(bindSpec, httpHost, httpPort)) {
    std::cerr << "ERR startup (bad-address): --bind expects ip:port, got '"
              << bindSpec << "'\n";
    return 2;
  }

  daemon::HostSpec spec;
  spec.idPrefix = "gw-";
  spec.nodeSeed = 0xA000;
  spec.managerSeed = 0x7A00;
  spec.samplerSeed = 0xCAFE;
  spec.clientCfg.cacheEnabled = cacheOn;

  // The overlay's UDP sockets bind the same host as the HTTP listener.
  auto host = daemon::DaemonHost::start(httpHost, *flags, spec);
  if (!host) return 2;
  daemon::DaemonHost& d = *host;

  gateway::GatewayConfig gwCfg;
  gwCfg.bindHost = httpHost == "localhost" ? std::string("127.0.0.1")
                                           : httpHost;
  gwCfg.port = httpPort;
  gwCfg.workers = workers;

  gateway::GatewayServer::Deps deps;
  deps.client = d.client.get();
  // Both taps run on gateway worker threads: engine loop-thread state is
  // read via rt.awaitDone (post + wait), exactly like dharma_node's `stats`
  // command; the transport's stats() is internally synchronized.
  deps.engineStatsJson = [&d]() -> std::string {
    const daemon::DaemonHost::EngineCounters e = d.readEngine();
    std::ostringstream out;
    out << "{\"ops\":" << e.client.ops << ",\"failures\":" << e.client.failures
        << ",\"retries\":" << e.client.retries
        << ",\"lookups\":" << e.cost.lookups
        << ",\"servedFromCache\":" << e.cost.servedFromCache
        << ",\"routingTable\":" << e.routingTable
        << ",\"nodeCacheHits\":" << e.node.cacheHits
        << ",\"storesDeduplicated\":" << e.node.storesDeduplicated
        << ",\"clientCache\":{\"hits\":" << e.cache.hits
        << ",\"misses\":" << e.cache.misses
        << ",\"evictions\":" << e.cache.evictions
        << ",\"invalidations\":" << e.cache.invalidations << "}"
        << ",\"udp\":{\"sent\":" << e.udp.sent
        << ",\"received\":" << e.udp.received
        << ",\"bytesSent\":" << e.udp.bytesSent
        << ",\"sendErrors\":" << e.udp.sendErrors << "}}";
    return out.str();
  };
  deps.collectEngine = [&d] {
    d.rt0().awaitDone([&](std::function<void()> done) {
      d.syncEngineOnLoop();
      done();
    });
  };
  deps.metrics = &d.registry;
  deps.sampler = d.sampler.get();
  if (flags->tracesOn) deps.traces = &d.traces;

  gateway::GatewayServer server(gwCfg, deps);
  gateway::StartError se = server.start();
  if (se != gateway::StartError::kNone) {
    std::cerr << "ERR startup (" << gateway::startErrorName(se)
              << "): " << server.startDetail() << "\n";
    return 2;
  }

  // Periodic samples must carry the gateway's own counters too, not just
  // the engine's.
  d.startSampler([&server] { server.publishMetrics(); });

  std::cout << "gateway listening on http://" << gwCfg.bindHost << ":"
            << server.port() << "\n";
  std::cout << "gateway up: " << flags->nodes << " node(s), " << workers
            << " worker(s), cache=" << (cacheOn ? "on" : "off")
            << "; type 'help' for commands\n";

  d.serveCommands([&server](const std::string& cmd, std::istringstream&) {
    if (cmd == "help") {
      std::cout << "OK commands: stats | stats-json | trace | quit (the API "
                   "is HTTP: /resources/{r}, /search, /resolve/{r}, /stats, "
                   "/metrics, /debug/traces)\n";
    } else if (cmd == "stats") {
      gateway::GatewayCounters g = server.counters();
      std::cout << "OK stats: accepted=" << g.connectionsAccepted
                << " closed=" << g.connectionsClosed
                << " dispatched=" << g.requestsDispatched
                << " responses=" << g.responses
                << " parseerrors=" << g.parseErrors
                << " overload=" << g.overloadRejected
                << " drain=" << g.drainRejected << " bytesin=" << g.bytesIn
                << " bytesout=" << g.bytesOut << "\n";
    } else {
      return false;
    }
    return true;
  });

  // Drain BEFORE the engine goes away: in-flight handlers block through
  // the runtime, so the executor must outlive the worker pool.
  server.stop();
  return d.finish();
}
