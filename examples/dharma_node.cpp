/// \file dharma_node.cpp
/// \brief A live DHARMA node daemon on real UDP sockets.
///
/// The first program in this repo where nothing is simulated: sharded
/// real-time executors drive the protocol against the wall clock, a
/// datagram transport (epoll by default, poll with --net-backend poll)
/// moves every RPC through real POSIX sockets, and the same KademliaNode /
/// DharmaClient code that reproduces the paper's numbers in virtual time
/// serves interactive traffic. The overlay itself is built by DaemonHost
/// (daemon_host.hpp), which dharma_gateway shares; this file is the line
/// protocol on top.
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

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "daemon_host.hpp"

using namespace dharma;

namespace {

/// Answers one line-protocol command; false for a command this daemon
/// does not know (the host answers the shared ones).
bool nodeCommand(daemon::DaemonHost& d, const std::string& cmd,
                 std::istringstream& in) {
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
      d.fail("usage: insert <res> <uri> <tag> [tag ...]");
      return true;
    }
    auto out = d.client->insertResource(res, uri, tags);
    if (out.ok()) {
      std::cout << "OK inserted " << res << " (" << tags.size() << " tags, "
                << out.cost.lookups
                << " lookups, minAcks=" << out.value().minReplicas << ")\n";
    } else {
      d.fail("insert " + res + ": " + core::opErrorName(*out.err));
    }
  } else if (cmd == "tag") {
    std::string res, t;
    in >> res;
    std::vector<std::string> tags;
    while (in >> t) tags.push_back(t);
    if (res.empty() || tags.empty()) {
      d.fail("usage: tag <res> <tag> [tag ...]");
      return true;
    }
    auto out = d.client->tagResources(res, tags);
    if (out.ok()) {
      std::cout << "OK tagged " << res << " (+" << tags.size() << " tags, "
                << out.cost.lookups << " lookups)\n";
    } else {
      d.fail("tag " + res + ": " + core::opErrorName(*out.err));
    }
  } else if (cmd == "search") {
    std::string t;
    in >> t;
    if (t.empty()) {
      d.fail("usage: search <tag>");
      return true;
    }
    auto out = d.client->searchStep(t);
    if (!out.ok()) {
      d.fail("search " + t + ": " + core::opErrorName(*out.err));
      return true;
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
      d.fail("usage: resolve <res>");
      return true;
    }
    auto out = d.client->resolveUri(res);
    if (out.ok()) {
      std::cout << "OK " << res << " -> " << *out.val << "\n";
    } else {
      d.fail("resolve " + res + ": " + core::opErrorName(*out.err));
    }
  } else if (cmd == "ping") {
    std::string spec;
    in >> spec;
    if (spec.empty()) {
      d.fail("usage: ping <ip:port>");
      return true;
    }
    net::PeerResolution p = d.transport->resolvePeer(spec);
    if (!p.ok()) {
      d.fail("ping " + spec + ": " + p.errorName());
      return true;
    }
    bool up = core::awaitResult<bool>(
        d.rt0(), [&](std::function<void(bool)> done) {
          d.nodes[0]->pingAddress(p.addr, std::move(done));
        });
    if (up) {
      std::cout << "OK ping " << net::formatAddress(p.addr) << "\n";
    } else {
      d.fail("ping " + net::formatAddress(p.addr) + ": timeout");
    }
  } else if (cmd == "drop") {
    std::string spec;
    in >> spec;
    net::PeerResolution p = d.transport->resolvePeer(spec);
    if (spec.empty() || !p.ok()) {
      d.fail("usage: drop <ip:port>" +
             (spec.empty() ? std::string()
                           : std::string(" (") + p.errorName() + ")"));
      return true;
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
      return true;
    }
    net::PeerResolution p = d.transport->resolvePeer(spec);
    if (spec.empty() || !p.ok()) {
      d.fail("usage: undrop <ip:port>|all" +
             (spec.empty() ? std::string()
                           : std::string(" (") + p.errorName() + ")"));
      return true;
    }
    bool removed = d.transport->undropPeer(p.addr);
    std::cout << "OK undrop " << net::formatAddress(p.addr)
              << " (removed=" << (removed ? 1 : 0) << ")\n";
  } else if (cmd == "stats") {
    const daemon::DaemonHost::EngineCounters e = d.readEngine();
    std::cout << "OK stats: ops=" << e.client.ops
              << " failures=" << e.client.failures
              << " lookups=" << e.cost.lookups << " rt=" << e.routingTable
              << " addr=" << net::formatAddress(d.nodes[0]->address())
              << " droprules=" << d.transport->droppedPeerCount()
              << " cachehits=" << e.node.cacheHits
              << " storededup=" << e.node.storesDeduplicated
              << " | udp sent=" << e.udp.sent << " received=" << e.udp.received
              << " bytes=" << e.udp.bytesSent
              << " oversize=" << e.udp.droppedOversize
              << " ruledrops=" << e.udp.droppedByRule << "\n";
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered protocol over pipes: the cluster harness reads replies as
  // they happen, so every line must leave the process immediately.
  std::cout << std::unitbuf;

  Options opts(argc, argv);
  std::string bindHost = opts.getString("bind", "127.0.0.1");
  auto flags = daemon::readHostFlags(opts, 3);
  if (!flags) return 2;
  daemon::HostSpec spec;
  spec.idPrefix = "node-";
  spec.nodeSeed = 0x9000;
  spec.managerSeed = 0x7000;
  spec.samplerSeed = 0xD0DE;
  spec.maintenance = opts.getBool("maintenance", true);
  const auto refreshMs = daemon::readCountFlag(opts, "refresh-ms", 30'000);
  if (!refreshMs) return 2;
  const auto republishMs =
      daemon::readCountFlag(opts, "republish-ms", 60'000);
  if (!republishMs) return 2;
  spec.maintenanceCfg.bucketRefreshIntervalUs =
      static_cast<net::TimeUs>(*refreshMs) * 1000;
  spec.maintenanceCfg.republishIntervalUs =
      static_cast<net::TimeUs>(*republishMs) * 1000;

  auto host = daemon::DaemonHost::start(bindHost, *flags, spec);
  if (!host) return 2;
  daemon::DaemonHost& d = *host;
  d.startSampler();

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

  std::cout << "cluster up: " << flags->nodes
            << " node(s); type 'help' for commands\n";

  d.serveCommands([&d](const std::string& cmd, std::istringstream& in) {
    return nodeCommand(d, cmd, in);
  });
  return d.finish();
}
