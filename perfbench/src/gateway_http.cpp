/// gateway_http: the HTTP serving edge. Two keep-alive HTTP/1.1 client
/// threads (closed loop) over loopback TCP into a
/// gateway::GatewayServer assembled the way examples/dharma_gateway.cpp
/// assembles it: the sharded runtime on the default datagram backend,
/// every layer wired to one obs registry, a MaintenanceManager per node,
/// and one DharmaClient on node 0 with the record cache on, behind four
/// gateway workers. Mix: 60% GET /search, 25% GET /resolve, 15% POST
/// /resources/{r}/tags. The t̂/t̄ working set of a 4096-tag Zipf vocabulary
/// is many times the cache's 512 entries, so the cache hits only partly.

#include <cstdio>
#include <map>

#include "bench.hpp"
#include "cluster.hpp"
#include "dht/maintenance.hpp"
#include "gateway/http.hpp"
#include "gateway/http_client.hpp"
#include "gateway/server.hpp"

namespace perfbench {

using namespace dharma;

namespace {

constexpr usize kNodes = 8;
/// Two closed-loop client threads: with one per processor they compete
/// with the shard loops for the cores, and the tail latencies then measure
/// the scheduler more than the system.
constexpr usize kClientThreads = 2;
constexpr usize kResources = 512;
constexpr u32 kVocab = 4096;
constexpr usize kGatewayWorkers = 4;

struct Instance {
  std::unique_ptr<Preload> preload;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<dht::MaintenanceManager>> managers;
  std::unique_ptr<core::DharmaClient> client;
  std::unique_ptr<gateway::GatewayServer> server;

  void stop() {
    // In-flight handlers block through the runtime: drain the gateway
    // before the executors stop.
    if (server) server->stop();
    if (!cluster) return;
    for (usize i = 0; i < managers.size(); ++i) {
      cluster->rtFor(i).awaitDone([&](std::function<void()> done) {
        managers[i]->stop();
        done();
      });
    }
    cluster->shutdown();
  }
};

/// One HTTP request of the mix, as the client sends it.
struct Request {
  enum Kind { kSearch, kResolve, kTag } kind;
  std::string method, target, body, res, tag;
};

Request drawRequest(Rng& rng, const TagVocab& vocab, const Preload& pre) {
  u64 dice = rng.uniform(100);
  if (dice < 60) {
    const std::string& t = vocab.draw(rng);
    return {Request::kSearch, "GET", "/search?tag=" + t, "", "", t};
  }
  if (dice < 85) {
    std::string res = Preload::name(rng.uniform(kResources));
    return {Request::kResolve, "GET", "/resolve/" + res, "", res, ""};
  }
  auto [res, t] = pre.drawAnnotation(rng);
  return {Request::kTag, "POST", "/resources/" + res + "/tags", t, res, t};
}

double setUp(Instance& in, u64 seed, usize shards, bool traced, Report& rep) {
  Clock::time_point t0 = Clock::now();
  in.cluster = std::make_unique<Cluster>(kNodes, shards, seed, true, traced);
  Cluster& c = *in.cluster;
  dht::MaintenanceConfig mcfg;
  for (usize i = 0; i < kNodes; ++i) {
    in.managers.push_back(std::make_unique<dht::MaintenanceManager>(
        c.execs.shard(c.execs.shardOf(i)), c.nodeTransport(), *c.nodes[i], mcfg,
        0x7A00 + i));
    c.rtFor(i).awaitDone([&](std::function<void()> done) {
      in.managers[i]->start();
      done();
    });
  }
  core::DharmaConfig ccfg;
  ccfg.cacheEnabled = true;
  ccfg.metrics = &c.registry;
  in.client = std::make_unique<core::DharmaClient>(c.rtFor(0), *c.nodes[0], ccfg, seed);
  in.preload = std::make_unique<Preload>(kResources, TagVocab(kVocab), seed);
  if (!Cluster::preload(*in.client, *in.preload)) {
    rep.fail("preload insert failed");
  }
  gateway::GatewayConfig gcfg;
  gcfg.port = 0;
  gcfg.workers = kGatewayWorkers;
  gateway::GatewayServer::Deps deps;
  deps.client = in.client.get();
  deps.metrics = &c.registry;
  in.server = std::make_unique<gateway::GatewayServer>(gcfg, deps);
  if (in.server->start() != gateway::StartError::kNone) {
    rep.fail("gateway start: " + in.server->startDetail());
  }
  return secondsSince(t0);
}

/// Runs the mix for \p seconds; counts the tag writes per annotation and
/// the mean client-observed latency of all requests.
std::vector<Window> measure(Instance& in, u64 seed, usize threads, double seconds,
                            Written& written, double& meanUs) {
  std::vector<Written> writes(threads);
  std::vector<double> sumUs(threads, 0);
  std::vector<u64> count(threads, 0);
  TagVocab vocab(kVocab);
  const u16 port = in.server->port();
  auto windows = closedLoop(threads, kSlices, seconds / kSlices, [&](usize w) {
    auto http = std::make_shared<gateway::HttpClient>();
    bool up = http->connect("127.0.0.1", port, 10'000);
    return [&, w, up, http, rng = Rng(seed * 31 + w)]() mutable -> OpDone {
      Request rq = drawRequest(rng, vocab, *in.preload);
      Clock::time_point t0 = Clock::now();
      auto r = up ? http->request(rq.method, rq.target, rq.body) : std::nullopt;
      sumUs[w] += usSince(t0);
      ++count[w];
      bool ok = r && r->status == 200;
      if (rq.kind == Request::kSearch) return {OpDone::kSearch, ok};
      if (rq.kind == Request::kResolve) return {OpDone::kOther, ok};
      if (ok) ++writes[w][rq.res][rq.tag];
      return {OpDone::kTag, ok};
    };
  });
  double sum = 0;
  u64 n = 0;
  for (usize w = 0; w < threads; ++w) {
    sum += sumUs[w];
    n += count[w];
    for (const auto& [r, tags] : writes[w]) {
      for (const auto& [t, k] : tags) written[r][t] += k;
    }
  }
  meanUs = n ? sum / static_cast<double>(n) : 0;
  return windows;
}

/// HttpParser::feed + take per request, timed on the requests of the mix
/// rendered byte for byte as gateway::HttpClient sends them.
double timeParseUs(u64 seed, const Preload& pre) {
  Rng rng(seed);
  TagVocab vocab(kVocab);
  std::vector<std::string> wire;
  for (int i = 0; i < 2048; ++i) {
    Request rq = drawRequest(rng, vocab, pre);
    std::string req = rq.method + " " + rq.target + " HTTP/1.1\r\nHost: gateway\r\n";
    if (!rq.body.empty()) req += "Content-Length: " + std::to_string(rq.body.size()) + "\r\n";
    wire.push_back(req + "\r\n" + rq.body);
  }
  usize sink = 0;
  u64 calls = 0;
  Clock::time_point t0 = Clock::now();
  do {
    gateway::HttpParser parser;
    for (const std::string& req : wire) {
      if (parser.feed(req) == gateway::ParseState::kComplete) {
        sink += parser.take().path.size();
      }
    }
    calls += wire.size();
  } while (secondsSince(t0) < 0.05);
  double us = usSince(t0) / static_cast<double>(calls);
  return sink ? us : -1;  // -1: the parser accepted none of them
}

}  // namespace

Report gatewayHttp(const Args& a) {
  Report rep;
  const usize shards = nproc();
  const usize threads = std::min<usize>(kClientThreads, nproc());
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "gateway_http: nodes=%zu backend=%s shards=%zu client_threads=%zu "
                "keep-alive gateway_workers=%zu cache=on(512) vocab=%u zipf_s=1 "
                "resources=%zu mix=60/25/15 search/resolve/tag",
                kNodes, net::netBackendName(net::defaultNetBackend()), shards, threads,
                kGatewayWorkers, kVocab, kResources);
  rep.line(buf);
  std::vector<Window> windows;
  std::vector<double> setups;
  double untracedOps = 0;
  const usize instances = a.trace ? 2 : 3;
  for (usize i = 0; i < instances; ++i) {
    bool traced = a.trace && i == 1;
    u64 seed = instanceSeed(a, i);
    Instance in;
    setups.push_back(setUp(in, seed, shards, traced, rep));
    Cluster& c = *in.cluster;
    std::unique_ptr<WakeProbe> wake;
    if (traced) {
      c.tap->reset();
      wake = std::make_unique<WakeProbe>(c.execs);
    }
    Written written;
    double meanUs = 0;
    cache::CacheStats cache0;
    u64 lookups0 = 0, retries0 = 0;
    c.rtFor(0).awaitDone([&](std::function<void()> done) {
      cache0 = in.client->cacheStats();
      lookups0 = in.client->totalCost().lookups;
      retries0 = in.client->counters().retries;
      done();
    });
    obs::RegistrySnapshot base = c.registry.snapshot();
    std::vector<Window> ws = measure(in, seed, threads,
                                     a.seconds / static_cast<double>(instances), written,
                                     meanUs);
    if (wake) wake->stop();
    windows.insert(windows.end(), ws.begin(), ws.end());
    Window all = total(ws);
    if (!traced) untracedOps = all.opsPerS();

    if (traced) {
      u64 lookups = 0, retries = 0;
      cache::CacheStats cs;
      c.rtFor(0).awaitDone([&](std::function<void()> done) {
        lookups = in.client->totalCost().lookups - lookups0;
        retries = in.client->counters().retries - retries0;
        cs = in.client->cacheStats();
        done();
      });
      u64 hits = cs.hits - cache0.hits, misses = cs.misses - cache0.misses;
      double parseUs = timeParseUs(seed, *in.preload);
      if (parseUs < 0) rep.fail("HttpParser rejected the rendered requests");
      realtimeLayers(rep, c, base, all, wake->meanUs(), lookups, retries,
                     {{"gateway.parse", parseUs, static_cast<double>(all.ops)}});
      HistSum route = histogramSum(c.registry, base, "dharma_gateway_route_latency_us");
      HistSum engine = histogramSum(c.registry, base, "dharma_client_op_latency_us");
      rep.set("cache.hit_ratio",
              hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                            : 0,
              "ratio");
      rep.note("gateway.parse_us", parseUs, "us");
      rep.note("gateway.route_us", route.mean(), "us");
      rep.note("gateway.engine_us", engine.mean(), "us");
      rep.note("gateway.outside_worker_us", meanUs - route.mean(), "us");
      rep.set("trace.overhead", 1 - all.opsPerS() / untracedOps, "ratio");
      rep.line("n/a on gateway_http (no simulator, no folksonomy model): "
               "net.sim_events_per_op=0, folksonomy.fg_arcs=0");
    }
    u64 checked = 0;
    u64 missing = probeWrites(c, 1, written, checked);
    std::snprintf(buf, sizeof buf,
                  "instance %zu%s: %.1f ops/s; read-your-writes probe: %llu of %llu "
                  "written tags carry exactly their writes",
                  i, traced ? " (traced)" : "", all.opsPerS(),
                  static_cast<unsigned long long>(checked - missing),
                  static_cast<unsigned long long>(checked));
    rep.line(buf);
    if (missing) rep.fail("read-your-writes probe found tag weights off their writes");
    if (checked == 0) rep.fail("no tag write completed");
    in.stop();
  }
  endToEnd(rep, windows, setups, a.trace, Aggregate::kWindowMedian);
  return rep;
}

}  // namespace perfbench
