/// loopback_read: the real-time path the simulator bypasses. Eight
/// KademliaNodes on a ShardedExecutor (one shard per processor) over the
/// default datagram backend on 127.0.0.1. Each client thread (two) blocks
/// on its own node's shard and runs a read-heavy mix: 60% searchStep, 25%
/// resolveUri, 15% tagResource, client cache off. Closed loop: a thread
/// sends its next op when the previous one returns.

#include <cstdio>
#include <map>

#include "bench.hpp"
#include "cluster.hpp"

namespace perfbench {

using namespace dharma;

namespace {

constexpr usize kNodes = 8;
/// Two closed-loop client threads: with one per processor they compete
/// with the shard loops for the cores, and the tail latencies then measure
/// the scheduler more than the system.
constexpr usize kClientThreads = 2;
constexpr usize kResources = 256;
constexpr u32 kVocab = 1024;

struct Instance {
  std::unique_ptr<Preload> preload;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<core::DharmaClient>> clients;

  static usize clientNode(usize w) { return (w + 1) % kNodes; }
};

double setUp(Instance& in, u64 seed, usize shards, usize threads, bool traced,
             Report& rep) {
  Clock::time_point t0 = Clock::now();
  in.cluster = std::make_unique<Cluster>(kNodes, shards, seed, traced, traced);
  Cluster& c = *in.cluster;
  core::DharmaConfig ccfg;
  if (traced) ccfg.metrics = &c.registry;
  for (usize w = 0; w < threads; ++w) {
    usize node = Instance::clientNode(w);
    in.clients.push_back(std::make_unique<core::DharmaClient>(
        c.rtFor(node), *c.nodes[node], ccfg, seed + 100 + w));
  }
  core::DharmaClient loader(c.rtFor(0), *c.nodes[0], {}, seed);
  in.preload = std::make_unique<Preload>(kResources, TagVocab(kVocab), seed);
  if (!Cluster::preload(loader, *in.preload)) {
    rep.fail("preload insert failed");
  }
  return secondsSince(t0);
}

/// Runs the mix for \p seconds; counts the tag writes per annotation.
std::vector<Window> measure(Instance& in, u64 seed, double seconds, Written& written) {
  usize threads = in.clients.size();
  std::vector<Written> writes(threads);
  TagVocab vocab(kVocab);
  auto windows = closedLoop(threads, kSlices, seconds / kSlices, [&](usize w) {
    return [&, w, rng = Rng(seed * 31 + w)]() mutable -> OpDone {
      core::DharmaClient& client = *in.clients[w];
      u64 dice = rng.uniform(100);
      if (dice < 60) return {OpDone::kSearch, client.searchStep(vocab.draw(rng)).ok()};
      if (dice < 85) {
        return {OpDone::kOther,
                client.resolveUri(Preload::name(rng.uniform(kResources))).ok()};
      }
      auto [res, tag] = in.preload->drawAnnotation(rng);
      bool ok = client.tagResource(res, tag).ok();
      if (ok) ++writes[w][res][tag];
      return {OpDone::kTag, ok};
    };
  });
  for (const Written& ws : writes) {
    for (const auto& [r, tags] : ws) {
      for (const auto& [t, n] : tags) written[r][t] += n;
    }
  }
  return windows;
}

}  // namespace

Report loopbackRead(const Args& a) {
  Report rep;
  const usize shards = nproc();
  const usize threads = std::min<usize>(kClientThreads, nproc());
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "loopback_read: nodes=%zu backend=%s shards=%zu client_threads=%zu "
                "vocab=%u zipf_s=1 resources=%zu mix=60/25/15 search/resolve/tag "
                "cache=off",
                kNodes, net::netBackendName(net::defaultNetBackend()), shards,
                threads, kVocab, kResources);
  rep.line(buf);
  std::vector<Window> windows;
  std::vector<double> setups;
  double untracedOps = 0;
  const usize instances = a.trace ? 2 : 3;
  for (usize i = 0; i < instances; ++i) {
    bool traced = a.trace && i == 1;
    u64 seed = instanceSeed(a, i);
    Instance in;
    setups.push_back(setUp(in, seed, shards, threads, traced, rep));
    Cluster& c = *in.cluster;
    std::unique_ptr<WakeProbe> wake;
    if (traced) {
      c.tap->reset();
      wake = std::make_unique<WakeProbe>(c.execs);
    }
    obs::RegistrySnapshot base = c.registry.snapshot();
    Written written;
    std::vector<Window> ws =
        measure(in, seed, a.seconds / static_cast<double>(instances), written);
    if (wake) wake->stop();
    windows.insert(windows.end(), ws.begin(), ws.end());
    Window all = total(ws);
    if (!traced) untracedOps = all.opsPerS();

    if (traced) {
      u64 lookups = 0, retries = 0;
      for (usize k = 0; k < in.clients.size(); ++k) {
        // Client state lives on its node's shard: read it there.
        c.rtFor(Instance::clientNode(k)).awaitDone([&](std::function<void()> done) {
          lookups += in.clients[k]->totalCost().lookups;
          retries += in.clients[k]->counters().retries;
          done();
        });
      }
      realtimeLayers(rep, c, base, all, wake->meanUs(), lookups, retries);
      rep.set("cache.hit_ratio", 0, "ratio");
      rep.set("trace.overhead", 1 - all.opsPerS() / untracedOps, "ratio");
      rep.line("n/a on loopback_read (client cache off, no simulator, no "
               "folksonomy model): cache.hit_ratio=0, net.sim_events_per_op=0, "
               "folksonomy.fg_arcs=0");
    }
    u64 checked = 0;
    u64 missing = probeWrites(c, 0, written, checked);
    std::snprintf(buf, sizeof buf,
                  "instance %zu%s: %.1f ops/s; read-your-writes probe: %llu of %llu "
                  "written tags carry exactly their writes",
                  i, traced ? " (traced)" : "", all.opsPerS(),
                  static_cast<unsigned long long>(checked - missing),
                  static_cast<unsigned long long>(checked));
    rep.line(buf);
    if (missing) rep.fail("read-your-writes probe found tag weights off their writes");
    if (checked == 0) rep.fail("no tag write completed");
    in.clients.clear();
    c.shutdown();
  }
  endToEnd(rep, windows, setups, a.trace, Aggregate::kBestWindow);
  return rep;
}

}  // namespace perfbench
