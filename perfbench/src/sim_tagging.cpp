/// sim_tagging: the protocol engine alone. A 64-node overlay on the
/// deterministic simulator with constant latency, one thread, four
/// DharmaClients taking turns on a write-heavy mix (60% tagResource, 30%
/// searchStep, 10% resolveUri) with the approximated protocol at k=1.
/// One op is in flight at a time, so an op's wall time is the engine's CPU
/// cost for it: envelope codec, credential verify, BlockStore apply,
/// routing and the simulator's event queue, with no syscalls or wakeups.
///
/// The overlay is assembled exactly as dht::DhtNetwork assembles it (same
/// credentials, seeds and join order), from its public parts, so that the
/// traced run can put a Tap between the nodes and the simulated network.
/// Its topology is fixed, as a deployment's is: a seeded topology moved an
/// op's cost by up to 30% from one overlay to the next, which would measure
/// the overlay rather than the code. --seed drives the preload and the ops.

#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/client.hpp"
#include "core/keys.hpp"
#include "crypto/sha1.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "tap.hpp"

namespace perfbench {

using namespace dharma;

namespace {

constexpr usize kNodes = 64;
constexpr usize kClients = 4;
constexpr usize kResources = 256;
constexpr u32 kVocab = 1024;
constexpr u32 kK = 1;
/// DhtNetwork seed the overlay's credentials, node and network seeds derive
/// from.
constexpr u64 kTopologySeed = 42;
/// Ops after which every instance records its block digest and counters:
/// a fixed prefix, so those figures repeat exactly per seed.
constexpr u64 kCheckpointOps = 1000;

struct Overlay {
  net::Simulator sim;
  net::ConstantLatency latency{20000};
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Tap> tap;
  crypto::CertificationService cs;
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes;
  std::unique_ptr<core::SimRuntime> rt;
  std::vector<std::unique_ptr<core::DharmaClient>> clients;
  std::unique_ptr<Preload> preload;

  /// \p seed drives the clients' own random choices (Approximation A's
  /// subset, retry backoff).
  Overlay(u64 seed, bool traced)
      : cs("cs-secret-" + std::to_string(kTopologySeed),
           "likir-" + std::to_string(kTopologySeed)) {
    network = std::make_unique<net::Network>(sim, latency, net::Network::Config{},
                                             splitmix64(kTopologySeed ^ 0xbeef));
    net::Transport* tr = network.get();
    if (traced) {
      tap = std::make_unique<Tap>(*network);
      tr = tap.get();
    }
    dht::NodeConfig ncfg;
    if (traced) ncfg.metrics = &registry;
    for (usize i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<dht::KademliaNode>(
          sim, *tr, cs, cs.enroll("user-" + std::to_string(i)), ncfg,
          splitmix64(kTopologySeed + 1000 + i)));
    }
    dht::Contact seedContact = nodes[0]->contact();
    for (usize i = 1; i < kNodes; ++i) {
      bool done = false;
      nodes[i]->join(seedContact, [&] { done = true; });
      while (!done && sim.step()) {
      }
    }
    sim.run();
    rt = std::make_unique<core::SimRuntime>(sim, *network);
    core::DharmaConfig ccfg;
    ccfg.k = kK;
    if (traced) ccfg.metrics = &registry;
    for (usize c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<core::DharmaClient>(
          *rt, *nodes[1 + c * (kNodes / kClients)], ccfg, seed + 100 + c));
    }
  }

  u64 lookups() const {
    u64 n = 0;
    for (const auto& c : clients) n += c->totalCost().lookups;
    return n;
  }

  /// SHA-1 over every node's stored blocks, in node and key order.
  std::string digest() const {
    crypto::Sha1 h;
    for (const auto& n : nodes) {
      for (const dht::NodeId& key : n->store().keys()) {
        h.update(key.toHex());
        auto view = n->store().query(key, dht::GetOptions{});
        if (!view) continue;
        h.update(view->payload);
        for (const auto& e : view->entries) {
          h.update(e.name);
          h.update(std::to_string(e.weight));
        }
      }
    }
    auto d = h.finish();
    std::string hex;
    char b[3];
    for (u8 x : d) {
      std::snprintf(b, sizeof b, "%02x", x);
      hex += b;
    }
    return hex;
  }
};

struct Checkpoint {
  std::string digest;
  u64 lookups = 0, events = 0, rpcs = 0;
};

/// Boots and preloads one instance; returns its set-up seconds.
double setUp(std::unique_ptr<Overlay>& ov, u64 seed, bool traced, Report& rep) {
  Clock::time_point t0 = Clock::now();
  ov = std::make_unique<Overlay>(seed, traced);
  ov->preload = std::make_unique<Preload>(kResources, TagVocab(kVocab), seed);
  for (usize r = 0; r < kResources; ++r) {
    std::string name = Preload::name(r);
    auto out = ov->clients[0]->insertResource(name, "uri://" + name, ov->preload->tags(r));
    if (!out.ok()) rep.fail("preload insert of " + name);
  }
  return secondsSince(t0);
}

/// Runs ops for \p seconds (and at least to the checkpoint); checks every
/// op's Table I cost.
Window measure(Overlay& ov, u64 seed, double seconds, Report& rep, Checkpoint& cp,
               obs::RegistrySnapshot& base) {
  // The seeded op stream: every instance of one seed replays the same ops.
  Rng rng(seed * 31 + 5);
  TagVocab vocab(kVocab);
  Window w;
  if (ov.tap) ov.tap->reset();
  base = ov.registry.snapshot();
  u64 lookups0 = ov.lookups();
  u64 events0 = ov.sim.executed();
  double cpu0 = cpuSeconds();
  Clock::time_point start = Clock::now();
  u64 costErrors = 0;
  while (w.ops < kCheckpointOps || secondsSince(start) < seconds) {
    core::DharmaClient& client = *ov.clients[w.ops % kClients];
    u64 dice = rng.uniform(100);
    Clock::time_point t0 = Clock::now();
    bool ok = false;
    u64 cost = 0, expect = 0;
    if (dice < 60) {
      auto [res, tag] = ov.preload->drawAnnotation(rng);
      auto out = client.tagResource(res, tag);
      w.tag.add(usSince(t0));
      ok = out.ok();
      cost = out.cost.lookups;
      expect = 4 + kK;
    } else if (dice < 90) {
      auto out = client.searchStep(vocab.draw(rng));
      w.search.add(usSince(t0));
      ok = out.ok();
      cost = out.cost.lookups;
      expect = 2;
    } else {
      auto out = client.resolveUri(Preload::name(rng.uniform(kResources)));
      ok = out.ok();
      cost = out.cost.lookups;
      expect = 1;
    }
    ++w.ops;
    if (!ok) ++w.failed;
    if (ok && cost != expect) ++costErrors;
    if (w.ops == kCheckpointOps) {
      cp.digest = ov.digest();
      cp.lookups = ov.lookups() - lookups0;
      cp.events = ov.sim.executed() - events0;
      cp.rpcs = ov.tap ? ov.tap->totals().requests : 0;
    }
  }
  w.wallS = secondsSince(start);
  w.cpuS = cpuSeconds() - cpu0;
  if (costErrors) {
    rep.fail(std::to_string(costErrors) +
             " ops broke the Table I identities (search 2, resolve 1, tag 4+k)");
  }
  return w;
}

}  // namespace

Report simTagging(const Args& a) {
  Report rep;
  rep.line("sim_tagging: nodes=64 clients=4 latency=constant k=1 vocab=1024 "
           "zipf_s=1 resources=256 mix=60/30/10 tag/search/resolve backend=sim "
           "shards=1 threads=1");
  std::vector<Window> windows;
  std::vector<double> setups;
  auto report = [&](const char* what, const Checkpoint& cp) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s: digest after %llu ops %s, lookups %llu, sim events %llu", what,
                  static_cast<unsigned long long>(kCheckpointOps), cp.digest.c_str(),
                  static_cast<unsigned long long>(cp.lookups),
                  static_cast<unsigned long long>(cp.events));
    rep.line(buf);
  };
  auto same = [](const Checkpoint& x, const Checkpoint& y) {
    return x.digest == y.digest && x.lookups == y.lookups && x.events == y.events;
  };
  // Untraced: four instances, each preloaded and driven from its own seed,
  // a quarter of the time on each; then instance 0's seed once more up to
  // the checkpoint,
  // which must repeat exactly. Traced: an untraced and a traced instance of
  // the run's seed, half the time each, which must agree at the checkpoint.
  const usize instances = a.trace ? 2 : 4;
  Checkpoint first;
  for (usize i = 0; i < instances; ++i) {
    bool traced = a.trace && i == 1;
    std::unique_ptr<Overlay> ov;
    setups.push_back(setUp(ov, instanceSeed(a, i), traced, rep));
    Checkpoint cp;
    obs::RegistrySnapshot base;
    windows.push_back(measure(*ov, instanceSeed(a, i),
                              a.seconds / static_cast<double>(instances), rep, cp, base));
    report(traced ? "traced instance" : "instance", cp);
    if (i == 0) first = cp;
    if (traced && !same(cp, first)) rep.fail("the traced instance diverged from the untraced one");
    if (!traced) continue;

    // Per-layer figures of the traced instance: counts over the fixed
    // checkpoint prefix, times over its whole window.
    Window& w = windows.back();
    double ops = static_cast<double>(w.ops);
    double cpuUs = w.cpuS * 1e6;
    u64 retries = 0;
    for (const auto& c : ov->clients) retries += c->counters().retries;
    ov->tap->stopCapture();
    LayerCosts costs = timeLayers(ov->tap->captured(), ov->cs);
    overlayLayers(rep, *ov->tap, costs, ov->registry, base, ops, cpuUs);
    rep.set("core.lookups_per_op",
            static_cast<double>(cp.lookups) / static_cast<double>(kCheckpointOps),
            "count");
    rep.set("dht.rpcs_per_op",
            static_cast<double>(cp.rpcs) / static_cast<double>(kCheckpointOps), "count");
    rep.set("net.sim_events_per_op",
            static_cast<double>(cp.events) / static_cast<double>(kCheckpointOps),
            "count");
    rep.set("core.retries_per_op", static_cast<double>(retries) / ops, "count");
    rep.set("cache.hit_ratio", 0, "ratio");
    rep.set("net.recv_batch", 1, "count");
    rep.set("folksonomy.fg_arcs", 0, "count");
    rep.set("trace.overhead", 1 - w.opsPerS() / windows[0].opsPerS(), "ratio");
    rep.line("n/a on sim_tagging (no client cache, no real transport, no "
             "folksonomy model): cache.hit_ratio=0, folksonomy.fg_arcs=0; "
             "net.recv_batch=1 (the simulator delivers one datagram per event)");
  }
  if (!a.trace) {
    std::unique_ptr<Overlay> ov;
    setups.push_back(setUp(ov, instanceSeed(a, 0), false, rep));
    Checkpoint cp;
    obs::RegistrySnapshot base;
    Window replay = measure(*ov, instanceSeed(a, 0), 0, rep, cp, base);
    report("instance 0 again", cp);
    if (!same(cp, first)) rep.fail("instance 0 did not repeat at the checkpoint");
    rep.attempted += replay.ops;
    rep.failed += replay.failed;
  }
  endToEnd(rep, windows, setups, a.trace, Aggregate::kPooled);
  return rep;
}

}  // namespace perfbench
