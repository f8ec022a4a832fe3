#include "cluster.hpp"

#include "core/keys.hpp"

namespace perfbench {

using namespace dharma;

Cluster::Cluster(usize n, usize shards, u64 seed, bool obsOn, bool tapOn)
    : execs(net::ShardedExecutor::Config{shards, obsOn ? &registry : nullptr}) {
  execs.start();
  transport = net::makeDatagramTransport(
      net::defaultNetBackend(), execs.shard(0),
      net::UdpConfig{"127.0.0.1", 1400, obsOn ? &registry : nullptr});
  if (tapOn) tap = std::make_unique<Tap>(*transport);
  rt = std::make_unique<core::ShardedRuntime>(execs, *transport);
  dht::NodeConfig ncfg;
  if (obsOn) ncfg.metrics = &registry;
  for (usize i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<dht::KademliaNode>(
        execs.shard(execs.shardOf(i)), nodeTransport(), cs,
        cs.enroll("node-" + std::to_string(i)), ncfg, seed * 1000 + i));
  }
  dht::Contact seedContact = nodes[0]->contact();
  for (usize i = 1; i < n; ++i) {
    rtFor(i).awaitDone([&](std::function<void()> done) {
      nodes[i]->join(seedContact, std::move(done));
    });
  }
}

void Cluster::shutdown() {
  execs.stop();
  if (transport) transport->close();
}

bool Cluster::preload(core::DharmaClient& client, const Preload& pre) {
  for (usize r = 0; r < pre.size(); ++r) {
    std::string name = Preload::name(r);
    if (!client.insertResource(name, "uri://" + name, pre.tags(r)).ok()) return false;
  }
  return true;
}

std::vector<Window> closedLoop(usize threads, usize slices, double sliceS,
                               const std::function<std::function<OpDone()>(usize)>& makeOp) {
  auto sliceLen =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(sliceS));
  std::vector<std::vector<Window>> per(threads, std::vector<Window>(slices));
  std::vector<double> cpuAt(slices + 1);
  const Clock::time_point start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupS));
  const Clock::time_point end = start + sliceLen * static_cast<long>(slices);
  std::vector<std::thread> pool;
  for (usize w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      std::function<OpDone()> op = makeOp(w);
      for (;;) {
        Clock::time_point t0 = Clock::now();
        OpDone d = op();
        Clock::time_point t1 = Clock::now();
        if (t1 >= end) break;  // an op that ends past the last slice is not counted
        if (t1 < start) continue;
        Window& win = per[w][static_cast<usize>((t1 - start) / sliceLen)];
        double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (d.cls == OpDone::kSearch) win.search.add(us);
        if (d.cls == OpDone::kTag) win.tag.add(us);
        ++win.ops;
        if (!d.ok) ++win.failed;
      }
    });
  }
  std::this_thread::sleep_until(start);
  cpuAt[0] = cpuSeconds();
  for (usize k = 1; k <= slices; ++k) {
    std::this_thread::sleep_until(start + sliceLen * static_cast<long>(k));
    cpuAt[k] = cpuSeconds();
  }
  for (auto& t : pool) t.join();
  std::vector<Window> out(slices);
  for (usize k = 0; k < slices; ++k) {
    out[k].wallS = sliceS;
    out[k].cpuS = cpuAt[k + 1] - cpuAt[k];
    for (usize w = 0; w < threads; ++w) {
      out[k].ops += per[w][k].ops;
      out[k].failed += per[w][k].failed;
      out[k].search.merge(per[w][k].search);
      out[k].tag.merge(per[w][k].tag);
    }
  }
  return out;
}

u64 probeWrites(Cluster& c, usize via, const Written& written, u64& checked) {
  u64 missing = 0;
  dht::KademliaNode& node = *c.nodes[via];
  for (const auto& [res, tags] : written) {
    dht::NodeId key = core::blockKey(res, core::BlockType::kResourceTags);
    auto got = core::awaitResult<dht::GetResult>(
        c.rtFor(via), [&](std::function<void(dht::GetResult)> done) {
          node.get(key, dht::GetOptions{}, std::move(done));
        });
    for (const auto& [t, writes] : tags) {
      ++checked;
      if (!got.view || got.view->weightOf(t) != 1 + writes) ++missing;
    }
  }
  return missing;
}

WakeProbe::WakeProbe(net::ShardedExecutor& execs) : execs_(execs) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      for (usize s = 0; s < execs_.shardCount(); ++s) {
        Clock::time_point posted = Clock::now();
        inFlight_.fetch_add(1);
        execs_.shard(s).schedule(0, [this, posted] {
          sumNs_.fetch_add(static_cast<u64>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - posted)
                  .count()));
          count_.fetch_add(1);
          inFlight_.fetch_sub(1);
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Every posted no-op refers to this probe: wait until all have run.
    while (inFlight_.load() != 0) std::this_thread::yield();
  });
}

void WakeProbe::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double WakeProbe::meanUs() const {
  u64 n = count_.load();
  return n ? static_cast<double>(sumNs_.load()) / 1e3 / static_cast<double>(n) : 0;
}

void realtimeLayers(Report& rep, Cluster& c, const obs::RegistrySnapshot& base,
                    const Window& all, double wakeUs, u64 lookups, u64 retries,
                    std::vector<LedgerRow> extra) {
  double ops = static_cast<double>(all.ops);
  c.tap->stopCapture();
  HistSum batch = histogramSum(c.registry, base, "dharma_udp_recv_batch_datagrams");
  HistSum batchUs = histogramSum(c.registry, base, "dharma_udp_recv_batch_us");
  extra.push_back({"net.recv_batch", batchUs.mean(), static_cast<double>(batchUs.count)});
  overlayLayers(rep, *c.tap, timeLayers(c.tap->captured(), c.cs), c.registry, base, ops,
                all.cpuS * 1e6, extra);
  rep.set("core.lookups_per_op", static_cast<double>(lookups) / ops, "count");
  rep.set("core.retries_per_op", static_cast<double>(retries) / ops, "count");
  rep.set("net.recv_batch", batch.mean(), "count");
  rep.set("net.sim_events_per_op", 0, "count");
  rep.set("folksonomy.fg_arcs", 0, "count");
  rep.note("net.task_wait_us",
           histogramSum(c.registry, base, "dharma_node_shard_task_wait_us").mean(), "us");
  rep.note("net.task_run_us",
           histogramSum(c.registry, base, "dharma_node_shard_task_run_us").mean(), "us");
  rep.note("net.wake_us", wakeUs, "us");
}

}  // namespace perfbench
