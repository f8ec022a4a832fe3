/// Micro-benchmarks (google-benchmark) for the substrate layers: overlay
/// lookup/PUT/GET cost vs network size, FG derivation throughput, and the
/// Kendall-tau kernel. These are not paper experiments; they characterise
/// the simulator so the experiment benches' runtimes are explainable.

#include <benchmark/benchmark.h>

#include "analysis/rank.hpp"
#include "core/client.hpp"
#include "crypto/hmac.hpp"
#include "crypto/identity.hpp"
#include "dht/routing_table.hpp"
#include "dht/rpc.hpp"
#include "folksonomy/derive.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace dharma;

std::unique_ptr<dht::DhtNetwork> makeOverlay(usize nodes) {
  dht::DhtNetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 42;
  cfg.latency = "constant";
  cfg.constantLatencyUs = 1000;
  auto net = std::make_unique<dht::DhtNetwork>(cfg);
  net->bootstrap();
  return net;
}

void BM_DhtPut(benchmark::State& state) {
  auto net = makeOverlay(static_cast<usize>(state.range(0)));
  u64 i = 0;
  u64 rpcsBefore = net->totalRpcsSent();
  for (auto _ : state) {
    dht::NodeId key = dht::NodeId::fromString("put-" + std::to_string(i++));
    benchmark::DoNotOptimize(net->putBlocking(
        i % net->size(), key,
        dht::StoreToken{dht::TokenKind::kIncrement, "e", 1, {}}));
  }
  state.counters["rpcs/op"] =
      static_cast<double>(net->totalRpcsSent() - rpcsBefore) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DhtPut)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_DhtGet(benchmark::State& state) {
  auto net = makeOverlay(static_cast<usize>(state.range(0)));
  dht::NodeId key = dht::NodeId::fromString("hot");
  net->putBlocking(0, key, dht::StoreToken{dht::TokenKind::kIncrement, "e", 1, {}});
  u64 i = 0;
  u64 rpcsBefore = net->totalRpcsSent();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->getBlocking(++i % net->size(), key));
  }
  state.counters["rpcs/op"] =
      static_cast<double>(net->totalRpcsSent() - rpcsBefore) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DhtGet)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_DhtBootstrap(benchmark::State& state) {
  for (auto _ : state) {
    auto net = makeOverlay(static_cast<usize>(state.range(0)));
    benchmark::DoNotOptimize(net->totalRpcsSent());
  }
}
BENCHMARK(BM_DhtBootstrap)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_TagOperation(benchmark::State& state) {
  auto net = makeOverlay(32);
  core::DharmaConfig cfg;
  cfg.k = static_cast<u32>(state.range(0));
  core::DharmaClient client(*net, 0, cfg);
  std::vector<std::string> tags;
  for (int i = 0; i < 20; ++i) tags.push_back("t" + std::to_string(i));
  client.insertResource("res", "uri://r", tags);
  u64 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.tagResource("res", "fresh-" + std::to_string(i++)));
  }
  state.counters["lookups/op"] =
      static_cast<double>(client.totalCost().lookups) /
      static_cast<double>(state.iterations() + 1);
}
BENCHMARK(BM_TagOperation)->Arg(1)->Arg(5)->Arg(10)->Unit(benchmark::kMicrosecond);

void BM_FgDerive(benchmark::State& state) {
  wl::SynthConfig cfg;
  cfg.numTags = 2000;
  cfg.numResources = static_cast<u32>(state.range(0));
  cfg.targetAnnotations = static_cast<u64>(state.range(0)) * 8;
  cfg.seed = 7;
  folk::Trg trg = wl::generate(cfg, nullptr);
  for (auto _ : state) {
    folk::CsrFg fg = folk::deriveExactFg(trg);
    benchmark::DoNotOptimize(fg.numArcs());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(trg.numAnnotations()));
}
BENCHMARK(BM_FgDerive)->Arg(2000)->Arg(10000)->Arg(40000)->Unit(benchmark::kMillisecond);

void BM_ApproxReplay(benchmark::State& state) {
  wl::SynthConfig cfg;
  cfg.numTags = 2000;
  cfg.numResources = 10000;
  cfg.targetAnnotations = 80000;
  cfg.seed = 7;
  folk::Trg trg = wl::generate(cfg, nullptr);
  wl::Trace trace = wl::buildPaperOrderTrace(trg, 8);
  for (auto _ : state) {
    auto model = wl::replayApproximated(
        trace, folk::approxMode(static_cast<u32>(state.range(0))), 9);
    benchmark::DoNotOptimize(model.fg().arcCount());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(trace.size()));
}
BENCHMARK(BM_ApproxReplay)->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_KendallTau(benchmark::State& state) {
  Rng rng(3);
  usize n = static_cast<usize>(state.range(0));
  std::vector<double> x(n), y(n);
  for (usize i = 0; i < n; ++i) {
    x[i] = static_cast<double>(rng.uniform(1000));
    y[i] = static_cast<double>(rng.uniform(1000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ana::kendallTauB(x, y));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_KendallTau)->Arg(100)->Arg(10000)->Arg(1000000)->Unit(benchmark::kMicrosecond);

void BM_Sha1(benchmark::State& state) {
  std::string data(static_cast<usize>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha1(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(1 << 20);

// Each compression kernel run directly (0 = portable, 1 = SHA-NI), so one
// run on a SHA-NI machine shows what the CPUID dispatch buys.
void BM_Sha1Kernel(benchmark::State& state) {
  const bool shaNi = state.range(1) != 0;
  if (shaNi && !crypto::detail::sha1ShaNiSupported()) {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  std::string data(static_cast<usize>(state.range(0)), 'x');
  for (auto _ : state) {
    crypto::Sha1 h(shaNi ? crypto::detail::sha1CompressShaNi
                         : crypto::detail::sha1CompressPortable);
    h.update(data);
    benchmark::DoNotOptimize(h.finish());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Kernel)
    ->ArgNames({"bytes", "shani"})
    ->ArgsProduct({{64, 4096}, {0, 1}});

// HMAC one-shot (key pads hashed per call, key = 0) against a precomputed
// HmacSha1Key (key = 1). 75 bytes is the mean content-signature payload of
// the sim_tagging benchmark workload.
void BM_HmacSha1(benchmark::State& state) {
  const std::string secret = "dharma-cs-secret";
  const crypto::HmacSha1Key key(secret);
  std::string data(static_cast<usize>(state.range(0)), 'x');
  const bool keyed = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keyed ? key.mac(data)
                                   : crypto::hmacSha1(secret, data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha1)
    ->ArgNames({"bytes", "key"})
    ->ArgsProduct({{75, 1024}, {0, 1}});

// One replica-side STORE check: CertificationService::verifyContent over a
// canonical token batch of state.range(0) bytes under a 40-hex block key.
// 22 bytes is the mean STORE content of the sim_tagging benchmark workload.
void BM_VerifyContent(benchmark::State& state) {
  crypto::CertificationService cs("dharma-cs-secret");
  const std::string keyHex = dht::NodeId::fromString("rock|t").toHex();
  const std::string content(static_cast<usize>(state.range(0)), 'c');
  const crypto::ContentSignature sig =
      cs.signContent("user-17", keyHex, content);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.verifyContent(sig, keyHex, content));
  }
}
BENCHMARK(BM_VerifyContent)->Arg(22);

// ---------------------------------------------------------------------------
// k-closest path. Every FIND_NODE/FIND_VALUE answer picks the k contacts
// closest to a key and encodes them; every lookup starts the same way. The
// table is node 0's after bootstrapping a 64-node overlay (bucket cap
// k = 20).
// ---------------------------------------------------------------------------

void BM_RoutingTableClosest(benchmark::State& state) {
  const usize k = static_cast<usize>(state.range(0));
  auto net = makeOverlay(64);
  const dht::RoutingTable& rt = net->node(0).routing();
  Rng rng(7);
  std::vector<dht::NodeId> targets;
  for (int i = 0; i < 4096; ++i) targets.push_back(dht::NodeId::random(rng));
  usize i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.closest(targets[i++ % targets.size()], k));
  }
  state.counters["contacts"] = static_cast<double>(rt.size());
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_RoutingTableClosest)->Arg(20);

void BM_ContactsReplyEncode(benchmark::State& state) {
  dht::ContactsReply rep;
  for (i64 i = 0; i < state.range(0); ++i) {
    rep.contacts.push_back(dht::Contact{
        dht::NodeId::fromString("micro-peer-" + std::to_string(i)),
        net::makeAddress(0x7F000001u, static_cast<u16>(7000 + i))});
  }
  for (auto _ : state) benchmark::DoNotOptimize(rep.encode());
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ContactsReplyEncode)->Arg(20);

// ---------------------------------------------------------------------------
// Simulator hot path. Every simulated RPC costs ~3 events (send, deliver,
// timeout) and nearly every timeout is cancelled, so schedule+cancel IS the
// experiment benches' inner loop. The slot-vector + generation store that
// replaced the std::map<EventId, std::function> callback map made cancel
// O(1) and schedule allocation-free (beyond the std::function). Measured
// on the dev container (gcc, -O2), ns/op old map -> new slots:
//   ScheduleCancel  depth 16:  61 -> 40   depth 1024:  85 -> 41
//                   depth 65536: 248 -> 41   (flat: depth-independent)
//   ScheduleRun     batch 256:  72 -> 35   batch 4096: 187 -> 92
// The (time, seq) ready-queue order is untouched, so every seeded digest
// stays bit-identical.
// ---------------------------------------------------------------------------

void BM_SimScheduleCancel(benchmark::State& state) {
  // The RPC-timeout pattern: schedule a far-out event, cancel it almost
  // always (replies beat timeouts). `depth` pending events model an
  // overlay's standing timer population.
  net::Simulator sim;
  usize depth = static_cast<usize>(state.range(0));
  std::vector<net::TaskId> standing;
  for (usize i = 0; i < depth; ++i) {
    standing.push_back(sim.schedule(1'000'000'000, [] {}));
  }
  for (auto _ : state) {
    net::TaskId id = sim.schedule(1'000'000, [] {});
    benchmark::DoNotOptimize(sim.cancel(id));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_SimScheduleCancel)->Arg(16)->Arg(1024)->Arg(65536);

void BM_SimScheduleRun(benchmark::State& state) {
  // Schedule-then-fire throughput (maintenance ticks, deliveries).
  net::Simulator sim;
  const usize batch = static_cast<usize>(state.range(0));
  for (auto _ : state) {
    for (usize i = 0; i < batch; ++i) {
      sim.schedule(static_cast<net::TimeUs>(i % 64), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(batch));
}
BENCHMARK(BM_SimScheduleRun)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Which SHA-1 kernel CPUID picked on this machine: the Sha1/Hmac/Verify
  // figures above mean little without it.
  benchmark::AddCustomContext("sha1_kernel", crypto::sha1KernelName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
