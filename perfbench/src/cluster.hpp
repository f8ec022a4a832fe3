#pragma once
/// \file cluster.hpp
/// \brief A live loopback overlay for the real-time workloads: N
/// KademliaNodes on a ShardedExecutor over the default datagram backend,
/// node i on shard i % shards, optionally behind a Tap and wired to an obs
/// registry. Also the probes both real-time workloads share.

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/client.hpp"
#include "core/runtime.hpp"
#include "net/datagram.hpp"
#include "net/sharded.hpp"
#include "obs/registry.hpp"
#include "tap.hpp"

namespace perfbench {

struct Cluster {
  /// Declared first: the executors, transport and nodes hold handles into it.
  dharma::obs::MetricsRegistry registry;
  dharma::net::ShardedExecutor execs;
  std::unique_ptr<dharma::net::DatagramTransport> transport;
  std::unique_ptr<Tap> tap;
  dharma::crypto::CertificationService cs{"perfbench-secret"};
  std::unique_ptr<dharma::core::ShardedRuntime> rt;
  std::vector<std::unique_ptr<dharma::dht::KademliaNode>> nodes;

  /// Boots and joins \p n nodes. \p obsOn wires the registry into every
  /// layer; \p tapOn puts a Tap between the nodes and the transport.
  Cluster(usize n, usize shards, u64 seed, bool obsOn, bool tapOn);
  ~Cluster() { shutdown(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  dharma::net::Transport& nodeTransport() {
    return tap ? static_cast<dharma::net::Transport&>(*tap) : *transport;
  }
  dharma::core::Runtime& rtFor(usize node) { return rt->forShard(execs.shardOf(node)); }
  /// Stops the executors and closes the transport (idempotent).
  void shutdown();

  /// Inserts every resource of \p pre through \p client; false if any
  /// insert failed.
  static bool preload(dharma::core::DharmaClient& client, const Preload& pre);
};

/// Slices each real-time instance's measurement is cut into.
constexpr usize kSlices = 3;
constexpr double kWarmupS = 1.5;

/// What one closed-loop client op was, and whether it succeeded.
struct OpDone {
  enum Class { kSearch, kTag, kOther } cls;
  bool ok;
};

/// Runs \p threads closed-loop client threads for a warm-up of kWarmupS
/// seconds, then for \p slices consecutive slices of \p sliceS seconds.
/// Thread w calls makeOp(w) once for its op function, then calls it back to
/// back. Returns one Window per slice: the ops completed in it, their
/// latencies, and the process CPU time spent in it. Ops completed during
/// the warm-up are not counted: right after set-up a fresh cluster runs the
/// mix at about half its later rate for the first second or two.
std::vector<Window> closedLoop(usize threads, usize slices, double sliceS,
                               const std::function<std::function<OpDone()>(usize)>& makeOp);

/// Read-your-writes probe: fetches r̄ of every resource in \p written from
/// node \p via (an authoritative overlay read, no cache) and checks that
/// each preloaded tag written to it weighs exactly 1 + its writes. Returns
/// the number of tags whose weight is off; counts the tags checked.
u64 probeWrites(Cluster& c, usize via, const Written& written, u64& checked);

/// Posts a no-op to every shard every 2 ms from its own thread and times
/// how long each takes to start running: the executor wake-up latency.
class WakeProbe {
 public:
  explicit WakeProbe(dharma::net::ShardedExecutor& execs);
  ~WakeProbe() { stop(); }
  WakeProbe(const WakeProbe&) = delete;
  WakeProbe& operator=(const WakeProbe&) = delete;
  void stop();
  /// Mean wake latency in microseconds.
  double meanUs() const;

 private:
  dharma::net::ShardedExecutor& execs_;
  std::atomic<bool> stop_{false};
  std::atomic<u64> sumNs_{0}, count_{0};
  std::atomic<u64> inFlight_{0};
  std::thread thread_;
};

/// The per-layer metrics of a traced real-time instance over its measured
/// window \p all: the overlay's (overlayLayers) plus the runtime's, read
/// from the registry since \p base. \p lookups and \p retries are the
/// clients' over the window, \p extra the workload's own ledger rows.
void realtimeLayers(Report& rep, Cluster& c, const dharma::obs::RegistrySnapshot& base,
                    const Window& all, double wakeUs, u64 lookups, u64 retries,
                    std::vector<LedgerRow> extra = {});

}  // namespace perfbench
