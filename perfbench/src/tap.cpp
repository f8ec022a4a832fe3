#include "tap.hpp"

#include <cstdio>

#include "crypto/sha1.hpp"
#include "dht/rpc.hpp"
#include "dht/storage.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"

namespace perfbench {

using namespace dharma;

namespace {

/// Keep every 4th datagram, at most this many.
constexpr usize kCaptureMax = 4096;
constexpr u64 kCaptureEvery = 4;

/// Time spent in Tap::send by sends nested in the receive handler running
/// on this thread; the handler's self time excludes it.
thread_local u64 tNestedSendNs = 0;

/// Written with the results of isolated timings so the compiler keeps the
/// timed work.
volatile u64 gSink = 0;

u64 nsSince(Clock::time_point t0) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Runs \p body repeatedly for at least \p minS seconds; returns seconds per
/// call of \p body.
template <typename F>
double timeLoop(F&& body, double minS = 0.05) {
  u64 calls = 0;
  Clock::time_point t0 = Clock::now();
  double el = 0;
  do {
    body();
    ++calls;
    el = secondsSince(t0);
  } while (el < minS);
  return el / static_cast<double>(calls);
}

}  // namespace

Tap::Endpoint* Tap::newEndpoint() {
  std::lock_guard lk(mu_);
  endpoints_.push_back(std::make_unique<Endpoint>());
  return endpoints_.back().get();
}

net::ReceiveHandler Tap::wrap(Endpoint* ep, net::ReceiveHandler h) {
  return [this, ep, h = std::move(h)](net::Address from, const std::vector<u8>& data) {
    capture(data);
    u64 outer = tNestedSendNs;
    tNestedSendNs = 0;
    Clock::time_point t0 = Clock::now();
    h(from, data);
    u64 total = nsSince(t0);
    u64 nested = tNestedSendNs;
    tNestedSendNs = outer;
    ep->rx.fetch_add(1, std::memory_order_relaxed);
    ep->rxSelfNs.fetch_add(total > nested ? total - nested : 0,
                           std::memory_order_relaxed);
  };
}

net::Address Tap::registerEndpoint(net::ReceiveHandler h) {
  return inner_.registerEndpoint(wrap(newEndpoint(), std::move(h)));
}

net::Address Tap::registerEndpoint(net::ReceiveHandler h, net::Executor& deliverTo) {
  return inner_.registerEndpoint(wrap(newEndpoint(), std::move(h)), deliverTo);
}

void Tap::setHandler(net::Address a, net::ReceiveHandler h) {
  inner_.setHandler(a, wrap(newEndpoint(), std::move(h)));
}

void Tap::capture(const std::vector<u8>& payload) {
  if (!capturing_.load(std::memory_order_relaxed)) return;
  if (seen_.fetch_add(1, std::memory_order_relaxed) % kCaptureEvery != 0) return;
  std::lock_guard lk(mu_);
  if (captured_.size() < kCaptureMax) captured_.push_back(payload);
}

bool Tap::send(net::Address from, net::Address to, std::vector<u8> payload) {
  Clock::time_point t0 = Clock::now();
  auto env = dht::Envelope::decode(payload);
  // Even wire types are requests (PING, FIND_NODE, FIND_VALUE, STORE,
  // STORE_CACHE); odd ones are their replies.
  if (env && static_cast<u8>(env->type) % 2 == 0) {
    requests_.fetch_add(1, std::memory_order_relaxed);
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  sentBytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  Clock::time_point t1 = Clock::now();
  bool ok = inner_.send(from, to, std::move(payload));
  sendNs_.fetch_add(nsSince(t1), std::memory_order_relaxed);
  tNestedSendNs += nsSince(t0);
  return ok;
}

Tap::Totals Tap::totals() const {
  Totals t;
  t.sent = sent_.load();
  t.sentBytes = sentBytes_.load();
  t.requests = requests_.load();
  t.sendUs = static_cast<double>(sendNs_.load()) / 1e3;
  u64 maxRx = 0;
  std::lock_guard lk(mu_);
  for (const auto& ep : endpoints_) {
    u64 rx = ep->rx.load();
    t.received += rx;
    t.rxSelfUs += static_cast<double>(ep->rxSelfNs.load()) / 1e3;
    maxRx = std::max(maxRx, rx);
  }
  t.maxNodeRxShare =
      t.received ? static_cast<double>(maxRx) / static_cast<double>(t.received) : 0;
  return t;
}

void Tap::reset() {
  sent_ = 0;
  sentBytes_ = 0;
  requests_ = 0;
  sendNs_ = 0;
  std::lock_guard lk(mu_);
  for (auto& ep : endpoints_) {
    ep->rx = 0;
    ep->rxSelfNs = 0;
  }
  captured_.clear();
  seen_ = 0;
}

LayerCosts timeLayers(const std::vector<std::vector<u8>>& datagrams,
                      const crypto::CertificationService& cs) {
  LayerCosts c;
  std::vector<dht::Envelope> envs;
  std::vector<dht::StoreReq> stores;
  double bytes = 0;
  for (const auto& d : datagrams) {
    auto e = dht::Envelope::decode(d);
    if (!e) continue;
    bytes += static_cast<double>(d.size());
    if (e->type == dht::RpcType::kStore) {
      ByteReader r(e->body);
      stores.push_back(dht::StoreReq::decode(r));
    }
    envs.push_back(std::move(*e));
  }
  if (envs.empty()) return c;
  c.meanBytes = bytes / static_cast<double>(envs.size());
  c.storeShare = static_cast<double>(stores.size()) / static_cast<double>(envs.size());

  u64 sink = 0;
  c.codecUs = timeLoop([&] {
                for (const auto& e : envs) {
                  std::vector<u8> wire = e.encode();
                  auto back = dht::Envelope::decode(wire);
                  sink += back ? back->body.size() : 0;
                }
              }) * 1e6 / static_cast<double>(envs.size());
  c.verifyUs = timeLoop([&] {
                 for (const auto& e : envs) sink += cs.verify(e.credential) ? 1 : 0;
               }) * 1e6 / static_cast<double>(envs.size());
  if (!stores.empty()) {
    c.storeApplyUs = timeLoop([&] {
                       dht::BlockStore store;
                       for (const auto& s : stores) {
                         sink += store.applyAll(s.key, s.tokens, 0) ? 1 : 0;
                       }
                     }) * 1e6 / static_cast<double>(stores.size());
  }
  std::vector<u8> buf(static_cast<usize>(c.meanBytes), 0x5a);
  double perHash = timeLoop([&] {
    crypto::Sha1 h;
    h.update(buf);
    sink += h.finish()[0];
  });
  c.sha1MbS = static_cast<double>(buf.size()) / perHash / 1e6;
  gSink = sink;
  return c;
}

double timeHistogramRecordNs() {
  obs::Histogram h;
  std::vector<u64> values(4096);
  Rng rng(7);
  for (u64& v : values) v = rng.uniform(100000);
  return timeLoop([&] {
           for (u64 v : values) h.record(v);
         }) * 1e9 / static_cast<double>(values.size());
}

namespace {

HistSum sumFamily(const obs::RegistrySnapshot& snap, const std::string& name) {
  HistSum s;
  for (const auto& row : snap.hists) {
    if (row.id != name && row.id.rfind(name + "{", 0) != 0) continue;
    s.sum += static_cast<double>(row.hist.sum);
    s.count += row.hist.count();
  }
  return s;
}

}  // namespace

HistSum histogramSum(const obs::MetricsRegistry& reg, const obs::RegistrySnapshot& base,
                     const std::string& name) {
  HistSum now = sumFamily(reg.snapshot(), name);
  HistSum then = sumFamily(base, name);
  return HistSum{now.sum - then.sum, now.count - then.count};
}

u64 histogramRecords(const obs::MetricsRegistry& reg, const obs::RegistrySnapshot& base) {
  u64 n = 0;
  for (const auto& row : reg.snapshot().hists) n += row.hist.count();
  for (const auto& row : base.hists) n -= row.hist.count();
  return n;
}

double ledger(Report& rep, const std::vector<LedgerRow>& rows, double cpuUs) {
  char buf[256];
  double explained = 0;
  rep.line("ledger (isolated unit cost x traced count, share of CPU time):");
  for (const LedgerRow& r : rows) {
    double us = r.unitUs * r.count;
    explained += us;
    std::snprintf(buf, sizeof buf, "  %-22s %10.3f us x %12.0f = %12.0f us  %6.3f",
                  r.layer.c_str(), r.unitUs, r.count, us, cpuUs > 0 ? us / cpuUs : 0);
    rep.line(buf);
  }
  double share = cpuUs > 0 ? explained / cpuUs : 0;
  std::snprintf(buf, sizeof buf, "  %-22s %56.0f us  %6.3f%s", "explained / cpu",
                cpuUs, share,
                share < 0.8 ? "  FLAG: below 0.8, the ledger is missing a layer" : "");
  rep.line(buf);
  return share;
}

void overlayLayers(Report& rep, const Tap& tap, const LayerCosts& costs,
                   const obs::MetricsRegistry& reg, const obs::RegistrySnapshot& base,
                   double ops, double cpuUs, const std::vector<LedgerRow>& extra) {
  Tap::Totals t = tap.totals();
  double sent = static_cast<double>(t.sent);
  double rx = static_cast<double>(t.received);
  double records = static_cast<double>(histogramRecords(reg, base));
  double recordNs = timeHistogramRecordNs();

  rep.set("dht.rpcs_per_op", static_cast<double>(t.requests) / ops, "count");
  rep.set("dht.bytes_per_op", static_cast<double>(t.sentBytes) / ops, "B");
  rep.set("dht.max_node_rx_share", t.maxNodeRxShare, "ratio");
  rep.set("dht.lookup_hops", histogramSum(reg, base, "dharma_node_lookup_hops").mean(), "count");
  rep.set("crypto.verify_share", cpuUs > 0 ? costs.verifyUs * rx / cpuUs : 0, "ratio");
  rep.set("obs.record_ns", recordNs, "ns");
  rep.set("obs.records_per_op", records / ops, "count");
  rep.note("dht.datagrams_per_op", sent / ops, "count");
  rep.note("dht.rx_self_us", rx > 0 ? t.rxSelfUs / rx : 0, "us");
  rep.note("dht.codec_us", costs.codecUs, "us");
  rep.note("dht.store_apply_us", costs.storeApplyUs, "us");
  rep.note("crypto.verify_us", costs.verifyUs, "us");
  rep.note("crypto.sha1_mb_s", costs.sha1MbS, "MB/s");
  rep.note("net.send_us", sent > 0 ? t.sendUs / sent : 0, "us");

  std::vector<LedgerRow> rows = {
      {"dht.codec", costs.codecUs, sent},
      {"crypto.verify", costs.verifyUs, rx},
      {"dht.store_apply", costs.storeApplyUs, costs.storeShare * sent},
      {"net.send", sent > 0 ? t.sendUs / sent : 0, sent},
      {"obs.record", recordNs / 1e3, records},
  };
  rows.insert(rows.end(), extra.begin(), extra.end());
  rep.set("ledger.explained_share", ledger(rep, rows, cpuUs), "ratio");
}

}  // namespace perfbench
