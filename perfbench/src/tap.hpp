#pragma once
/// \file tap.hpp
/// \brief The benchmark's view into the overlay from outside: a decorator
/// on the public net::Transport seam, plus isolated timings of single
/// layers on the traffic it captured.
///
/// Tap forwards every call to the real transport. On the way it counts
/// datagrams and bytes per direction, classifies each sent envelope with
/// Envelope::decode (request or reply), times send(), and times every
/// receive handler minus the sends nested inside it (the handler's self
/// time). It keeps a sample of the datagrams it saw so the layer costs can
/// be timed in isolation afterwards.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "crypto/identity.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"


namespace perfbench {

class Tap final : public dharma::net::Transport {
 public:
  explicit Tap(dharma::net::Transport& inner) : inner_(inner) {}
  Tap(const Tap&) = delete;
  Tap& operator=(const Tap&) = delete;

  dharma::net::Address registerEndpoint(dharma::net::ReceiveHandler h) override;
  dharma::net::Address registerEndpoint(dharma::net::ReceiveHandler h,
                                        dharma::net::Executor& deliverTo) override;
  void setHandler(dharma::net::Address a, dharma::net::ReceiveHandler h) override;
  bool send(dharma::net::Address from, dharma::net::Address to,
            std::vector<dharma::u8> payload) override;
  bool isOnline(dharma::net::Address a) const override { return inner_.isOnline(a); }
  usize mtuBytes() const override { return inner_.mtuBytes(); }

  /// Counter totals since construction (or the last reset(), which also
  /// drops the captured sample).
  struct Totals {
    u64 sent = 0, sentBytes = 0, requests = 0, received = 0;
    double sendUs = 0, rxSelfUs = 0;
    double maxNodeRxShare = 0;
  };
  Totals totals() const;
  void reset();
  /// Stops sampling datagrams (counting continues).
  void stopCapture() { capturing_.store(false, std::memory_order_relaxed); }
  /// A copy of the sampled datagrams.
  std::vector<std::vector<dharma::u8>> captured() const {
    std::lock_guard lk(mu_);
    return captured_;
  }

 private:
  struct Endpoint {
    std::atomic<u64> rx{0};
    std::atomic<u64> rxSelfNs{0};
  };
  dharma::net::ReceiveHandler wrap(Endpoint* ep, dharma::net::ReceiveHandler h);
  Endpoint* newEndpoint();
  void capture(const std::vector<dharma::u8>& payload);

  dharma::net::Transport& inner_;
  mutable std::mutex mu_;  ///< guards endpoints_ and captured_
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::vector<dharma::u8>> captured_;
  std::atomic<bool> capturing_{true};
  std::atomic<u64> seen_{0};
  std::atomic<u64> sent_{0}, sentBytes_{0}, requests_{0}, sendNs_{0};
};

/// Per-unit costs of single layers, each timed in isolation on captured
/// traffic.
struct LayerCosts {
  double codecUs = 0;       ///< Envelope::encode + decode, per datagram
  double verifyUs = 0;      ///< CertificationService::verify, per credential
  double storeApplyUs = 0;  ///< BlockStore::applyAll, per STORE request
  double sha1MbS = 0;       ///< SHA-1 throughput at the mean datagram size
  double meanBytes = 0;     ///< mean captured datagram size
  double storeShare = 0;    ///< STORE requests among captured datagrams
};
LayerCosts timeLayers(const std::vector<std::vector<dharma::u8>>& datagrams,
                      const dharma::crypto::CertificationService& cs);

/// obs::Histogram::record cost, in ns per record.
double timeHistogramRecordNs();

/// Sum and count of every series of histogram family \p name recorded
/// since \p base was taken: exact, from the histograms' _sum and _count,
/// never from their log2 buckets.
struct HistSum {
  double sum = 0;
  u64 count = 0;
  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
};
HistSum histogramSum(const dharma::obs::MetricsRegistry& reg,
                     const dharma::obs::RegistrySnapshot& base, const std::string& name);
/// Records made into every histogram of the registry since \p base.
u64 histogramRecords(const dharma::obs::MetricsRegistry& reg,
                     const dharma::obs::RegistrySnapshot& base);

/// One row of the cost ledger: a layer's isolated unit cost times the
/// number of units the traced run counted.
struct LedgerRow {
  std::string layer;
  double unitUs;
  double count;
};
/// Prints the ledger, returns Σ(unit × count) ÷ \p cpuUs, and flags a
/// share below 0.8 (the ledger is then missing a layer).
double ledger(Report& rep, const std::vector<LedgerRow>& rows, double cpuUs);

/// The per-layer metrics every overlay workload reports from a Tap and its
/// registry over the traced window: \p base is the registry at its start,
/// \p ops its op count, \p cpuUs its CPU time, \p extra the workload's own
/// ledger rows. The Tap must have been reset at the window's start.
void overlayLayers(Report& rep, const Tap& tap, const LayerCosts& costs,
                   const dharma::obs::MetricsRegistry& reg,
                   const dharma::obs::RegistrySnapshot& base, double ops,
                   double cpuUs, const std::vector<LedgerRow>& extra = {});

}  // namespace perfbench
