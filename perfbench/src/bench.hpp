#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the repo benchmark: arguments, clocks, process
/// CPU and memory, latency samples with an honest tail percentile, the
/// per-run report, and the Zipf tag vocabulary every overlay workload uses.
///
/// Every workload fills a Report: the end-to-end metrics (untraced run) or
/// the per-layer metrics (traced run) by name and unit, plus free-form
/// report lines that main() prints before the final JSON line.

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/sampling.hpp"
#include "util/types.hpp"

namespace perfbench {

using dharma::u64;
using dharma::usize;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double usSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Process user+system CPU seconds so far (every thread).
double cpuSeconds();
/// Peak resident set size of this process, in MB.
double peakRssMb();
/// Online processor count.
usize nproc();

double median(std::vector<double> v);

/// Latency samples of one op class, kept as counts in log-spaced buckets
/// 0.5% wide (from 0.01 us to about 13 s), so memory does not grow with the
/// number of ops a run completes and a percentile is within 0.5% of the
/// exact sample.
class Samples {
 public:
  void add(double us);
  void merge(const Samples& o);
  u64 size() const { return n_; }
  /// Nearest-rank quantile, interpolated inside its bucket.
  double quantile(double q) const;
  /// The highest of {want, 0.98, 0.95, 0.9, 0.75, 0.5} that has at least
  /// ten samples beyond it, so a tail figure is never read off a handful
  /// of points. Returns {percentile, value}.
  std::pair<double, double> tail(double want) const;

 private:
  static constexpr double kMinUs = 0.01;
  static constexpr double kGrowth = 1.005;
  static constexpr usize kBuckets = 4200;
  std::vector<u64> counts_;  ///< allocated on the first add
  u64 n_ = 0;
};

/// One measured window: wall and CPU time, ops, and per-class latencies.
struct Window {
  double wallS = 0;
  double cpuS = 0;
  u64 ops = 0;
  u64 failed = 0;
  Samples search, tag;
  double opsPerS() const { return wallS > 0 ? static_cast<double>(ops) / wallS : 0; }
  double cpuUsPerOp() const { return ops ? cpuS * 1e6 / static_cast<double>(ops) : 0; }
};

/// The windows' ops, wall and CPU time summed (no latency samples).
inline Window total(const std::vector<Window>& ws) {
  Window t;
  for (const Window& w : ws) {
    t.ops += w.ops;
    t.failed += w.failed;
    t.wallS += w.wallS;
    t.cpuS += w.cpuS;
  }
  return t;
}

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> lines;  ///< printed before the JSON line

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Prints a report line: "<name> <value> <unit>" for a layer figure that
  /// the JSON line does not carry.
  void note(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text) { lines.push_back(text); }
  /// Records a failed correctness check.
  void fail(const std::string& why) {
    correct = false;
    lines.push_back("CHECK FAILED: " + why);
  }
};

/// How endToEnd turns a run's windows into its end-to-end figures.
enum class Aggregate {
  /// Throughput and CPU: median over windows; latency percentiles: over all
  /// windows' samples together. For the CPU-bound workloads, whose windows
  /// are too short for a p99 each.
  kPooled,
  /// Every figure: median over windows of each window's own figure. A
  /// scheduling stall spoils one window rather than the run.
  kWindowMedian,
  /// Every figure: the best window's (highest ops/s, lowest CPU and
  /// latency). For loopback_read, whose runtime falls into a slow mode for
  /// whole windows at a time (about half the rate, twice the tag p99): the
  /// median then moves by more than any bound a change could be held to.
  /// The slow windows stay in the report: each window is printed, and the
  /// run counts the windows below 80% of the best window's ops/s.
  kBestWindow,
};

/// Fills the end-to-end metrics from the measured windows and the set-up
/// time of each instance. Prints one line per window, so a bimodal run
/// shows its modes. In a traced run the metrics are left out (the report
/// carries the per-layer ones) and only the lines and op counts are kept.
void endToEnd(Report& rep, std::vector<Window>& windows,
              const std::vector<double>& setupS, bool traced, Aggregate how);

/// The seed of instance \p i of a run. Untraced runs set up each instance
/// from its own seed, so one run averages over several overlays; the two
/// instances of a traced run share the run's seed, so the traced one can be
/// compared with the untraced one.
inline u64 instanceSeed(const Args& a, usize i) {
  return a.trace ? a.seed : dharma::splitmix64(a.seed * 16 + i);
}

/// A Zipf(s=1) vocabulary of tag names: "t<rank>".
class TagVocab {
 public:
  TagVocab(dharma::u32 n, double s = 1.0) : zipf_(n, s) {
    names_.reserve(n);
    for (dharma::u32 i = 0; i < n; ++i) names_.push_back("t" + std::to_string(i));
  }
  const std::string& draw(dharma::Rng& rng) const {
    return names_[zipf_.sampleIndex(rng)];
  }
  /// \p m distinct Zipf-drawn tags.
  std::vector<std::string> drawSet(dharma::Rng& rng, usize m) const;
  usize size() const { return names_.size(); }

 private:
  dharma::ZipfSampler zipf_;
  std::vector<std::string> names_;
};

/// The resources an overlay workload preloads: "res-<i>" with 2-4
/// distinct Zipf-drawn tags each.
class Preload {
 public:
  Preload(usize resources, const TagVocab& vocab, u64 seed);
  static std::string name(usize r) { return "res-" + std::to_string(r); }
  usize size() const { return tags_.size(); }
  const std::vector<std::string>& tags(usize r) const { return tags_[r]; }
  /// A uniformly drawn preloaded annotation {resource, tag}. The workloads
  /// tag only these: re-tagging increments weights without adding block
  /// entries, so block sizes stay those of the preload and op costs do not
  /// drift with the number of ops a run completes.
  std::pair<std::string, std::string> drawAnnotation(dharma::Rng& rng) const;

 private:
  std::vector<std::vector<std::string>> tags_;
  std::vector<std::pair<usize, usize>> annotations_;  ///< {resource, tag index}
};

/// Tag writes a run completed, per resource and tag.
using Written = std::map<std::string, std::map<std::string, u64>>;

// Workloads.
Report simTagging(const Args& a);
Report loopbackRead(const Args& a);
Report gatewayHttp(const Args& a);
Report paperPipeline(const Args& a);

}  // namespace perfbench
