#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace perfbench {

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

usize nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<usize>(n) : 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  usize n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Samples::add(double us) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  double b = us > kMinUs ? std::log(us / kMinUs) / std::log(kGrowth) : 0;
  ++counts_[std::min(static_cast<usize>(b), kBuckets - 1)];
  ++n_;
}

void Samples::merge(const Samples& o) {
  if (o.n_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (usize i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
}

double Samples::quantile(double q) const {
  if (n_ == 0) return 0;
  u64 rank = std::clamp<u64>(
      static_cast<u64>(std::ceil(q * static_cast<double>(n_))), 1, n_);
  u64 below = 0;
  usize i = 0;
  while (below + counts_[i] < rank) below += counts_[i++];
  // Place the rank's sample evenly among the bucket's samples, on the
  // bucket's log scale.
  double within = (static_cast<double>(rank - below) - 0.5) / static_cast<double>(counts_[i]);
  return kMinUs * std::pow(kGrowth, static_cast<double>(i) + within);
}

std::pair<double, double> Samples::tail(double want) const {
  for (double q : {want, 0.98, 0.95, 0.9, 0.75, 0.5}) {
    if (q > want) continue;
    if (static_cast<double>(n_) * (1.0 - q) >= 10.0) return {q, quantile(q)};
  }
  return {0.5, quantile(0.5)};
}

void Report::note(const std::string& name, double value, const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "layer %-28s %14.6g %s", name.c_str(), value,
                unit.c_str());
  lines.push_back(buf);
}

void endToEnd(Report& rep, std::vector<Window>& windows,
              const std::vector<double>& setupS, bool traced, Aggregate how) {
  std::vector<double> ops, cpu, s50, s99, t50, t99;
  Samples search, tag;
  char buf[512];
  bool fellBack = false;
  for (usize i = 0; i < windows.size(); ++i) {
    Window& w = windows[i];
    auto [sq, sv] = w.search.tail(0.99);
    auto [tq, tv] = w.tag.tail(0.99);
    ops.push_back(w.opsPerS());
    cpu.push_back(w.cpuUsPerOp());
    s50.push_back(w.search.quantile(0.5));
    s99.push_back(sv);
    t50.push_back(w.tag.quantile(0.5));
    t99.push_back(tv);
    search.merge(w.search);
    tag.merge(w.tag);
    std::snprintf(buf, sizeof buf,
                  "window %zu: %llu ops in %.3f s = %.1f ops/s, cpu %.1f us/op, "
                  "search n=%llu p50 %.1f p%g %.1f us, tag n=%llu p50 %.1f p%g %.1f us, "
                  "failed %llu",
                  i, static_cast<unsigned long long>(w.ops), w.wallS, w.opsPerS(),
                  w.cpuUsPerOp(), static_cast<unsigned long long>(w.search.size()),
                  w.search.quantile(0.5), sq * 100, sv,
                  static_cast<unsigned long long>(w.tag.size()), w.tag.quantile(0.5),
                  tq * 100, tv,
                  static_cast<unsigned long long>(w.failed));
    rep.line(buf);
    fellBack |= sq < 0.99 || tq < 0.99;
    rep.attempted += w.ops;
    rep.failed += w.failed;
  }
  for (usize i = 0; i < setupS.size(); ++i) {
    std::snprintf(buf, sizeof buf, "setup %zu: %.4f s", i, setupS[i]);
    rep.line(buf);
  }
  auto [sq, sPooled] = search.tail(0.99);
  auto [tq, tPooled] = tag.tail(0.99);
  std::snprintf(buf, sizeof buf,
                "latency over all windows: search n=%llu p50 %.1f p%g %.1f us; "
                "tag n=%llu p50 %.1f p%g %.1f us",
                static_cast<unsigned long long>(search.size()), search.quantile(0.5),
                sq * 100, sPooled, static_cast<unsigned long long>(tag.size()),
                tag.quantile(0.5), tq * 100, tPooled);
  rep.line(buf);
  const bool pooled = how == Aggregate::kPooled;
  if (pooled ? sq < 0.99 || tq < 0.99 : fellBack) {
    rep.line("too few samples for a p99: the *_p99_us metrics carry the highest "
             "percentile with >= 10 samples beyond it");
  }
  u64 attempted = rep.attempted ? rep.attempted : 1;
  std::snprintf(buf, sizeof buf, "error_rate %.6g (%llu failed of %llu attempted)",
                static_cast<double>(rep.failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
  rep.line(buf);
  double best = *std::max_element(ops.begin(), ops.end());
  usize slow = static_cast<usize>(
      std::count_if(ops.begin(), ops.end(), [&](double o) { return o < 0.8 * best; }));
  std::snprintf(buf, sizeof buf, "slow windows: %zu of %zu below 80%% of the best "
                "window's %.1f ops/s", slow, ops.size(), best);
  rep.line(buf);
  if (traced) return;
  auto lowest = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
  const bool bestOf = how == Aggregate::kBestWindow;
  auto pick = [&](const std::vector<double>& v, double pooledValue) {
    return pooled ? pooledValue : bestOf ? lowest(v) : median(v);
  };
  rep.set("ops_per_s", bestOf ? best : median(ops), "1/s");
  rep.set("cpu_us_per_op", bestOf ? lowest(cpu) : median(cpu), "us");
  rep.set("search_p50_us", pick(s50, search.quantile(0.5)), "us");
  rep.set("search_p99_us", pick(s99, sPooled), "us");
  rep.set("tag_p50_us", pick(t50, tag.quantile(0.5)), "us");
  rep.set("tag_p99_us", pick(t99, tPooled), "us");
  rep.set("setup_s", median(setupS), "s");
  rep.set("rss_mb", peakRssMb(), "MB");
}

std::vector<std::string> TagVocab::drawSet(dharma::Rng& rng, usize m) const {
  std::vector<std::string> out;
  while (out.size() < m) {
    const std::string& t = draw(rng);
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

Preload::Preload(usize resources, const TagVocab& vocab, u64 seed) {
  dharma::Rng rng(seed);
  for (usize r = 0; r < resources; ++r) {
    tags_.push_back(vocab.drawSet(rng, 2 + rng.uniform(3)));
    for (usize t = 0; t < tags_.back().size(); ++t) annotations_.emplace_back(r, t);
  }
}

std::pair<std::string, std::string> Preload::drawAnnotation(dharma::Rng& rng) const {
  auto [r, t] = annotations_[rng.uniform(annotations_.size())];
  return {name(r), tags_[r][t]};
}

}  // namespace perfbench

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload <sim_tagging|loopback_read|"
               "gateway_http|paper_pipeline> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || a.seconds <= 0) {
    usage();
    return 2;
  }

  Report rep;
  if (a.workload == "sim_tagging") {
    rep = simTagging(a);
  } else if (a.workload == "loopback_read") {
    rep = loopbackRead(a);
  } else if (a.workload == "gateway_http") {
    rep = gatewayHttp(a);
  } else if (a.workload == "paper_pipeline") {
    rep = paperPipeline(a);
  } else {
    usage();
    return 2;
  }

  if (rep.attempted == 0) rep.fail("no operation was attempted");
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
              "build=%s compiler=\"%s\"\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, nproc(), PERFBENCH_BUILD_TYPE,
              __VERSION__);
  for (const std::string& l : rep.lines) std::printf("%s\n", l.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return rep.correct ? 0 : 1;
}
