/// In-process tests for the daemons' integer flag parsing
/// (examples/daemon_host.{hpp,cpp}): malformed and negative values are
/// startup errors with one stderr line, never an exception or a wrapped
/// count. Nothing here builds a host, so no value can start threads or bind
/// sockets.

#include "daemon_host.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace dharma::daemon {
namespace {

Options withFlags(const std::vector<std::pair<std::string, std::string>>& kv) {
  Options o;
  for (const auto& [k, v] : kv) o.set(k, v);
  return o;
}

usize lines(const std::string& s) {
  return static_cast<usize>(std::count(s.begin(), s.end(), '\n'));
}

TEST(DaemonFlags, CountFlagAcceptsPlainDecimals) {
  EXPECT_EQ(readCountFlag(Options{}, "nodes", 3), 3u);
  EXPECT_EQ(readCountFlag(withFlags({{"nodes", ""}}), "nodes", 3), 3u);
  EXPECT_EQ(readCountFlag(withFlags({{"nodes", "0"}}), "nodes", 3), 0u);
  EXPECT_EQ(readCountFlag(withFlags({{"nodes", "17"}}), "nodes", 3), 17u);
  EXPECT_EQ(readCountFlag(withFlags({{"nodes", "18446744073709551615"}}),
                          "nodes", 3),
            std::numeric_limits<u64>::max());
}

TEST(DaemonFlags, CountFlagRejectsMalformedAndNegative) {
  for (const char* bad : {"x", "-1", "-0", "+3", "3x", " 3", "1.5", "0x10",
                          "18446744073709551616"}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(readCountFlag(withFlags({{"workers", bad}}), "workers", 4))
        << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(lines(err), 1u) << bad << ": " << err;
    EXPECT_NE(err.find("--workers"), std::string::npos) << err;
  }
}

TEST(DaemonFlags, HostFlagsRejectBadIntegersWithOneLine) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"nodes", "x"},          {"nodes", "-1"},
      {"shards", "-1"},        {"shards", "two"},
      {"join-retries", "-2"},  {"rpc-timeout-ms", "1e3"},
      {"stats-interval-ms", "-5"}};
  for (const auto& [key, value] : bad) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(readHostFlags(withFlags({{key, value}}), 3).has_value())
        << key << "=" << value;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(lines(err), 1u) << err;
    EXPECT_NE(err.find("--" + key), std::string::npos) << err;
  }
  // Two bad values still make one line: the first one read.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(
      readHostFlags(withFlags({{"nodes", "x"}, {"shards", "-1"}}), 3));
  EXPECT_EQ(lines(testing::internal::GetCapturedStderr()), 1u);
}

TEST(DaemonFlags, HostFlagsReadGoodIntegers) {
  auto f = readHostFlags(withFlags({{"nodes", "5"},
                                    {"shards", "2"},
                                    {"join-retries", "0"},
                                    {"rpc-timeout-ms", "250"},
                                    {"stats-interval-ms", "100"}}),
                         3);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->nodes, 5u);
  EXPECT_EQ(f->shards, 2u);
  EXPECT_EQ(f->joinRetries, 0u);
  EXPECT_EQ(f->rpcTimeoutUs, 250'000u);
  EXPECT_EQ(f->statsIntervalMs, 100u);

  auto d = readHostFlags(Options{}, 3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->nodes, 3u);
  EXPECT_EQ(d->shards, 1u);
  EXPECT_EQ(d->joinRetries, 5u);
  EXPECT_EQ(d->rpcTimeoutUs, 1'500'000u);
  EXPECT_EQ(d->statsIntervalMs, 0u);

  // A well-formed zero count is still refused where a count must be >= 1.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(readHostFlags(withFlags({{"nodes", "0"}}), 3));
  EXPECT_EQ(lines(testing::internal::GetCapturedStderr()), 1u);
}

}  // namespace
}  // namespace dharma::daemon
