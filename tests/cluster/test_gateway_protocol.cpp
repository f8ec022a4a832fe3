/// \file test_gateway_protocol.cpp
/// \brief Real-process coverage for the dharma_gateway daemon: boot
/// banners, HTTP round trips against the child's real listener, the typed
/// startup-failure contract (port already bound, nonsense bind address —
/// one crisp ERR line on stderr, exit code 2, never an uncaught-exception
/// abort), and the SIGTERM graceful-drain path. The dharma_node daemon's
/// matching transport-level startup failure rides along, so BOTH binaries
/// keep the exit-code taxonomy.

#include <csignal>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gateway/http_client.hpp"
#include "subprocess.hpp"

#ifndef DHARMA_NODE_BIN
#error "build must define DHARMA_NODE_BIN (path to the dharma_node binary)"
#endif
#ifndef DHARMA_GATEWAY_BIN
#error "build must define DHARMA_GATEWAY_BIN (path to dharma_gateway)"
#endif

namespace dharma::cluster {
namespace {

constexpr int kBootMs = 15'000;
constexpr int kExitMs = 10'000;

constexpr const char* kListenPrefix = "gateway listening on http://";

/// Spawns a gateway daemon and returns the HTTP port parsed from its
/// listening banner (0 => no banner / parse failure).
u16 bootGateway(NodeProcess& proc, const std::vector<std::string>& extra) {
  std::vector<std::string> args = {"--bind", "127.0.0.1:0", "--nodes", "2"};
  args.insert(args.end(), extra.begin(), extra.end());
  if (!proc.spawn(DHARMA_GATEWAY_BIN, args)) return 0;
  auto listen = proc.readLineWithPrefix(kListenPrefix, kBootMs);
  if (!listen) return 0;
  auto colon = listen->rfind(':');
  if (colon == std::string::npos) return 0;
  if (!proc.readLineWithPrefix("gateway up", kBootMs)) return 0;
  return static_cast<u16>(std::stoi(listen->substr(colon + 1)));
}

TEST(GatewayProtocol, BootServesHttpAndQuitsClean) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess proc;
  u16 port = bootGateway(proc, {});
  ASSERT_NE(port, 0) << "gateway never printed its listening banner";

  gateway::HttpClient http;
  ASSERT_TRUE(http.connect("127.0.0.1", port));
  auto put = http.request("PUT", "/resources/proc1?tag=cluster",
                          "uri://proc1");
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->status, 200);
  auto res = http.request("GET", "/resolve/proc1");
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, 200);
  EXPECT_NE(res->body.find("uri://proc1"), std::string::npos);

  // The stdin side-channel only reports; the API is the socket.
  auto stats = proc.command("stats", kExitMs);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rfind("OK stats:", 0), 0u) << *stats;
  EXPECT_NE(stats->find("responses="), std::string::npos);

  ASSERT_TRUE(proc.sendLine("quit"));
  auto st = proc.wait(kExitMs);
  ASSERT_TRUE(st.has_value()) << "gateway did not exit on quit";
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->code, 0);
}

TEST(GatewayProtocol, SecondDaemonOnSamePortExitsStartupCode) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess first;
  u16 port = bootGateway(first, {});
  ASSERT_NE(port, 0);

  // Same HTTP port while the first daemon holds it: the second must fail
  // with the typed startup error — exit 2, no listening banner, and the
  // survivor keeps serving.
  NodeProcess second;
  ASSERT_TRUE(second.spawn(
      DHARMA_GATEWAY_BIN,
      {"--bind", "127.0.0.1:" + std::to_string(port), "--nodes", "1"}));
  auto st = second.wait(kExitMs);
  ASSERT_TRUE(st.has_value()) << "second gateway neither bound nor exited";
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->code, 2) << "bind-in-use must exit with the startup code";

  gateway::HttpClient http;
  ASSERT_TRUE(http.connect("127.0.0.1", port)) << "survivor stopped serving";
  auto r = http.request("GET", "/stats");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);

  ASSERT_TRUE(first.sendLine("quit"));
  auto fst = first.wait(kExitMs);
  ASSERT_TRUE(fst.has_value());
  EXPECT_EQ(fst->code, 0);
}

TEST(GatewayProtocol, MalformedWorkersExitsStartupCode) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_GATEWAY_BIN,
                      {"--bind", "127.0.0.1:0", "--workers", "x"}));
  auto st = p.wait(kExitMs);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->code, 2) << "a malformed --workers must exit with the "
                            "startup code";
}

TEST(GatewayProtocol, BadBindAddressExitsStartupCode) {
  NodeProcess proc;
  ASSERT_TRUE(proc.spawn(DHARMA_GATEWAY_BIN,
                         {"--bind", "999.1.2.3:0", "--nodes", "1"}));
  auto st = proc.wait(kExitMs);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->code, 2);
}

TEST(GatewayProtocol, NodeDaemonBadBindHostExitsStartupCode) {
  // The UDP side of the same contract: dharma_node with an unresolvable
  // bind host dies through net::TransportError, not std::terminate.
  NodeProcess proc;
  ASSERT_TRUE(proc.spawn(DHARMA_NODE_BIN,
                         {"--bind", "999.1.2.3", "--nodes", "1"}));
  auto st = proc.wait(kExitMs);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->code, 2);
}

TEST(GatewayProtocol, SigtermDrainsAndExitsZero) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess proc;
  u16 port = bootGateway(proc, {});
  ASSERT_NE(port, 0);
  ASSERT_TRUE(proc.signal(SIGTERM));
  auto banner = proc.readLineWithPrefix("OK shutdown signal=term", kExitMs);
  EXPECT_TRUE(banner.has_value()) << "no graceful-shutdown banner";
  auto st = proc.wait(kExitMs);
  ASSERT_TRUE(st.has_value()) << "gateway ignored SIGTERM";
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->code, 0);
}

}  // namespace
}  // namespace dharma::cluster
