/// \file test_node_protocol.cpp
/// \brief Line-protocol coverage for the dharma_node daemon, driven over
/// real pipes against the real binary.
///
/// Every command's OK and ERR shape, stats field inventory, malformed
/// input rejection, exit-code accounting, and the SIGTERM graceful-stop
/// contract — all of it the surface the cluster harness (and any operator
/// script) depends on. The daemon under test is the installed binary, not
/// a stub: these are the repo's smallest real-process tests. Where
/// dharma_gateway shares the contract through the same daemon host (stop
/// signals, the mirrored stats-json families), it runs the same checks.

#include <csignal>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "subprocess.hpp"

#ifndef DHARMA_NODE_BIN
#error "build must define DHARMA_NODE_BIN (path to the dharma_node binary)"
#endif
#ifndef DHARMA_GATEWAY_BIN
#error "build must define DHARMA_GATEWAY_BIN (path to dharma_gateway)"
#endif

namespace dharma::cluster {
namespace {

constexpr int kCmdMs = 10'000;
constexpr int kBootMs = 15'000;

/// Spawns one daemon (2 in-process nodes so stores replicate) and waits
/// out its boot banner. Maintenance stays on defaults — these tests are
/// short enough that no timer ever fires.
class NodeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::signal(SIGPIPE, SIG_IGN);
    ASSERT_TRUE(proc.spawn(DHARMA_NODE_BIN,
                           {"--nodes", "2", "--rpc-timeout-ms", "250"}));
    auto listen = proc.readLineWithPrefix("node 0 listening on ", kBootMs);
    ASSERT_TRUE(listen.has_value()) << "no listening banner";
    selfAddr = listen->substr(std::string("node 0 listening on ").size());
    ASSERT_TRUE(proc.readLineWithPrefix("cluster up", kBootMs).has_value());
  }

  void TearDown() override {
    if (proc.running()) {
      proc.sendLine("quit");
      proc.wait(5000);
    }
  }

  std::string cmd(const std::string& c) {
    auto r = proc.command(c, kCmdMs);
    EXPECT_TRUE(r.has_value()) << "no reply to: " << c;
    return r.value_or("");
  }

  static bool startsWith(const std::string& s, const std::string& p) {
    return s.rfind(p, 0) == 0;
  }

  NodeProcess proc;
  std::string selfAddr;
};

TEST_F(NodeProtocolTest, HelpAnswersOk) {
  EXPECT_TRUE(startsWith(cmd("help"), "OK commands:"));
}

TEST_F(NodeProtocolTest, UnknownCommandIsTypedErr) {
  EXPECT_TRUE(startsWith(cmd("frobnicate"), "ERR unknown command"));
}

TEST_F(NodeProtocolTest, CommentsAndBlanksAreIgnored) {
  // Neither a comment nor an empty line produces a reply; the next real
  // command's reply must come through cleanly, proving nothing queued up.
  ASSERT_TRUE(proc.sendLine("# a comment"));
  ASSERT_TRUE(proc.sendLine(""));
  EXPECT_TRUE(startsWith(cmd("help"), "OK commands:"));
}

TEST_F(NodeProtocolTest, InsertTagSearchResolveHappyPath) {
  EXPECT_TRUE(startsWith(cmd("insert song-a uri://song-a rock jazz"),
                         "OK inserted song-a"));
  EXPECT_TRUE(startsWith(cmd("tag song-a blues"), "OK tagged song-a"));
  std::string s = cmd("search rock");
  EXPECT_TRUE(startsWith(s, "OK search rock:"));
  // Detail lines ride AFTER the OK line, two-space indented — the shape
  // the harness relies on to skip them.
  auto detail = proc.readLineWithPrefix("  resource song-a", 2000);
  EXPECT_TRUE(detail.has_value()) << "search printed no detail lines";
  std::string r = cmd("resolve song-a");
  EXPECT_TRUE(startsWith(r, "OK song-a -> uri://song-a")) << r;
}

TEST_F(NodeProtocolTest, UsageErrorsForEveryCommand) {
  EXPECT_TRUE(startsWith(cmd("insert"), "ERR usage: insert"));
  EXPECT_TRUE(startsWith(cmd("insert onlyres"), "ERR usage: insert"));
  EXPECT_TRUE(startsWith(cmd("tag"), "ERR usage: tag"));
  EXPECT_TRUE(startsWith(cmd("tag res-but-no-tags"), "ERR usage: tag"));
  EXPECT_TRUE(startsWith(cmd("search"), "ERR usage: search"));
  EXPECT_TRUE(startsWith(cmd("resolve"), "ERR usage: resolve"));
  EXPECT_TRUE(startsWith(cmd("ping"), "ERR usage: ping"));
  EXPECT_TRUE(startsWith(cmd("drop"), "ERR usage: drop"));
  EXPECT_TRUE(startsWith(cmd("undrop"), "ERR usage: undrop"));
}

TEST_F(NodeProtocolTest, ResolveMissIsTypedNotFound) {
  std::string r = cmd("resolve never-inserted");
  EXPECT_TRUE(startsWith(r, "ERR resolve never-inserted:")) << r;
  EXPECT_NE(r.find("not-found"), std::string::npos) << r;
}

TEST_F(NodeProtocolTest, PingSelfAndTypedResolutionErrors) {
  EXPECT_TRUE(startsWith(cmd("ping " + selfAddr), "OK ping " + selfAddr));
  std::string badHost = cmd("ping not-a-host:9000");
  EXPECT_TRUE(startsWith(badHost, "ERR ping")) << badHost;
  EXPECT_NE(badHost.find("bad-host"), std::string::npos) << badHost;
  std::string badPort = cmd("ping 127.0.0.1:notaport");
  EXPECT_TRUE(startsWith(badPort, "ERR ping")) << badPort;
  EXPECT_NE(badPort.find("bad-port"), std::string::npos) << badPort;
}

TEST_F(NodeProtocolTest, PingDeadPeerTimesOut) {
  // Discard-port style probe: a port nothing on loopback listens on.
  std::string r = cmd("ping 127.0.0.1:9");
  EXPECT_TRUE(startsWith(r, "ERR ping 127.0.0.1:9: timeout")) << r;
}

TEST_F(NodeProtocolTest, DropUndropLifecycle) {
  EXPECT_EQ(cmd("drop 127.0.0.1:7001"), "OK drop 127.0.0.1:7001 (rules=1)");
  EXPECT_EQ(cmd("drop 127.0.0.1:7002"), "OK drop 127.0.0.1:7002 (rules=2)");
  EXPECT_EQ(cmd("undrop 127.0.0.1:7001"),
            "OK undrop 127.0.0.1:7001 (removed=1)");
  EXPECT_EQ(cmd("undrop 127.0.0.1:7001"),
            "OK undrop 127.0.0.1:7001 (removed=0)");
  EXPECT_EQ(cmd("undrop all"), "OK undrop all (removed=1)");
  EXPECT_TRUE(startsWith(cmd("drop nonsense-host:1"), "ERR usage: drop"));
}

TEST_F(NodeProtocolTest, StatsCarriesEveryField) {
  cmd("insert song-x uri://song-x rock");
  std::string s = cmd("stats");
  ASSERT_TRUE(startsWith(s, "OK stats:")) << s;
  for (const char* field :
       {" ops=", " failures=", " lookups=", " rt=", " addr=", " droprules=",
        " sent=", " received=", " bytes=", " oversize=", " ruledrops="}) {
    EXPECT_NE(s.find(field), std::string::npos)
        << "stats line missing '" << field << "': " << s;
  }
  // The advertised address must be the one from the boot banner.
  EXPECT_NE(s.find(" addr=" + selfAddr), std::string::npos) << s;
}

TEST_F(NodeProtocolTest, CleanQuitExitsZero) {
  ASSERT_TRUE(proc.sendLine("quit"));
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, "done");
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 0);
}

TEST_F(NodeProtocolTest, ErrCommandFlipsExitCode) {
  EXPECT_TRUE(startsWith(cmd("resolve missing-thing"), "ERR"));
  ASSERT_TRUE(proc.sendLine("quit"));
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, "done (with errors)");
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 1);
}

TEST_F(NodeProtocolTest, StdinEofIsACleanQuit) {
  proc.closeStdin();
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 0);
}

TEST_F(NodeProtocolTest, SigtermIsAGracefulStop) {
  ASSERT_TRUE(proc.signal(SIGTERM));
  auto bye = proc.readLineWithPrefix("OK shutdown", 5000);
  ASSERT_TRUE(bye.has_value()) << "no shutdown banner after SIGTERM";
  EXPECT_EQ(*bye, "OK shutdown signal=term");
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited) << "SIGTERM must exit, not die by signal";
  EXPECT_EQ(es->code, 0);
}

TEST_F(NodeProtocolTest, SigintIsAGracefulStop) {
  ASSERT_TRUE(proc.signal(SIGINT));
  auto bye = proc.readLineWithPrefix("OK shutdown", 5000);
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(*bye, "OK shutdown signal=int");
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 0);
}

/// One daemon binary with the arguments that boot it and the line that
/// announces it is up.
struct DaemonCase {
  const char* name;
  const char* bin;
  std::vector<std::string> args;
  const char* upBanner;
};

void PrintTo(const DaemonCase& d, std::ostream* os) { *os << d.name; }

const DaemonCase kDaemons[] = {
    {"Node", DHARMA_NODE_BIN, {"--nodes", "1"}, "cluster up"},
    {"Gateway", DHARMA_GATEWAY_BIN,
     {"--bind", "127.0.0.1:0", "--nodes", "1"}, "gateway up"},
};

/// Its cases print as Daemons/NodeProtocolBoot.*, a suite apart from the
/// plain NodeProtocolBoot tests below.
class NodeProtocolBoot : public ::testing::TestWithParam<DaemonCase> {};

/// A SIGINT sent the moment the daemon announces it is up, with no input
/// on stdin at all, still stops it: the handler wakes the command loop
/// instead of leaving it blocked until a next line that never comes.
/// Twenty spawns, because the window between the loop's stop check and its
/// wait is narrow.
TEST_P(NodeProtocolBoot, SigintRightAfterBootIsAGracefulStop) {
  std::signal(SIGPIPE, SIG_IGN);
  const DaemonCase& d = GetParam();
  for (int run = 0; run < 20; ++run) {
    NodeProcess p;
    ASSERT_TRUE(p.spawn(d.bin, d.args));
    ASSERT_TRUE(p.readLineWithPrefix(d.upBanner, kBootMs).has_value())
        << "run " << run;
    ASSERT_TRUE(p.signal(SIGINT));
    auto bye = p.readLineWithPrefix("OK shutdown", 5000);
    ASSERT_TRUE(bye.has_value()) << "no shutdown banner, run " << run;
    EXPECT_EQ(*bye, "OK shutdown signal=int");
    auto es = p.wait(5000);
    ASSERT_TRUE(es.has_value()) << "run " << run;
    EXPECT_TRUE(es->exited) << "run " << run;
    EXPECT_EQ(es->code, 0) << "run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Daemons, NodeProtocolBoot, ::testing::ValuesIn(kDaemons),
    [](const ::testing::TestParamInfo<DaemonCase>& info) {
      return std::string(info.param.name);
    });

/// The engine counters both daemons mirror into their metrics registry:
/// the client's, node 0's and the datagram transport's.
constexpr const char* kMirroredFamilies[] = {
    "dharma_client_ops_total",
    "dharma_client_failures_total",
    "dharma_client_lookups_total",
    "dharma_client_cache_hits_total",
    "dharma_client_cache_misses_total",
    "dharma_node_cache_hits_total",
    "dharma_node_stores_deduplicated_total",
    "dharma_node_rpcs_sent_total",
    "dharma_node_timeouts_total",
    "dharma_udp_datagrams_sent_total",
    "dharma_udp_datagrams_received_total",
    "dharma_udp_bytes_sent_total",
};

/// Value of \p family inside the "counters" object of a stats-json reply,
/// or nullopt when the family is absent.
std::optional<u64> jsonCounter(const std::string& json,
                               const std::string& family) {
  const usize begin = json.find("\"counters\":{");
  const usize end = json.find("},\"deltas\":{", begin);
  if (begin == std::string::npos || end == std::string::npos) {
    return std::nullopt;
  }
  const std::string key = "\"" + family + "\":";
  const usize at = json.find(key, begin);
  if (at == std::string::npos || at > end) return std::nullopt;
  return std::stoull(json.substr(at + key.size()));
}

/// Both daemons' stats-json carries every mirrored engine family, and the
/// node daemon's op count agrees with its raw `stats` line.
TEST(DaemonStatsJson, CarriesEveryMirroredFamily) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess node;
  ASSERT_TRUE(node.spawn(DHARMA_NODE_BIN, {"--nodes", "2"}));
  ASSERT_TRUE(node.readLineWithPrefix("cluster up", kBootMs).has_value());
  std::string ins = node.command("insert song-m uri://song-m rock", kCmdMs)
                        .value_or("");
  ASSERT_EQ(ins.rfind("OK inserted song-m", 0), 0u) << ins;
  std::string json = node.command("stats-json", kCmdMs).value_or("");
  ASSERT_EQ(json.rfind("OK stats-json ", 0), 0u) << json;
  for (const char* family : kMirroredFamilies) {
    EXPECT_TRUE(jsonCounter(json, family).has_value())
        << "node stats-json missing " << family << ": " << json;
  }
  std::string stats = node.command("stats", kCmdMs).value_or("");
  const usize ops = stats.find(" ops=");
  ASSERT_NE(ops, std::string::npos) << stats;
  EXPECT_EQ(jsonCounter(json, "dharma_client_ops_total"),
            std::stoull(stats.substr(ops + 5)))
      << json << "\n" << stats;
  node.sendLine("quit");
  node.wait(5000);

  NodeProcess gw;
  ASSERT_TRUE(gw.spawn(DHARMA_GATEWAY_BIN,
                       {"--bind", "127.0.0.1:0", "--nodes", "2"}));
  ASSERT_TRUE(gw.readLineWithPrefix("gateway up", kBootMs).has_value());
  std::string gwJson = gw.command("stats-json", kCmdMs).value_or("");
  ASSERT_EQ(gwJson.rfind("OK stats-json ", 0), 0u) << gwJson;
  for (const char* family : kMirroredFamilies) {
    EXPECT_TRUE(jsonCounter(gwJson, family).has_value())
        << "gateway stats-json missing " << family << ": " << gwJson;
  }
  gw.sendLine("quit");
  gw.wait(5000);
}

/// Boot-time flags outside the fixture: bad --drop-peers must be a
/// diagnosed config error (exit 2), not a silently ignored rule.
TEST(NodeProtocolBoot, BadDropPeersSpecExitsTwo) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN,
                      {"--nodes", "1", "--drop-peers", "garbage-host:x"}));
  auto es = p.wait(kBootMs);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 2);
}

/// A malformed integer flag is a startup error (exit 2), not an uncaught
/// parse exception. Only values that cannot start threads or bind sockets
/// are spawned; negative and huge counts are covered in process
/// (test_daemon_flags.cpp).
TEST(NodeProtocolBoot, MalformedIntegerFlagExitsTwo) {
  std::signal(SIGPIPE, SIG_IGN);
  for (const char* flag : {"--nodes", "--refresh-ms", "--republish-ms"}) {
    NodeProcess p;
    ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN, {flag, "x"}));
    auto es = p.wait(kBootMs);
    ASSERT_TRUE(es.has_value()) << flag;
    EXPECT_TRUE(es->exited) << flag;
    EXPECT_EQ(es->code, 2) << flag;
  }
}

TEST(NodeProtocolBoot, DropPeersFlagInstallsRules) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN,
                      {"--nodes", "1", "--drop-peers",
                       "127.0.0.1:7001,127.0.0.1:7002"}));
  ASSERT_TRUE(p.readLineWithPrefix("cluster up", kBootMs).has_value());
  auto s = p.command("stats", kCmdMs);
  ASSERT_TRUE(s.has_value());
  EXPECT_NE(s->find(" droprules=2"), std::string::npos) << *s;
  p.sendLine("quit");
  p.wait(5000);
}

TEST(NodeProtocolBoot, BadJoinSpecExitsTwo) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN,
                      {"--nodes", "1", "--join", "not-a-host:9"}));
  auto es = p.wait(kBootMs);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 2);
}

}  // namespace
}  // namespace dharma::cluster
