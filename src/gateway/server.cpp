#include "gateway/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/histogram.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace dharma::gateway {

namespace {

void setNonBlocking(int fd) { fcntl(fd, F_SETFL, O_NONBLOCK); }

std::string withErrno(const char* what) {
  std::string s = what;
  s += ": ";
  s += std::strerror(errno);
  return s;
}

/// Renders an OpCost as a JSON object — every successful data-route reply
/// carries the lookups actually paid, so Table I is checkable from curl.
std::string costJson(const core::OpCost& c) {
  std::string s = "{\"lookups\":";
  s += std::to_string(c.lookups);
  s += ",\"puts\":";
  s += std::to_string(c.puts);
  s += ",\"gets\":";
  s += std::to_string(c.gets);
  s += ",\"servedFromCache\":";
  s += std::to_string(c.servedFromCache);
  s += "}";
  return s;
}

std::string entriesJson(const std::vector<dht::BlockEntry>& entries) {
  std::string s = "[";
  bool first = true;
  for (const auto& e : entries) {
    if (!first) s += ",";
    first = false;
    s += "{\"name\":\"";
    s += jsonEscape(e.name);
    s += "\",\"weight\":";
    s += std::to_string(e.weight);
    s += "}";
  }
  s += "]";
  return s;
}

template <typename T>
std::string receiptJson(std::string_view res, const core::Outcome<T>& o) {
  std::string s = "{\"resource\":\"";
  s += jsonEscape(res);
  s += "\",\"blocksWritten\":";
  s += std::to_string(o.value().blocksWritten);
  s += ",\"minReplicas\":";
  s += std::to_string(o.value().minReplicas);
  s += ",\"retries\":";
  s += std::to_string(o.retries);
  s += ",\"cost\":";
  s += costJson(o.cost);
  s += "}";
  return s;
}

/// Splits a request body into non-empty, whitespace-trimmed lines — the
/// POST /resources/{r}/tags body format (one tag per line).
std::vector<std::string> bodyLines(std::string_view body) {
  std::vector<std::string> out;
  usize start = 0;
  while (start <= body.size()) {
    usize nl = body.find('\n', start);
    std::string_view line = body.substr(
        start, nl == std::string_view::npos ? body.size() - start : nl - start);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ' ||
                             line.back() == '\t')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (!line.empty()) out.emplace_back(line);
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return out;
}

HttpResponse jsonError(u16 status, std::string_view token,
                       std::string_view detail) {
  HttpResponse r;
  r.status = status;
  r.body = errorBody(token, detail);
  return r;
}

template <typename T>
HttpResponse opErrorResponse(const core::Outcome<T>& o) {
  core::OpError e = o.error();
  return jsonError(httpStatusFor(e), core::opErrorName(e),
                   core::opErrorName(e));
}

}  // namespace

const char* startErrorName(StartError e) {
  switch (e) {
    case StartError::kNone: return "none";
    case StartError::kBadAddress: return "bad-address";
    case StartError::kSocketFailed: return "socket-failed";
    case StartError::kBindInUse: return "bind-in-use";
    case StartError::kBindFailed: return "bind-failed";
    case StartError::kListenFailed: return "listen-failed";
  }
  return "unknown";
}

u16 httpStatusFor(core::OpError e) {
  return e == core::OpError::kNotFound ? 404 : 503;
}

std::string errorBody(std::string_view token, std::string_view detail) {
  std::string s = "{\"error\":\"";
  s += jsonEscape(token);
  s += "\"";
  if (!detail.empty()) {
    s += ",\"detail\":\"";
    s += jsonEscape(detail);
    s += "\"";
  }
  s += "}";
  return s;
}

GatewayServer::GatewayServer(GatewayConfig cfg, Deps deps)
    : cfg_(std::move(cfg)), deps_(std::move(deps)) {
  if (deps_.metrics != nullptr) {
    registry_ = deps_.metrics;
  } else {
    ownedRegistry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = ownedRegistry_.get();
  }
  regAccepted_ = &registry_->counter("dharma_gateway_connections_accepted_total",
                                     "TCP connections accepted by the gateway");
  regClosed_ = &registry_->counter("dharma_gateway_connections_closed_total",
                                   "Gateway connections closed");
  regConnRejected_ =
      &registry_->counter("dharma_gateway_connections_rejected_total",
                          "Connections refused at the connection cap");
  regRequests_ = &registry_->counter("dharma_gateway_requests_total",
                                     "Requests dispatched to the worker pool");
  // Declared up front so the family (with HELP/TYPE) exists before the
  // first response creates a labeled series.
  registry_->counter("dharma_gateway_responses_total",
                     "Responses by route and status",
                     {{"route", "stats"}, {"status", "200"}});
  regParseErrors_ = &registry_->counter("dharma_gateway_parse_errors_total",
                                        "Connections failed by the HTTP parser");
  regOverload_ = &registry_->counter("dharma_gateway_overload_rejected_total",
                                     "Requests refused with 503 overloaded");
  regDrain_ = &registry_->counter("dharma_gateway_drain_rejected_total",
                                  "Requests refused with 503 draining");
  regBytesIn_ =
      &registry_->counter("dharma_gateway_bytes_in_total", "Request bytes read");
  regBytesOut_ = &registry_->counter("dharma_gateway_bytes_out_total",
                                     "Response bytes written");
  // Latency histograms for every route label the server can emit, plus the
  // two synthetic ones used on the event thread.
  static constexpr RouteId kAllRoutes[] = {
      RouteId::kPutResource, RouteId::kPostTags,  RouteId::kSearch,
      RouteId::kResolve,     RouteId::kStats,     RouteId::kMetrics,
      RouteId::kDebugTraces, RouteId::kNotFound,  RouteId::kMethodNotAllowed,
      RouteId::kBadRequest,
  };
  MutexLock lk(histMapMu_);
  for (RouteId id : kAllRoutes) {
    const char* label = routeName(id);
    routeHist_[label] = &registry_->histogram(
        "dharma_gateway_route_latency_us",
        "Request handling latency by route (microseconds)", {{"route", label}});
  }
}

obs::Histogram& GatewayServer::routeHistogram(const char* label) {
  {
    MutexLock lk(histMapMu_);
    auto it = routeHist_.find(std::string_view(label));
    if (it != routeHist_.end()) return *it->second;
  }
  obs::Histogram& h = registry_->histogram(
      "dharma_gateway_route_latency_us",
      "Request handling latency by route (microseconds)", {{"route", label}});
  MutexLock lk(histMapMu_);
  routeHist_[label] = &h;
  return h;
}

void GatewayServer::syncRegistry(const GatewayCounters& g) {
  regAccepted_->set(g.connectionsAccepted);
  regClosed_->set(g.connectionsClosed);
  regConnRejected_->set(g.connectionsRejected);
  regRequests_->set(g.requestsDispatched);
  regParseErrors_->set(g.parseErrors);
  regOverload_->set(g.overloadRejected);
  regDrain_->set(g.drainRejected);
  regBytesIn_->set(g.bytesIn);
  regBytesOut_->set(g.bytesOut);
  for (const auto& [route, byStatus] : g.byRouteStatus) {
    for (const auto& [status, n] : byStatus) {
      registry_
          ->counter("dharma_gateway_responses_total",
                    "Responses by route and status",
                    {{"route", route}, {"status", std::to_string(status)}})
          .set(n);
    }
  }
}

GatewayServer::~GatewayServer() { stop(); }

StartError GatewayServer::start() {
  in_addr bindAddr{};
  if (inet_pton(AF_INET, cfg_.bindHost.c_str(), &bindAddr) != 1) {
    startDetail_ = "not an IPv4 literal: " + cfg_.bindHost;
    return StartError::kBadAddress;
  }

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    startDetail_ = withErrno("socket");
    return StartError::kSocketFailed;
  }
  int one = 1;
  setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = bindAddr;
  sa.sin_port = htons(cfg_.port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    StartError e = errno == EADDRINUSE ? StartError::kBindInUse
                                       : StartError::kBindFailed;
    startDetail_ = withErrno("bind");
    ::close(listenFd_);
    listenFd_ = -1;
    return e;
  }
  if (::listen(listenFd_, 128) != 0) {
    startDetail_ = withErrno("listen");
    ::close(listenFd_);
    listenFd_ = -1;
    return StartError::kListenFailed;
  }
  socklen_t len = sizeof(sa);
  getsockname(listenFd_, reinterpret_cast<sockaddr*>(&sa), &len);
  boundPort_ = ntohs(sa.sin_port);
  setNonBlocking(listenFd_);

  if (::pipe(wakePipe_) != 0) {
    startDetail_ = withErrno("pipe");
    ::close(listenFd_);
    listenFd_ = -1;
    return StartError::kSocketFailed;
  }
  setNonBlocking(wakePipe_[0]);
  setNonBlocking(wakePipe_[1]);

  pool_ = std::make_unique<ThreadPool>(cfg_.workers == 0 ? 1 : cfg_.workers);
  running_ = true;
  draining_ = false;
  stopped_ = false;
  eventThread_ = std::thread([this] { eventLoop(); });
  return StartError::kNone;
}

void GatewayServer::stop() {
  if (stopped_ || !running_) return;
  stopped_ = true;
  draining_ = true;
  wake();
  if (eventThread_.joinable()) eventThread_.join();
  // Workers are joined after the event loop exits so every dispatched
  // request produced its completion (even if its connection is gone).
  pool_.reset();
  running_ = false;
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wakePipe_[i] >= 0) {
      ::close(wakePipe_[i]);
      wakePipe_[i] = -1;
    }
  }
  conns_.clear();
}

void GatewayServer::wake() {
  char b = 1;
  [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &b, 1);
}

GatewayCounters GatewayServer::counters() const {
  MutexLock lk(statsMu_);
  return counters_;
}

void GatewayServer::recordResponse(const char* routeLabel, u16 status,
                                   usize bytes) {
  MutexLock lk(statsMu_);
  counters_.responses++;
  counters_.bytesOut += bytes;
  counters_.byRouteStatus[routeLabel][status]++;
}

// ---------------------------------------------------------------------------
// Event thread
// ---------------------------------------------------------------------------

void GatewayServer::eventLoop() {
  std::chrono::steady_clock::time_point drainStart{};
  std::vector<pollfd> pfds;
  std::vector<Connection*> pfdConn;  // parallel to pfds (null for non-conn)

  for (;;) {
    const bool draining = draining_.load();
    if (draining && drainStart.time_since_epoch().count() == 0) {
      drainStart = std::chrono::steady_clock::now();
    }

    pfds.clear();
    pfdConn.clear();
    pfds.push_back({wakePipe_[0], POLLIN, 0});
    pfdConn.push_back(nullptr);
    const bool acceptOpen = !draining && conns_.size() < cfg_.maxConnections;
    if (acceptOpen) {
      pfds.push_back({listenFd_, POLLIN, 0});
      pfdConn.push_back(nullptr);
    }
    for (auto& [id, c] : conns_) {
      short ev = 0;
      if (!c->parseError() && !c->readClosed() && !c->closeAfterDrain() &&
          c->queuedRequests() < cfg_.maxQueuedPerConnection) {
        ev |= POLLIN;
      }
      if (c->wantsWrite()) ev |= POLLOUT;
      if (ev == 0) continue;  // waiting on a worker completion only
      pfds.push_back({c->fd(), ev, 0});
      pfdConn.push_back(c.get());
    }

    // Bounded poll so the drain deadline is honoured even when idle.
    int timeoutMs = draining ? 50 : 500;
    int rc = ::poll(pfds.data(), pfds.size(), timeoutMs);
    if (rc < 0 && errno != EINTR) break;

    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (acceptOpen && (pfds[1].revents & POLLIN)) acceptReady();

    for (usize i = 1; i < pfds.size(); ++i) {
      Connection* c = pfdConn[i];
      if (c == nullptr || pfds[i].revents == 0) continue;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) readReady(*c);
      if (pfds[i].revents & POLLOUT) {
        if (!c->flush()) c->markDead();
      }
    }

    drainCompletions();

    // Dispatch parsed requests, emit any deferred parse-error response once
    // earlier pipelined responses are out, and opportunistically flush.
    for (auto& [id, c] : conns_) {
      dispatchReady(*c);
      if (c->parseError() && !c->errorResponded && !c->dead() &&
          !c->requestInFlight() && c->queuedRequests() == 0) {
        c->errorResponded = true;
        {
          MutexLock lk(statsMu_);
          counters_.parseErrors++;
        }
        HttpResponse resp = jsonError(c->parseErrorStatus(),
                                      c->parseErrorReason(),
                                      "request rejected by parser");
        resp.close = true;
        respondNow(*c, std::move(resp), "parse_error");
      }
      if (c->wantsWrite() && !c->flush()) c->markDead();
    }

    // Reap connections with nothing left to do. A connection whose request
    // is still with a worker is left alive until its completion arrives.
    // When draining, an idle keep-alive connection has nothing left to do
    // either: close it rather than wait out the drain deadline.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (draining && it->second->idle()) it->second->setCloseAfterDrain();
      if (it->second->drained()) {
        {
          MutexLock lk(statsMu_);
          counters_.connectionsClosed++;
        }
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }

    if (draining) {
      if (conns_.empty() && inFlightTotal_ == 0) break;
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - drainStart)
                         .count();
      if (static_cast<u64>(elapsed) > cfg_.drainDeadlineMs) {
        break;  // force close: conns_ destructors close the sockets
      }
    }
  }
}

void GatewayServer::acceptReady() {
  for (;;) {
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: poll again
    }
    if (conns_.size() >= cfg_.maxConnections) {
      ::close(fd);
      MutexLock lk(statsMu_);
      counters_.connectionsRejected++;
      continue;
    }
    setNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    u64 id = nextConnId_++;
    conns_.emplace(id, std::make_unique<Connection>(id, fd, cfg_.limits));
    MutexLock lk(statsMu_);
    counters_.connectionsAccepted++;
  }
}

void GatewayServer::readReady(Connection& c) {
  auto r = c.readSome();
  if (r.bytes > 0) {
    MutexLock lk(statsMu_);
    counters_.bytesIn += r.bytes;
  }
  if (r.ioError) c.markDead();
  // Parse errors are handled in the event loop once earlier pipelined
  // responses have been written, so response order is preserved.
}

void GatewayServer::respondNow(Connection& c, HttpResponse resp,
                               const char* routeLabel) {
  std::string bytes = serializeResponse(resp);
  recordResponse(routeLabel, resp.status, bytes.size());
  c.queueWrite(std::move(bytes));
  c.served++;
  if (resp.close) c.setCloseAfterDrain();
}

void GatewayServer::dispatchReady(Connection& c) {
  HttpRequest req;
  while (c.popRequest(req)) {
    if (draining_.load()) {
      {
        MutexLock lk(statsMu_);
        counters_.drainRejected++;
      }
      HttpResponse resp = jsonError(503, "draining", "gateway shutting down");
      resp.close = true;
      respondNow(c, std::move(resp), routeName(RouteId::kBadRequest));
      continue;
    }
    if (inFlightTotal_ >= cfg_.maxPendingRequests) {
      {
        MutexLock lk(statsMu_);
        counters_.overloadRejected++;
      }
      HttpResponse resp =
          jsonError(503, "overloaded", "request queue full; retry");
      resp.close = !req.keepAlive;
      respondNow(c, std::move(resp), "overloaded");
      continue;
    }

    c.setInFlight(true);
    inFlightTotal_++;
    {
      MutexLock lk(statsMu_);
      counters_.requestsDispatched++;
    }
    u64 connId = c.id();
    // The request moves into the task; the worker serialises the response
    // and posts a completion, then wakes the poll loop.
    pool_->submit([this, connId, r = std::move(req)]() mutable {
      const char* label = "";
      const auto t0 = std::chrono::steady_clock::now();
      HttpResponse resp = handle(r, &label);
      const auto dt = std::chrono::steady_clock::now() - t0;
      routeHistogram(label).record(static_cast<u64>(
          std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
      if (!r.keepAlive) resp.close = true;
      Completion done;
      done.connId = connId;
      done.close = resp.close;
      done.routeLabel = label;
      done.status = resp.status;
      done.bytes = serializeResponse(resp);
      {
        MutexLock lk(cqMu_);
        completions_.push_back(std::move(done));
      }
      wake();
    });
    break;  // one in flight per connection: stop popping
  }
}

void GatewayServer::drainCompletions() {
  std::vector<Completion> ready;
  {
    MutexLock lk(cqMu_);
    ready.swap(completions_);
  }
  for (auto& done : ready) {
    inFlightTotal_--;
    recordResponse(done.routeLabel, done.status, done.bytes.size());
    auto it = conns_.find(done.connId);
    if (it == conns_.end()) continue;  // connection died while in flight
    Connection& c = *it->second;
    c.setInFlight(false);
    c.served++;
    c.queueWrite(std::move(done.bytes));
    if (done.close) c.setCloseAfterDrain();
  }
}

// ---------------------------------------------------------------------------
// Worker-side request handling
// ---------------------------------------------------------------------------

HttpResponse GatewayServer::handle(const HttpRequest& req,
                                   const char** routeLabel) {
  RouteMatch m = route(req.method, req.path);
  *routeLabel = routeName(m.id);
  switch (m.id) {
    case RouteId::kPutResource: return handlePut(m, req);
    case RouteId::kPostTags: return handlePostTags(m, req);
    case RouteId::kSearch: return handleSearch(req);
    case RouteId::kResolve: return handleResolve(m);
    case RouteId::kStats: return handleStats();
    case RouteId::kMetrics: return handleMetrics();
    case RouteId::kDebugTraces: return handleDebugTraces();
    case RouteId::kNotFound:
      return jsonError(404, "no-such-route", req.path);
    case RouteId::kMethodNotAllowed: {
      HttpResponse r = jsonError(405, "method-not-allowed", req.method);
      r.extraHeaders.emplace_back("Allow", m.allow);
      return r;
    }
    case RouteId::kBadRequest:
      return jsonError(400, m.badReason, req.path);
  }
  return jsonError(404, "no-such-route", req.path);
}

HttpResponse GatewayServer::handlePut(const RouteMatch& m,
                                      const HttpRequest& req) {
  if (deps_.client == nullptr) {
    return jsonError(503, "no-client", "gateway has no engine client");
  }
  // Body is the URI; tags ride the query string as repeated ?tag=...
  auto params = parseQuery(req.query);
  if (!params) return jsonError(400, "bad-percent-encoding", req.query);
  std::vector<std::string> tags;
  for (auto& [k, v] : *params) {
    if (k == "tag" && !v.empty()) tags.push_back(std::move(v));
  }
  std::string uri(req.body);
  while (!uri.empty() && (uri.back() == '\n' || uri.back() == '\r')) {
    uri.pop_back();
  }
  if (uri.empty()) {
    return jsonError(400, "empty-body", "PUT body must be the resource URI");
  }
  auto o = deps_.client->insertResource(m.param, uri, tags);
  if (!o.ok()) return opErrorResponse(o);
  HttpResponse r;
  r.body = receiptJson(m.param, o);
  return r;
}

HttpResponse GatewayServer::handlePostTags(const RouteMatch& m,
                                           const HttpRequest& req) {
  if (deps_.client == nullptr) {
    return jsonError(503, "no-client", "gateway has no engine client");
  }
  std::vector<std::string> tags = bodyLines(req.body);
  if (tags.empty()) {
    return jsonError(400, "no-tags", "POST body must be one tag per line");
  }
  auto o = deps_.client->tagResources(m.param, tags);
  if (!o.ok()) return opErrorResponse(o);
  HttpResponse r;
  r.body = receiptJson(m.param, o);
  return r;
}

HttpResponse GatewayServer::handleSearch(const HttpRequest& req) {
  if (deps_.client == nullptr) {
    return jsonError(503, "no-client", "gateway has no engine client");
  }
  auto params = parseQuery(req.query);
  if (!params) return jsonError(400, "bad-percent-encoding", req.query);
  std::string tag;
  u32 steps = cfg_.defaultSearchSteps;
  for (const auto& [k, v] : *params) {
    if (k == "tag") {
      tag = v;
    } else if (k == "steps") {
      u32 parsed = 0;
      if (v.empty() || v.size() > 6) {
        return jsonError(400, "bad-steps-parameter", v);
      }
      for (char ch : v) {
        if (ch < '0' || ch > '9') {
          return jsonError(400, "bad-steps-parameter", v);
        }
        parsed = parsed * 10 + static_cast<u32>(ch - '0');
      }
      if (parsed == 0 || parsed > cfg_.maxSearchSteps) {
        return jsonError(400, "bad-steps-parameter",
                         "steps must be in [1, " +
                             std::to_string(cfg_.maxSearchSteps) + "]");
      }
      steps = parsed;
    }
  }
  if (tag.empty()) {
    return jsonError(400, "missing-tag-parameter", "GET /search?tag=...");
  }

  auto o = deps_.client->searchSteps(tag, steps);
  if (!o.ok()) return opErrorResponse(o);

  std::string body = "{\"tag\":\"";
  body += jsonEscape(tag);
  body += "\",\"steps\":";
  body += std::to_string(o.value().hops.size());
  body += ",\"exhausted\":";
  body += o.value().exhausted ? "true" : "false";
  body += ",\"hops\":[";
  bool first = true;
  for (const auto& hop : o.value().hops) {
    if (!first) body += ",";
    first = false;
    body += "{\"tag\":\"";
    body += jsonEscape(hop.tag);
    body += "\",\"tagKnown\":";
    body += hop.step.tagKnown ? "true" : "false";
    body += ",\"relatedTags\":";
    body += entriesJson(hop.step.relatedTags);
    body += ",\"resources\":";
    body += entriesJson(hop.step.resources);
    body += ",\"tagsTruncated\":";
    body += hop.step.tagsTruncated ? "true" : "false";
    body += ",\"resourcesTruncated\":";
    body += hop.step.resourcesTruncated ? "true" : "false";
    body += "}";
  }
  body += "],\"cost\":";
  body += costJson(o.cost);
  body += "}";
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse GatewayServer::handleResolve(const RouteMatch& m) {
  if (deps_.client == nullptr) {
    return jsonError(503, "no-client", "gateway has no engine client");
  }
  auto o = deps_.client->resolveUri(m.param);
  if (!o.ok()) return opErrorResponse(o);
  std::string body = "{\"resource\":\"";
  body += jsonEscape(m.param);
  body += "\",\"uri\":\"";
  body += jsonEscape(o.value());
  body += "\",\"cost\":";
  body += costJson(o.cost);
  body += "}";
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse GatewayServer::handleStats() {
  if (deps_.collectEngine) deps_.collectEngine();
  GatewayCounters g = counters();
  syncRegistry(g);
  std::string body = "{\"gateway\":{";
  body += "\"connectionsAccepted\":" + std::to_string(g.connectionsAccepted);
  body += ",\"connectionsClosed\":" + std::to_string(g.connectionsClosed);
  body += ",\"connectionsRejected\":" + std::to_string(g.connectionsRejected);
  body += ",\"requestsDispatched\":" + std::to_string(g.requestsDispatched);
  body += ",\"responses\":" + std::to_string(g.responses);
  body += ",\"parseErrors\":" + std::to_string(g.parseErrors);
  body += ",\"overloadRejected\":" + std::to_string(g.overloadRejected);
  body += ",\"drainRejected\":" + std::to_string(g.drainRejected);
  body += ",\"bytesIn\":" + std::to_string(g.bytesIn);
  body += ",\"bytesOut\":" + std::to_string(g.bytesOut);
  body += ",\"byRoute\":{";
  bool firstRoute = true;
  for (const auto& [route, byStatus] : g.byRouteStatus) {
    if (!firstRoute) body += ",";
    firstRoute = false;
    body += "\"" + route + "\":{";
    bool firstStatus = true;
    for (const auto& [status, n] : byStatus) {
      if (!firstStatus) body += ",";
      firstStatus = false;
      body += "\"" + std::to_string(status) + "\":" + std::to_string(n);
    }
    body += "}";
  }
  body += "}}";
  // One registry snapshot serves both surfaces: everything Prometheus can
  // scrape from /metrics is also here, so no counter is reachable from only
  // one of /stats and /metrics.
  body += ",\"metrics\":";
  body += registry_->renderJson();
  if (deps_.sampler != nullptr) {
    body += ",\"samples\":[";
    bool first = true;
    for (const auto& sample : deps_.sampler->recent(5)) {
      if (!first) body += ",";
      first = false;
      body += sample.toJson();
    }
    body += "]";
  }
  if (deps_.engineStatsJson) {
    std::string engine = deps_.engineStatsJson();
    if (!engine.empty()) {
      body += ",\"engine\":";
      body += engine;
    }
  }
  body += "}";
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse GatewayServer::handleMetrics() {
  if (deps_.collectEngine) deps_.collectEngine();
  syncRegistry(counters());
  HttpResponse r;
  r.contentType = "text/plain; version=0.0.4; charset=utf-8";
  r.body = registry_->renderPrometheus();
  return r;
}

HttpResponse GatewayServer::handleDebugTraces() {
  if (deps_.traces == nullptr) {
    return jsonError(404, "tracing-disabled",
                     "gateway started without a trace ring");
  }
  HttpResponse r;
  r.body = "{\"total_completed\":" +
           std::to_string(deps_.traces->totalCompleted()) + ",\"spans\":" +
           deps_.traces->renderJson(64) + "}";
  return r;
}

}  // namespace dharma::gateway
