#pragma once
/// \file connection.hpp
/// \brief Per-connection state machine for the gateway's HTTP server.
///
/// One Connection owns one accepted TCP socket and everything framed on
/// it: the incremental HttpParser, the queue of parsed-but-unserved
/// pipelined requests, the outbound byte buffer, and the close/drain
/// flags. It is a pure I/O object — no routing, no handlers, no worker
/// knowledge — and it is owned and driven exclusively by the server's
/// event thread, so it needs no locks.
///
/// Lifecycle invariants the server relies on:
///
///  - At most ONE request per connection is in flight with a worker at a
///    time (`requestInFlight`). Pipelined requests queue here and are
///    dispatched strictly in arrival order, so responses are written in
///    request order — the HTTP/1.1 pipelining contract — without any
///    response re-sequencing machinery.
///  - A parse error is terminal: framing is unrecoverable, so the server
///    queues one typed error response and sets close-after-drain.
///  - Half-close is honoured: when the peer shuts down its write side
///    (recv returns 0) the connection stops reading but keeps flushing
///    queued responses before closing.

#include <deque>
#include <string>

#include "gateway/http.hpp"

namespace dharma::gateway {

class Connection {
 public:
  /// Takes ownership of \p fd (closed in the destructor). The socket must
  /// already be non-blocking.
  Connection(u64 id, int fd, HttpLimits limits);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  u64 id() const { return id_; }
  int fd() const { return fd_; }

  struct ReadOutcome {
    usize bytes = 0;         ///< bytes consumed from the socket this call
    bool peerClosed = false; ///< recv saw EOF (half-close)
    bool ioError = false;    ///< recv failed hard (connection reset etc.)
  };

  /// Drains the socket (until EWOULDBLOCK / EOF / error), feeding the
  /// parser and collecting completed pipelined requests. Emits the
  /// interim "100 Continue" when a request with Expect: 100-continue has
  /// finished its headers.
  ReadOutcome readSome();

  /// Parser hit a terminal error (invalid framing or over-limit input).
  bool parseError() const { return parser_.state() == ParseState::kError; }
  u16 parseErrorStatus() const { return parser_.errorStatus(); }
  const char* parseErrorReason() const { return parser_.errorReason(); }

  /// Pops the next request in arrival order. Returns false when none is
  /// queued or one is already in flight with a worker.
  bool popRequest(HttpRequest& out);

  bool requestInFlight() const { return inFlight_; }
  void setInFlight(bool v) { inFlight_ = v; }

  /// Parsed requests waiting behind the in-flight one.
  usize queuedRequests() const { return pending_.size(); }

  /// Appends \p bytes to the outbound buffer (flush() actually writes).
  void queueWrite(std::string bytes);

  /// Writes as much of the outbound buffer as the socket accepts.
  /// Returns false on a fatal write error (connection is dead).
  bool flush();

  bool wantsWrite() const { return txPos_ < tx_.size(); }

  /// Stop accepting new requests; close once the outbound buffer drains.
  void setCloseAfterDrain() { closeAfterDrain_ = true; }
  bool closeAfterDrain() const { return closeAfterDrain_; }

  /// Socket is unusable (reset, fatal write error): buffered writes and
  /// queued requests are dropped, queueWrite becomes a no-op, and drained()
  /// waits only for the worker to hand back any in-flight request.
  void markDead();
  bool dead() const { return dead_; }

  /// Peer half-closed its sending side; nothing more will be read.
  bool readClosed() const { return readClosed_; }

  /// Keep-alive connection between requests: nothing in flight, queued,
  /// left to write or partly received.
  bool idle() const {
    return !inFlight_ && pending_.empty() && !wantsWrite() &&
           parser_.state() == ParseState::kRequestLine &&
           parser_.buffered() == 0;
  }

  /// True when the connection has nothing left to do and may be destroyed:
  /// close requested (or peer gone) with all writes flushed and no request
  /// still with a worker.
  bool drained() const {
    if (dead_) return !inFlight_;
    return (closeAfterDrain_ || readClosed_) && !wantsWrite() && !inFlight_ &&
           pending_.empty();
  }

  /// Requests completed on this connection (keep-alive reuse telemetry).
  u64 served = 0;

  /// Event-thread bookkeeping: the parse-error response has been queued.
  /// (It is deferred until earlier pipelined responses have been written,
  /// preserving response order.)
  bool errorResponded = false;

 private:
  u64 id_;
  int fd_;
  HttpParser parser_;
  std::deque<HttpRequest> pending_;
  std::string tx_;
  usize txPos_ = 0;
  bool inFlight_ = false;
  bool closeAfterDrain_ = false;
  bool readClosed_ = false;
  bool dead_ = false;
  bool continueSent_ = false;  ///< 100 Continue emitted for current request
};

}  // namespace dharma::gateway
