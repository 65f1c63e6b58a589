// HTTP/1.1 admin endpoint for a live Server, and the server-less scrape
// target of a router process.
//
// It runs on a net::ConnectionServer on 127.0.0.1 (the server the worker
// daemon and the router use too), so each connection is answered on its
// own thread: one GET, one response, then the connection closes. A client
// that connects and sends nothing holds only its own thread, for at most
// the 2 s socket timeout, and never delays another scrape. handle() is
// const and everything it reads takes its own lock, so concurrent answers
// are safe. Endpoint catalog (DESIGN.md §12):
//
//   /metrics          OpenMetrics text exposition of the registry
//   /healthz          200 while the recent failed-request ratio is under
//                     the configured threshold; 503 otherwise (a fault
//                     drill flips it, the sliding window recovers it)
//   /readyz           200 while admission is open and dispatchers run
//   /varz             JSON: registry snapshot + serve state + window stats
//   /trace            Chrome trace JSON of finished spans (Perfetto)
//   /flightrecorder   JSON ring of recent request events
//
// Everything here runs on scrape/admin threads; the serve hot path is
// never touched (its instrumentation stays one relaxed atomic op).
#pragma once

#include <cstddef>
#include <string>

#include "net/socket.h"

namespace ldmo::serve {

class Server;

struct AdminConfig {
  bool enabled = false;
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back via AdminServer::port()).
  int port = 0;
  /// Sliding-window sampler cadence and width (window = interval * capacity).
  double window_interval_seconds = 1.0;
  std::size_t window_capacity = 30;
  /// /healthz flips to 503 when failed requests exceed this fraction of
  /// terminal responses within the window.
  double unhealthy_failed_ratio = 0.5;
};

/// One parsed HTTP exchange (also the return type of http_get).
struct HttpResponse {
  int status = 0;
  std::string content_type;
  std::string body;

  bool ok() const { return status == 200; }
};

class AdminServer {
 public:
  /// Binds and starts answering; throws ldmo::Error when the port cannot be
  /// bound. `server` must outlive the AdminServer.
  AdminServer(const AdminConfig& config, Server& server);

  /// Server-less admin endpoint: the registry-backed endpoints (/metrics,
  /// /varz, /trace) work as usual — net.* counters included — while the
  /// server-backed ones answer a static liveness line. This is what the
  /// router process runs: it has no serve::Server, but its per-shard
  /// routing and connection stats still need a scrape target.
  /// `process_name` labels /healthz//readyz/ ("ok (<name>)").
  AdminServer(const AdminConfig& config, std::string process_name);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Actually-bound port (differs from config.port when that was 0).
  int port() const { return connections_.port(); }

  /// Stops accepting and joins every connection thread (idempotent).
  void stop() { connections_.stop(); }

  /// Routes one request — the transport-free core of the endpoint, also
  /// used directly by tests.
  HttpResponse handle(const std::string& method,
                      const std::string& path) const;

 private:
  AdminServer(const AdminConfig& config, Server* server,
              std::string process_name);
  /// Reads one request from `sock` and writes its response.
  void answer(net::Socket& sock) const;

  const AdminConfig config_;
  Server* const server_;  ///< null in the server-less (router) mode
  const std::string process_name_;
  /// Last: it serves connections as soon as it is constructed.
  net::ConnectionServer connections_;
};

/// Minimal blocking HTTP GET against 127.0.0.1:`port` — scrape loops and
/// tests. Throws ldmo::Error on connect/read failure or timeout.
HttpResponse http_get(int port, const std::string& path,
                      double timeout_seconds = 5.0);

}  // namespace ldmo::serve
