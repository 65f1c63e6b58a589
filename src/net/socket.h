// Thin RAII TCP plumbing: an owned socket fd, a loopback connect with
// bounded retry, a listener, and ConnectionServer, the one server that the
// worker daemon, the router and the admin endpoint run on. It needs only
// ldmo_common, so it is its own library (ldmo_socket).
//
// Every server-side wait is poll-gated with a 100 ms tick (wait_readable),
// so a stop flag is honored within one tick and shutdown never hangs in a
// blocking accept or read. Binding port 0 picks an ephemeral port, read
// back via port() — the cluster tests depend on this to run many processes
// without port collisions.
#pragma once

#include <atomic>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace ldmo::net {

/// Owned socket fd; closes on destruction. Movable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

  /// Send/receive timeout on the fd (guards against a hung peer wedging a
  /// frame read forever).
  void set_timeout(double seconds);

 private:
  int fd_ = -1;
};

/// Waits at most one poll tick (100 ms) for `fd` to become readable (or
/// for its peer to close it). False on the tick's timeout, so a caller's
/// loop re-checks its stop flag at least once per tick.
bool wait_readable(int fd);

/// Connects to 127.0.0.1:`port` with up to `attempts` tries spaced
/// `retry_delay_seconds` apart (a just-forked worker needs a beat to bind).
/// Failpoint site "net.connect" fires as a kNet fault before each attempt.
/// Throws FlowException(FlowStage::kNet) naming the endpoint when every
/// attempt fails.
Socket connect_loopback(int port, double timeout_seconds = 10.0,
                        int attempts = 1,
                        double retry_delay_seconds = 0.05);

/// Listening socket on 127.0.0.1 with poll-gated accept.
class TcpListener {
 public:
  /// Binds and listens; port 0 picks an ephemeral port. Throws
  /// FlowException(kNet) when the port cannot be bound.
  explicit TcpListener(int port);

  int port() const { return port_; }

  /// Accepts a connection that arrives within one poll tick; an invalid
  /// Socket otherwise.
  Socket try_accept();

 private:
  Socket listen_;
  int port_ = 0;
};

/// A loopback TCP server: a listener, an accept thread, and one thread per
/// connection that runs the handler. The accept thread joins each finished
/// connection thread within one poll tick, so a long-lived server holds a
/// thread stack only per open connection.
class ConnectionServer {
 public:
  /// Serves one connection and returns when it is done; the server then
  /// closes the socket. `peer` is the remote "127.0.0.1:<port>". A handler
  /// that waits for its peer does so a tick at a time (wait_readable) and
  /// returns once `stop` is set. An exception it throws is logged.
  using Handler = std::function<void(Socket& sock, const std::string& peer,
                                     const std::atomic<bool>& stop)>;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts
  /// accepting. Throws FlowException(kNet) when the port cannot be bound.
  ConnectionServer(int port, Handler handler);
  ~ConnectionServer();  ///< stop()

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  int port() const { return listener_.port(); }

  /// Stops accepting, then joins every connection thread; each finishes
  /// the exchange it is in. True for the call that stopped the server,
  /// false for every later one.
  bool stop();

 private:
  struct Connection {
    std::thread thread;
    bool done = false;  ///< guarded by mu_; set once the handler returned
  };

  void accept_loop();
  void release_finished();  ///< joins the threads of done connections

  TcpListener listener_;
  const Handler handler_;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::list<Connection> connections_;
  std::thread accept_thread_;
};

/// "127.0.0.1:<port>" — the context string used in frame/decode errors.
std::string endpoint_name(int port);

}  // namespace ldmo::net
