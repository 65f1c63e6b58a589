#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <system_error>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/flow_error.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace ldmo::net {

namespace {

constexpr int kListenBacklog = 64;
constexpr int kPollMillis = 100;  ///< the stop-flag latency of every wait

sockaddr_in loopback_addr(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

std::string peer_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return "peer";
  return endpoint_name(ntohs(addr.sin_port));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::set_timeout(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool wait_readable(int fd) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  return ::poll(&pfd, 1, kPollMillis) > 0;  // 0: the tick ran out; -1: EINTR
}

Socket connect_loopback(int port, double timeout_seconds, int attempts,
                        double retry_delay_seconds) {
  const std::string endpoint = endpoint_name(port);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(retry_delay_seconds));
    try {
      fail::maybe_fail("net.connect", FlowStage::kNet);
    } catch (...) {
      obs::counter("net.connect.errors").inc();
      if (attempt + 1 == attempts) throw;
      continue;
    }
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) continue;
    sock.set_timeout(timeout_seconds);
    const int one = 1;
    setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const sockaddr_in addr = loopback_addr(port);
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      obs::counter("net.connect.ok").inc();
      return sock;
    }
    obs::counter("net.connect.errors").inc();
  }
  throw FlowException(FlowStage::kNet,
                      "connect (" + endpoint + "): no connection after " +
                          std::to_string(attempts) + " attempt(s)");
}

TcpListener::TcpListener(int port) {
  listen_ = Socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!listen_.valid())
    throw FlowException(FlowStage::kNet, "listener: cannot create socket");
  const int one = 1;
  setsockopt(listen_.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  const sockaddr_in addr = loopback_addr(port);
  if (::bind(listen_.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_.fd(), kListenBacklog) != 0)
    throw FlowException(FlowStage::kNet,
                        "listener: cannot bind " + endpoint_name(port));

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  getsockname(listen_.fd(), reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = static_cast<int>(ntohs(bound.sin_port));
}

Socket TcpListener::try_accept() {
  if (!wait_readable(listen_.fd())) return Socket();
  Socket sock(::accept(listen_.fd(), nullptr, nullptr));
  if (!sock.valid()) return sock;
  const int one = 1;
  setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

ConnectionServer::ConnectionServer(int port, Handler handler)
    : listener_(port),
      handler_(std::move(handler)),
      accept_thread_([this] { accept_loop(); }) {}

ConnectionServer::~ConnectionServer() { stop(); }

bool ConnectionServer::stop() {
  if (stopping_.exchange(true)) return false;
  accept_thread_.join();
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) connection.thread.join();
  return true;
}

void ConnectionServer::accept_loop() {
  while (!stopping_.load()) {
    release_finished();
    Socket sock = listener_.try_accept();
    if (!sock.valid()) continue;  // a poll tick: re-check the stop flag
    const std::string peer = peer_of(sock.fd());
    std::lock_guard<std::mutex> lock(mu_);
    Connection& connection = connections_.emplace_back();
    try {
      connection.thread = std::thread(
          [this, &connection, s = std::move(sock), peer]() mutable {
            try {
              handler_(s, peer, stopping_);
            } catch (const std::exception& e) {
              log_warn("connection ", peer, " closed: ", e.what());
            }
            s.close();
            std::lock_guard<std::mutex> done_lock(mu_);
            connection.done = true;
          });
    } catch (const std::system_error& e) {
      // Out of threads: refuse this connection (its socket closes with the
      // lambda) and keep serving the open ones.
      connections_.pop_back();
      log_warn("connection ", peer, " refused: ", e.what());
    }
  }
}

void ConnectionServer::release_finished() {
  // A thread that is done has let go of mu_ for good: joining it here
  // waits only for it to exit.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->done) {
      ++it;
      continue;
    }
    it->thread.join();
    it = connections_.erase(it);
  }
}

std::string endpoint_name(int port) {
  return "127.0.0.1:" + std::to_string(port);
}

}  // namespace ldmo::net
