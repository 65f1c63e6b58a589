#include "serve/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "kernels/kernels.h"
#include "obs/exporter.h"
#include "obs/trace_export.h"
#include "runtime/thread_pool.h"
#include "serve/server.h"

namespace ldmo::serve {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;
constexpr double kRequestTimeout = 2.0;  ///< a silent client's hold, in s

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

/// Writes all of `data` (the socket has a send timeout; short writes loop).
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string serialize_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + ' ' +
                    reason_phrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

/// Reads until the header terminator (request bodies are not supported —
/// every admin endpoint is a GET).
std::string read_request_head(int fd) {
  std::string head;
  char buf[1024];
  while (head.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    head.append(buf, static_cast<std::size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos) break;
  }
  return head;
}

}  // namespace

AdminServer::AdminServer(const AdminConfig& config, Server& server)
    : AdminServer(config, &server, "serve") {}

AdminServer::AdminServer(const AdminConfig& config, std::string process_name)
    : AdminServer(config, nullptr, std::move(process_name)) {}

AdminServer::AdminServer(const AdminConfig& config, Server* server,
                         std::string process_name)
    : config_(config),
      server_(server),
      process_name_(std::move(process_name)),
      connections_(config_.port,
                   [this](net::Socket& sock, const std::string&,
                          const std::atomic<bool>&) { answer(sock); }) {
  log_info("admin: listening on http://127.0.0.1:", port(),
           " (/metrics /healthz /readyz /varz /trace /flightrecorder)");
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::answer(net::Socket& sock) const {
  sock.set_timeout(kRequestTimeout);
  const std::string head = read_request_head(sock.fd());
  std::string method, path;
  const std::size_t method_end = head.find(' ');
  if (method_end != std::string::npos) {
    const std::size_t path_end = head.find(' ', method_end + 1);
    if (path_end != std::string::npos) {
      method = head.substr(0, method_end);
      path = head.substr(method_end + 1, path_end - method_end - 1);
      const std::size_t query = path.find('?');
      if (query != std::string::npos) path.resize(query);
    }
  }

  HttpResponse response;
  if (method.empty()) {
    response = {405, "text/plain", "malformed request\n"};
  } else {
    try {
      response = handle(method, path);
    } catch (const std::exception& e) {
      // An endpoint must never take down the connection's thread.
      response = {503, "text/plain",
                  std::string("admin endpoint error: ") + e.what() + "\n"};
    }
  }
  send_all(sock.fd(), serialize_response(response));
}

HttpResponse AdminServer::handle(const std::string& method,
                                 const std::string& path) const {
  if (method != "GET")
    return {405, "text/plain", "only GET is supported\n"};

  if (path == "/metrics") {
    runtime::publish_metrics();  // fold pool/workspace gauges into the scrape
    return {200, "text/plain; version=0.0.4",
            obs::to_openmetrics(obs::registry().snapshot())};
  }
  if (path == "/healthz") {
    if (!server_)
      return {200, "text/plain", "ok (" + process_name_ + ")\n"};
    std::string detail;
    const bool healthy = server_->healthy(&detail);
    return {healthy ? 200 : 503, "text/plain", detail + "\n"};
  }
  if (path == "/readyz") {
    if (!server_)
      return {200, "text/plain", "ready (" + process_name_ + ")\n"};
    std::string detail;
    const bool ready = server_->ready(&detail);
    return {ready ? 200 : 503, "text/plain", detail + "\n"};
  }
  if (path == "/varz") {
    runtime::publish_metrics();
    if (!server_) {
      // Registry-only report: the router's net.* counters and gauges.
      obs::RunReport report("ldmo-" + process_name_);
      return {200, "application/json", report.to_json()};
    }
    return {200, "application/json", server_->report().to_json()};
  }
  if (path == "/trace")
    return {200, "application/json",
            obs::to_chrome_trace(obs::tracer().snapshot())};
  if (path == "/flightrecorder") {
    if (!server_)
      return {404, "text/plain",
              "no flight recorder in a " + process_name_ + " process\n"};
    return {200, "application/json", server_->flight_recorder().to_json()};
  }
  if (path == "/")
    return {200, "text/plain",
            "ldmo admin endpoints: /metrics /healthz /readyz /varz /trace "
            "/flightrecorder\n"
            "kernel backend: " + std::string(kernels::table().name) + " (" +
                kernels::cpu_features() + ")\n"};
  return {404, "text/plain", "unknown endpoint " + path + "\n"};
}

HttpResponse http_get(int port, const std::string& path,
                      double timeout_seconds) {
  net::Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  require(sock.valid(), "http_get: cannot create socket");
  sock.set_timeout(timeout_seconds);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0)
    raise("http_get: cannot connect to 127.0.0.1:" + std::to_string(port));

  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  if (!send_all(sock.fd(), request)) raise("http_get: send failed");

  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof buf, 0);
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    // The receive timeout expired before the whole header arrived: report
    // a timeout, not a malformed reply (a peer that closes early after a
    // partial reply still reads as malformed below).
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        raw.find("\r\n\r\n") == std::string::npos) {
      std::ostringstream message;
      message << "http_get: timed out after " << timeout_seconds
              << " s waiting for 127.0.0.1:" << port << path;
      raise(message.str());
    }
    break;
  }
  sock.close();

  const std::size_t head_end = raw.find("\r\n\r\n");
  require(raw.compare(0, 9, "HTTP/1.1 ") == 0 &&
              head_end != std::string::npos,
          "http_get: malformed response");
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + 9);
  response.body = raw.substr(head_end + 4);
  const std::size_t ct = raw.find("Content-Type: ");
  if (ct != std::string::npos && ct < head_end) {
    const std::size_t eol = raw.find("\r\n", ct);
    response.content_type =
        raw.substr(ct + 14, eol - ct - 14);
  }
  return response;
}

}  // namespace ldmo::serve
