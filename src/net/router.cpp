#include "net/router.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "common/log.h"
#include "layout/fingerprint.h"
#include "net/frame.h"
#include "net/wire.h"

namespace ldmo::net {

namespace {

constexpr int kPollMillis = 100;
constexpr double kFrameTimeout = 30.0;

/// splitmix64 finalizer on top of the FNV-1a digest. FNV diffuses a byte
/// difference upward only, so endpoints that differ in their final digits
/// ("127.0.0.1:5001" vs "...:5003", with the port digits last and followed
/// by the mostly-zero replica bytes) hash to points at a near-constant
/// offset from each other — the shards cluster on the ring instead of
/// interleaving, and one shard can end up owning almost no key space. A
/// full-avalanche pass restores uniform ownership. Ring points are
/// per-router state, not wire format, so the mix is free to change.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::string peer_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return "peer";
  return "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

HashRing::HashRing(std::vector<int> worker_ports, int replicas)
    : ports_(std::move(worker_ports)) {
  require(!ports_.empty(), "HashRing: no worker ports");
  require(replicas >= 1, "HashRing: replicas must be >= 1");
  points_.reserve(ports_.size() * static_cast<std::size_t>(replicas));
  for (int port : ports_) {
    const std::string endpoint = endpoint_name(port);
    for (int replica = 0; replica < replicas; ++replica) {
      const std::uint64_t point =
          mix64(common::Fnv1a()
                    .str("ldmo.net.ring")
                    .str(endpoint)
                    .u64(static_cast<std::uint64_t>(replica))
                    .digest());
      points_.emplace_back(point, port);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::uint64_t HashRing::route_key(std::uint64_t config_fp,
                                  std::uint64_t layout_fp) {
  return mix64(common::Fnv1a()
                   .str("ldmo.net.route")
                   .u64(config_fp)
                   .u64(layout_fp)
                   .digest());
}

int HashRing::lookup(std::uint64_t key) const {
  auto it = std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(key, 0));
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

std::vector<int> HashRing::lookup_n(std::uint64_t key, int n) const {
  std::vector<int> out;
  if (n <= 0) return out;
  auto it = std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(key, 0));
  for (std::size_t step = 0;
       step < points_.size() && out.size() < static_cast<std::size_t>(n) &&
       out.size() < ports_.size();
       ++step, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end())
      out.push_back(it->second);
  }
  return out;
}

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.worker_ports, config_.ring_replicas),
      listener_(config_.listen_port) {
  shards_.reserve(config_.worker_ports.size());
  for (int port : config_.worker_ports) {
    auto shard = std::make_unique<Shard>();
    shard->port = port;
    const std::string prefix =
        "net.router.shard." + std::to_string(port) + ".";
    shard->forwarded = &obs::counter(prefix + "forwarded");
    shard->errors = &obs::counter(prefix + "errors");
    shards_.push_back(std::move(shard));
  }
  if (config_.admin.enabled)
    admin_ = std::make_unique<serve::AdminServer>(config_.admin, "router");
  accept_thread_ = std::thread([this] { accept_loop(); });
  log_info("router: listening on ", endpoint_name(port()), " over ",
           shards_.size(), " worker(s)");
}

Router::~Router() { stop(); }

void Router::stop() {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (std::thread& thread : connections) thread.join();
  if (admin_) admin_->stop();
}

void Router::accept_loop() {
  while (!stopping_.load()) {
    Socket sock = listener_.accept(stopping_);
    if (!sock.valid()) break;
    sock.set_timeout(kFrameTimeout);
    const std::string peer = peer_of(sock.fd());
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) break;
    connections_.emplace_back(
        [this, s = std::move(sock), peer]() mutable {
          handle_connection(std::move(s), peer);
        });
  }
}

void Router::handle_connection(Socket sock, const std::string& peer) {
  obs::counter("net.router.connections").inc();
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = sock.fd();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;
    if (!handle_frame(sock.fd(), peer)) break;
  }
}

bool Router::handle_frame(int fd, const std::string& peer) {
  std::optional<Frame> frame;
  try {
    frame = read_frame(fd, peer);
    if (!frame) return false;
    switch (frame->type) {
      case MessageType::kSubmitRequest:
        handle_submit(fd, peer, *frame);
        return true;
      case MessageType::kPing:
        write_frame(fd, MessageType::kPong, {}, peer);
        return true;
      case MessageType::kStats:
        handle_stats(fd, peer);
        return true;
      case MessageType::kSwapWeights:
        handle_swap(fd, peer, frame->payload);
        return true;
      default:
        send_error_frame(fd, peer, static_cast<int>(FlowStage::kNet),
                         std::string("unexpected ") +
                             message_type_name(frame->type) +
                             " frame on a router connection");
        return true;
    }
  } catch (const DecodeError& e) {
    // The frame arrived whole and checksummed, so the stream is in step:
    // answer the sender's decode error and keep the connection.
    send_error_frame(fd, peer, static_cast<int>(FlowStage::kNet), e.what());
    return true;
  } catch (const FlowException& e) {
    if (e.stage() == FlowStage::kNet) {
      log_warn("router: dropping ", peer, ": ", e.what());
      return false;
    }
    send_error_frame(fd, peer, static_cast<int>(e.stage()), e.what());
    return true;
  } catch (const std::exception& e) {
    send_error_frame(fd, peer, static_cast<int>(FlowStage::kUnknown),
                     e.what());
    return true;
  }
}

Router::Shard& Router::shard_for_port(int port) {
  for (auto& shard : shards_)
    if (shard->port == port) return *shard;
  // lookup_n only returns ring ports, which all have shards.
  return *shards_.front();
}

Client& Router::client_for(Shard& shard) {
  if (!shard.client)
    shard.client = std::make_unique<Client>(ClientConfig{
        .port = shard.port,
        .timeout_seconds = config_.worker_timeout_seconds,
        .connect_attempts = 3,
        .net_retries = config_.worker_net_retries,
    });
  return *shard.client;
}

std::uint64_t Router::config_fingerprint() {
  std::uint64_t fp = config_fp_.load();
  if (fp != 0) return fp;
  // Lazily learn the cluster's config fingerprint from any worker's stats
  // (the router holds no flow configuration of its own).
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    try {
      fp = client_for(*shard).stats().config_fingerprint;
      config_fp_.store(fp);
      return fp;
    } catch (const FlowException&) {
      shard->errors->inc();
    }
  }
  return 0;  // every worker unreachable; route on layout alone for now
}

void Router::handle_submit(int fd, const std::string& peer,
                           const Frame& frame) {
  // Decoded for its route key only: the worker gets the client's bytes.
  WireReader r(frame.payload, peer);
  const serve::ServeRequest request = read_request(r);
  r.expect_end();
  obs::counter("net.router.requests").inc();

  const std::uint64_t key = HashRing::route_key(
      config_fingerprint(), layout::fingerprint(request.layout));
  const std::vector<int> order =
      ring_.lookup_n(key, static_cast<int>(ring_.worker_count()));

  FlowError last{FlowStage::kNet, "no workers configured"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    Shard& shard = shard_for_port(order[i]);
    std::lock_guard<std::mutex> lock(shard.mu);
    try {
      // The reply has passed its checksum and decodes as a response; it
      // goes back unchanged, under the worker's checksum.
      const Client::SubmitReply reply = client_for(shard).submit_frame(frame);
      shard.forwarded->inc();
      if (i > 0) obs::counter("net.router.failovers").inc();
      write_frame(fd, reply.frame, peer);
      return;
    } catch (const FlowException& e) {
      if (e.stage() != FlowStage::kNet) throw;  // a worker answered: real
      shard.errors->inc();
      shard.client.reset();  // next use reconnects from scratch
      last = e.error();
      log_warn("router: worker ", endpoint_name(shard.port),
               " unreachable (", e.what(), "), trying next shard");
    }
  }
  obs::counter("net.router.exhausted").inc();
  send_error_frame(fd, peer, static_cast<int>(FlowStage::kNet),
                   "router: every worker shard failed; last: " +
                       last.message);
}

void Router::handle_stats(int fd, const std::string& peer) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    try {
      const WorkerStats stats = client_for(*shard).stats();
      config_fp_.store(stats.config_fingerprint);
      WireWriter w;
      write_stats(w, stats);
      write_frame(fd, MessageType::kStatsResponse, w.bytes(), peer);
      return;
    } catch (const FlowException& e) {
      if (e.stage() != FlowStage::kNet) throw;
      shard->errors->inc();
      shard->client.reset();
    }
  }
  send_error_frame(fd, peer, static_cast<int>(FlowStage::kNet),
                   "router: no reachable worker for stats");
}

void Router::handle_swap(int fd, const std::string& peer,
                         const std::vector<std::uint8_t>& payload) {
  // Decoded once, before any shard is touched: a malformed payload is the
  // sender's decode error, not a shard fault.
  WireReader r(payload, peer);
  const WeightSwap swap = read_weight_swap(r);
  r.expect_end();

  // Broadcast: every worker swaps to the same version; the ack carries the
  // version the last worker reported. A shard that is down simply misses
  // the swap (it restarts with its own weights; the operator re-issues). A
  // shard that refuses the swap answers for itself; the others still get
  // it, and the error reply names every refusing shard.
  std::uint64_t version = 0;
  int reached = 0;
  std::optional<FlowStage> refused_stage;
  std::string refusals;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    try {
      version = client_for(*shard).swap_weights(swap.version, swap.cnn,
                                                swap.warm);
      ++reached;
    } catch (const FlowException& e) {
      if (e.stage() != FlowStage::kNet) {
        if (!refused_stage) refused_stage = e.stage();
        refusals += (refusals.empty() ? "" : "; ") +
                    endpoint_name(shard->port) + ": " + e.what();
        log_warn("router: shard ", endpoint_name(shard->port),
                 " refused the weight swap: ", e.what());
        continue;
      }
      shard->errors->inc();
      shard->client.reset();
      log_warn("router: shard ", endpoint_name(shard->port),
               " missed the weight swap: ", e.what());
    }
  }
  obs::counter("net.router.swap_broadcasts").inc();
  if (refused_stage) {
    send_error_frame(fd, peer, static_cast<int>(*refused_stage),
                     "router: weight swap refused by " + refusals);
    return;
  }
  if (reached == 0) {
    send_error_frame(fd, peer, static_cast<int>(FlowStage::kNet),
                     "router: no worker reachable for weight swap");
    return;
  }
  WireWriter w;
  w.u64(version);
  write_frame(fd, MessageType::kSwapAck, w.bytes(), peer);
}

}  // namespace ldmo::net
