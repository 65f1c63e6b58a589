#include "net/daemon.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <utility>

#include "common/flow_error.h"
#include "common/log.h"
#include "core/predictor.h"
#include "net/frame.h"
#include "net/snapshot.h"
#include "net/wire.h"
#include "nn/resnet.h"
#include "obs/metrics.h"
#include "warmstart/warm_start.h"

namespace ldmo::net {

namespace {

constexpr int kPollMillis = 100;        ///< stop-flag latency per connection
constexpr double kFrameTimeout = 30.0;  ///< mid-frame stall guard

/// The boot predictor: the CNN in `weights_path` as "cnn@v0", or null
/// for the server's raw-print fallback.
std::unique_ptr<core::PrintabilityPredictor> boot_predictor(
    const std::string& weights_path) {
  if (weights_path.empty()) return nullptr;
  auto cnn = std::make_unique<core::CnnPredictor>(
      std::make_unique<nn::ResNetRegressor>());
  cnn->load(weights_path);
  return std::make_unique<core::VersionedPredictor>(std::move(cnn), 0);
}

std::string peer_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return "peer";
  return "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
}

void send_error(int fd, const std::string& peer, FlowStage stage,
                const std::string& message) {
  send_error_frame(fd, peer, static_cast<int>(stage), message);
}

}  // namespace

ServeDaemon::ServeDaemon(DaemonConfig config)
    : config_(std::move(config)),
      server_(std::make_shared<serve::Server>(
          config_.serve, boot_predictor(config_.weights_path))),
      listener_(config_.listen_port) {
  if (!config_.snapshot_path.empty()) {
    // A snapshot fault costs the cache, never the worker: one that does not
    // load is logged, and the daemon starts cold.
    std::optional<CacheSnapshot> snapshot;
    try {
      snapshot = load_cache_snapshot(config_.snapshot_path);
    } catch (const std::exception& e) {
      log_warn("daemon: snapshot ", config_.snapshot_path,
               " does not load (", e.what(), "); starting cold");
    }
    if (snapshot) {
      if (snapshot->config_fingerprint == server_->config_fingerprint()) {
        restored_entries_ =
            server_->import_result_cache(std::move(snapshot->entries));
        obs::counter("net.daemon.snapshot.restored")
            .inc(static_cast<long long>(restored_entries_));
        log_info("daemon: restored ", restored_entries_,
                 " cache entries from ", config_.snapshot_path);
      } else {
        log_warn("daemon: snapshot ", config_.snapshot_path,
                 " was taken under a different configuration; ignoring");
      }
    }
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  log_info("daemon: listening on ", endpoint_name(port()), " (predictor ",
           server_->predictor_name(), ")");
}

ServeDaemon::~ServeDaemon() { stop(); }

void ServeDaemon::stop() {
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
  server_->shutdown(true);

  if (!config_.snapshot_path.empty()) {
    CacheSnapshot snapshot;
    snapshot.config_fingerprint = server_->config_fingerprint();
    snapshot.entries = server_->export_result_cache();
    try {
      save_cache_snapshot(config_.snapshot_path, snapshot);
    } catch (const std::exception& e) {
      // stop() runs from the destructor: a failed save must not escape.
      // replace_file left the previous snapshot as it was.
      log_warn("daemon: cannot save snapshot ", config_.snapshot_path, " (",
               e.what(), "); keeping the previous one");
      return;
    }
    obs::counter("net.daemon.snapshot.saved")
        .inc(static_cast<long long>(snapshot.entries.size()));
    log_info("daemon: saved ", snapshot.entries.size(),
             " cache entries to ", config_.snapshot_path);
  }
}

void ServeDaemon::accept_loop() {
  while (!stopping_.load()) {
    Socket sock = listener_.accept(stopping_);
    if (!sock.valid()) break;
    sock.set_timeout(kFrameTimeout);
    const std::string peer = peer_of(sock.fd());
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) break;  // raced with stop(); drop the connection
    connections_.emplace_back(
        [this, s = std::move(sock), peer]() mutable {
          handle_connection(std::move(s), peer);
        });
  }
}

void ServeDaemon::handle_connection(Socket sock, const std::string& peer) {
  obs::counter("net.daemon.connections").inc();
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = sock.fd();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // stop-flag poll tick
    if (!handle_frame(sock.fd(), peer)) break;
  }
}

bool ServeDaemon::handle_frame(int fd, const std::string& peer) {
  std::optional<Frame> frame;
  try {
    frame = read_frame(fd, peer);
    if (!frame) return false;  // orderly close
    switch (frame->type) {
      case MessageType::kSubmitRequest:
        handle_submit(fd, peer, frame->payload);
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
        send_error(fd, peer, FlowStage::kNet,
                   std::string("unexpected ") +
                       message_type_name(frame->type) +
                       " frame on a worker connection");
        return true;
    }
  } catch (const DecodeError& e) {
    // The frame arrived whole and checksummed, so the stream is in step:
    // answer the sender's decode error and keep the connection.
    send_error(fd, peer, FlowStage::kNet, e.what());
    return true;
  } catch (const FlowException& e) {
    if (e.stage() == FlowStage::kNet) {
      // Transport fault: the stream framing is unsynchronized; drop the
      // connection (the client's retry resubmits — requests are
      // idempotent, so nothing is lost).
      log_warn("daemon: dropping ", peer, ": ", e.what());
      return false;
    }
    send_error(fd, peer, e.stage(), e.what());
    return true;
  } catch (const std::exception& e) {
    send_error(fd, peer, FlowStage::kUnknown, e.what());
    return true;
  }
}

void ServeDaemon::handle_submit(int fd, const std::string& peer,
                                const std::vector<std::uint8_t>& payload) {
  WireReader r(payload, peer);
  serve::ServeRequest request = read_request(r);
  r.expect_end();
  obs::counter("net.daemon.requests").inc();
  const serve::ServeResponse response =
      server_->submit(std::move(request)).response.get();

  WireWriter w;
  write_response(w, response);
  write_frame(fd, MessageType::kSubmitResponse, w.bytes(), peer);
}

void ServeDaemon::handle_stats(int fd, const std::string& peer) {
  WorkerStats stats;
  stats.config_fingerprint = server_->config_fingerprint();
  stats.weights_version = weights_version_.load();
  stats.predictor = server_->predictor_name();
  for (int i = 0; i < serve::kServeStatusCount; ++i)
    stats.status_counts[i] =
        server_->status_count(static_cast<serve::ServeStatus>(i));
  stats.cache_hits = server_->result_cache_hits();
  stats.cache_misses = server_->result_cache_misses();
  stats.cache_entries = server_->result_cache_entries();
  stats.queue_depth = server_->queue_depth();

  WireWriter w;
  write_stats(w, stats);
  write_frame(fd, MessageType::kStatsResponse, w.bytes(), peer);
}

std::uint64_t ServeDaemon::swap_weights(
    std::uint64_t requested_version, const std::vector<std::uint8_t>& blob,
    const std::vector<std::uint8_t>& warm_blob) {
  std::lock_guard<std::mutex> lock(version_mu_);
  std::uint64_t version = weights_version_.load();
  std::unique_ptr<core::PrintabilityPredictor> predictor;
  if (!blob.empty()) {
    version = requested_version != 0 ? requested_version : version + 1;
    predictor = core::versioned_cnn(blob, version);
  }
  std::shared_ptr<warmstart::MaskWarmStart> warm;
  if (!warm_blob.empty()) {
    warm = std::make_shared<warmstart::MaskWarmStart>(config_.warm_net);
    warm->decode(warm_blob);
  }
  server_->swap_backend(std::move(predictor), std::move(warm));
  weights_version_.store(version);
  obs::counter("net.daemon.swaps").inc();
  log_info("daemon: weights at version ", version, " (predictor ",
           server_->predictor_name(), ")");
  return version;
}

void ServeDaemon::handle_swap(int fd, const std::string& peer,
                              const std::vector<std::uint8_t>& payload) {
  WireReader r(payload, peer);
  const WeightSwap swap = read_weight_swap(r);
  r.expect_end();
  const std::uint64_t version = swap_weights(swap.version, swap.cnn, swap.warm);

  WireWriter w;
  w.u64(version);
  write_frame(fd, MessageType::kSwapAck, w.bytes(), peer);
}

}  // namespace ldmo::net
