#include "net/daemon.h"

#include <utility>

#include "common/flow_error.h"
#include "common/log.h"
#include "core/predictor.h"
#include "net/snapshot.h"
#include "net/wire.h"
#include "nn/resnet.h"
#include "obs/metrics.h"
#include "warmstart/warm_start.h"

namespace ldmo::net {

namespace {

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

}  // namespace

ServeDaemon::ServeDaemon(DaemonConfig config)
    : config_(std::move(config)),
      server_(std::make_shared<serve::Server>(
          config_.serve, boot_predictor(config_.weights_path))),
      restored_entries_(restore_snapshot()),
      connections_(config_.listen_port,
                   frame_loop("daemon", "worker",
                              [this](const Frame& request,
                                     const std::string& peer) {
                                return handle_frame(request, peer);
                              })) {
  log_info("daemon: listening on ", endpoint_name(port()), " (predictor ",
           server_->predictor_name(), ")");
}

std::size_t ServeDaemon::restore_snapshot() {
  if (config_.snapshot_path.empty()) return 0;
  // A snapshot fault costs the cache, never the worker: one that does not
  // load is logged, and the daemon starts cold.
  std::optional<CacheSnapshot> snapshot;
  try {
    snapshot = load_cache_snapshot(config_.snapshot_path);
  } catch (const std::exception& e) {
    log_warn("daemon: snapshot ", config_.snapshot_path, " does not load (",
             e.what(), "); starting cold");
  }
  if (!snapshot) return 0;
  if (snapshot->config_fingerprint != server_->config_fingerprint()) {
    log_warn("daemon: snapshot ", config_.snapshot_path,
             " was taken under a different configuration; ignoring");
    return 0;
  }
  const std::size_t restored =
      server_->import_result_cache(std::move(snapshot->entries));
  obs::counter("net.daemon.snapshot.restored")
      .inc(static_cast<long long>(restored));
  log_info("daemon: restored ", restored, " cache entries from ",
           config_.snapshot_path);
  return restored;
}

ServeDaemon::~ServeDaemon() { stop(); }

void ServeDaemon::stop() {
  if (!connections_.stop()) return;  // already stopped
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

std::optional<Frame> ServeDaemon::handle_frame(const Frame& request,
                                               const std::string& peer) {
  switch (request.type) {
    case MessageType::kSubmitRequest: return handle_submit(request, peer);
    case MessageType::kStats: return handle_stats();
    case MessageType::kSwapWeights: return handle_swap(request, peer);
    default: return std::nullopt;
  }
}

Frame ServeDaemon::handle_submit(const Frame& request,
                                 const std::string& peer) {
  WireReader r(request.payload, peer);
  serve::ServeRequest decoded = read_request(r);
  r.expect_end();
  obs::counter("net.daemon.requests").inc();
  const serve::ServeResponse response =
      server_->submit(std::move(decoded)).response.get();

  WireWriter w;
  write_response(w, response);
  return make_frame(MessageType::kSubmitResponse, w.take());
}

Frame ServeDaemon::handle_stats() {
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
  stats.warm_start_version = server_->warm_start_version();

  WireWriter w;
  write_stats(w, stats);
  return make_frame(MessageType::kStatsResponse, w.take());
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

Frame ServeDaemon::handle_swap(const Frame& request, const std::string& peer) {
  WireReader r(request.payload, peer);
  const WeightSwap swap = read_weight_swap(r);
  r.expect_end();
  const std::uint64_t version = swap_weights(swap.version, swap.cnn, swap.warm);

  WireWriter w;
  write_swap_ack(w, version);
  return make_frame(MessageType::kSwapAck, w.take());
}

}  // namespace ldmo::net
