// The serve daemon: a TCP front end that drains wire-protocol frames into
// an in-process serve::Server.
//
// Threading: the daemon runs on a ConnectionServer (net/socket.h) with
// the shared frame loop (net/frame.h), one thread per open connection; the
// daemon itself holds only the per-message handlers. A connection handles
// its frames serially — concurrency comes from multiple connections, and
// the server's inference batcher still coalesces scoring work across all
// of them. A closed connection's thread is joined within one poll tick,
// and stop() joins the rest, so a daemon is TSan-clean to construct and
// destroy in a test.
//
// A daemon keeps one serve::Server for its whole life. A weight hot-swap
// (kSwapWeights) decodes the pushed blobs in memory and installs them with
// Server::swap_backend: in-flight requests finish on the old models, and
// queued ones run on the new. The predictor is wrapped so its name carries
// the weight version ("cnn@v3"), and serve::config_fingerprint hashes that
// name and the weights' parameter bits, so new weights change every cache
// key and the server empties both cache tiers. A swap that carries neither
// blob changes nothing: the fingerprint and the warm cache stay.
//
// Cache persistence: when configured with a snapshot path the daemon
// restores the result cache from it at startup (if the fingerprint
// matches) and writes it back on stop() — net/snapshot.h holds the file
// format. A snapshot fault costs the cache, never the worker: a snapshot
// that does not load is logged and the daemon starts cold, and a failed
// save is logged and leaves the previous file in place. The boot model is
// always named "cnn@v0", so it is the weights' content in the fingerprint
// that keeps a daemon restarted on other weights from restoring the old
// model's results.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "serve/server.h"
#include "warmstart/masknet.h"

namespace ldmo::net {

struct DaemonConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read via port()).
  int listen_port = 0;
  serve::ServeConfig serve;
  /// Optional CNN weights to serve with (nn::save_parameters format),
  /// loaded at boot as "cnn@v0"; empty serves the raw-print fallback
  /// predictor.
  std::string weights_path;
  /// Optional result-cache snapshot file: restored at startup, written at
  /// stop(). Empty disables persistence.
  std::string snapshot_path;
  /// Architecture for warm-start MaskNet weights arriving over the wire
  /// (the swap verb's optional warm section); must match what the weights
  /// were trained with. grid_size should equal serve.engine.litho.grid_size.
  warmstart::MaskNetConfig warm_net;
};

class ServeDaemon {
 public:
  /// Builds the server (restoring the cache snapshot when one loads and
  /// matches) and starts listening. Throws on unreadable weights or bind
  /// failure.
  explicit ServeDaemon(DaemonConfig config);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  int port() const { return connections_.port(); }

  /// The daemon's server; the same object for the daemon's whole life.
  std::shared_ptr<serve::Server> server() const { return server_; }

  std::uint64_t weights_version() const { return weights_version_.load(); }

  /// Weight promotion — the wire verb (kSwapWeights) delegates here, and
  /// in-process callers (the flywheel's serve --flywheel loop) call it
  /// directly. `blob` carries new predictor CNN weights, installed as
  /// "cnn@v<version>" (version = requested_version, or the current one
  /// plus 1 when that is 0); empty keeps the current weights. `warm_blob`
  /// optionally carries new warm-start MaskNet weights (architecture
  /// config.warm_net), whose weight fingerprint feeds the config
  /// fingerprint, so a warm-start push retires every warm-start-dependent
  /// cache key. Both are decoded in memory and installed together by
  /// Server::swap_backend; a blob that fails to decode, or that the server
  /// refuses, throws and changes nothing. Returns the active version.
  std::uint64_t swap_weights(std::uint64_t requested_version,
                             const std::vector<std::uint8_t>& blob,
                             const std::vector<std::uint8_t>& warm_blob = {});

  /// Cache entries restored from the snapshot at startup.
  std::size_t restored_entries() const { return restored_entries_; }

  /// Stops accepting, joins every connection thread, drains the server and
  /// writes the cache snapshot (a failed write is logged, not thrown).
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  /// Restores the result cache from config.snapshot_path when the
  /// snapshot loads and matches; returns the entries restored.
  std::size_t restore_snapshot();
  /// The worker's frame handler: one request frame in, its reply out.
  std::optional<Frame> handle_frame(const Frame& request,
                                    const std::string& peer);
  Frame handle_submit(const Frame& request, const std::string& peer);
  Frame handle_stats();
  Frame handle_swap(const Frame& request, const std::string& peer);

  DaemonConfig config_;
  const std::shared_ptr<serve::Server> server_;
  const std::size_t restored_entries_;
  /// Held by swap_weights from choosing a version to recording it, so two
  /// concurrent pushes cannot both claim "cnn@v<n+1>".
  std::mutex version_mu_;
  std::atomic<std::uint64_t> weights_version_{0};
  /// Last: it serves connections as soon as it is constructed.
  ConnectionServer connections_;
};

}  // namespace ldmo::net
