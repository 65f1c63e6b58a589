// Client side of the wire protocol: a blocking connection to one worker or
// router. Concurrency comes from one Client per thread.
//
// Submits are idempotent by construction — the result of a request is a
// pure function of (configuration, layout geometry), and the server's
// content-addressed cache serves a replayed request bit-identically — so
// the client retries a kNet fault (connection cut, corrupt frame, armed
// failpoint) by reconnecting and resending. That retry is what turns
// "connection dropped mid-frame" into "zero lost requests" in the fault
// drill; non-kNet failures (the worker computed and said kFailed) are
// answers, not transport faults, and are never retried here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/request.h"

namespace ldmo::net {

struct ClientConfig {
  int port = 0;
  /// Socket send/receive timeout. Covers one full flow computation, so it
  /// is generous by default.
  double timeout_seconds = 120.0;
  /// connect() retry schedule (a just-spawned worker needs a beat to bind).
  int connect_attempts = 20;
  double connect_retry_seconds = 0.05;
  /// Transport-level retries per request (total attempts = 1 + retries).
  int net_retries = 2;
};

/// Blocking client: one connection, lazily (re)established. Not
/// thread-safe — one Client per thread, or external locking.
class Client {
 public:
  explicit Client(ClientConfig config);

  /// Round-trips one request. Retries kNet faults per config.net_retries
  /// (reconnect + resend); rethrows the last fault when they are exhausted.
  /// A reply that does not decode as a response is such a fault.
  serve::ServeResponse submit(const serve::ServeRequest& request);

  /// A submit reply as it came off the wire, with its decode.
  struct SubmitReply {
    Frame frame;  ///< verified; its checksum is the sender's
    serve::ServeResponse response;  ///< frame.payload, decoded
  };

  /// submit() for a request that is already framed: `request` goes out
  /// under its own checksum, with submit()'s retry loop, and the reply is
  /// returned only once it decodes as a response. The router forwards
  /// with this, so neither frame is encoded or hashed again on its way
  /// through.
  SubmitReply submit_frame(const Frame& request);

  /// Liveness probe; false on any transport fault.
  bool ping();

  /// Worker identity and counters. Throws FlowException(kNet) on transport
  /// fault (after retries).
  WorkerStats stats();

  /// Pushes a CNN weight blob (empty = keep the current weights) and
  /// returns the version the worker acknowledged as active. `warm_blob`
  /// (optional) carries new warm-start MaskNet weights in the same swap;
  /// their weight fingerprint retires warm-start-dependent cache keys.
  /// Empty keeps the current warm-start model. Sent to a router, the swap
  /// is broadcast to every worker.
  std::uint64_t swap_weights(std::uint64_t version,
                             const std::vector<std::uint8_t>& blob,
                             const std::vector<std::uint8_t>& warm_blob = {});

  int port() const { return config_.port; }

 private:
  /// One request/response exchange; throws FlowException(kNet) on any
  /// transport fault (and drops the connection so the next try is clean).
  Frame roundtrip(const Frame& request, MessageType expected);
  /// Runs `exchange` until it returns, retrying kNet faults per
  /// config.net_retries; rethrows the last fault when they are exhausted.
  template <typename Exchange>
  auto with_retries(Exchange exchange);
  void ensure_connected();

  ClientConfig config_;
  Socket sock_;
  std::string peer_;
};

}  // namespace ldmo::net
