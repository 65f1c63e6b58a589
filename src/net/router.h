// Consistent-hash router: the cluster's front door.
//
// Clients speak the same wire protocol to the router as to a worker; the
// router forwards each submit to the worker shard that owns its route key
// and relays the response. The route key is the content address the result
// caches already use — Fnv1a over (config fingerprint, layout geometry
// fingerprint) — so the same layout under the same configuration always
// lands on the same worker, and cache affinity across the cluster comes
// free: N workers hold N disjoint warm sets instead of N copies of one.
//
// The router forwards frames, not messages. It decodes a submit only for
// its route key and sends the client's request bytes on under the client's
// checksum. It takes the worker's reply as a verified frame, checks that
// it decodes as a response, and writes that frame back unchanged under the
// worker's checksum: a routed response is hashed once here, on receipt,
// and never encoded.
// A reply that fails its checksum or does not decode fails over to the
// next shard. The router runs on a ConnectionServer (net/socket.h) with the
// shared frame loop (net/frame.h), so it holds only its per-message
// handlers, and the loop's error policy is the worker's: a payload that
// does not decode gets a kError answer and the connection stays open; only
// a transport fault drops it.
//
// The ring hashes each worker endpoint at `replicas` virtual points
// (Fnv1a("ldmo.net.ring") over endpoint and replica index); a key routes
// to the first point clockwise. lookup_n() yields distinct workers in ring
// order — the failover sequence: when the owner is unreachable (connect
// refused, frame fault after client retries), the router retries the next
// shard and counts a net.router.failover. Requests are idempotent, so
// failover is always safe; it costs only a cold cache on the substitute.
//
// Per-shard counters land in the process registry as
// net.router.shard.<port>.{forwarded,errors} next to the aggregate
// net.router.* set — all exported through /metrics and /varz by the
// router's server-less AdminServer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/admin.h"

namespace ldmo::net {

/// Consistent-hash ring over worker ports (loopback cluster).
class HashRing {
 public:
  explicit HashRing(std::vector<int> worker_ports, int replicas = 64);

  /// Route key of one request: the cluster-wide content address.
  static std::uint64_t route_key(std::uint64_t config_fp,
                                 std::uint64_t layout_fp);

  /// Owning worker port for `key`.
  int lookup(std::uint64_t key) const;

  /// Up to `n` distinct worker ports in ring (failover) order, starting at
  /// the owner.
  std::vector<int> lookup_n(std::uint64_t key, int n) const;

  std::size_t worker_count() const { return ports_.size(); }
  const std::vector<int>& worker_ports() const { return ports_; }

 private:
  std::vector<int> ports_;
  std::vector<std::pair<std::uint64_t, int>> points_;  ///< sorted by hash
};

struct RouterConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
  int listen_port = 0;
  std::vector<int> worker_ports;
  int ring_replicas = 64;
  /// Per-forward client transport settings (short connect schedule — a
  /// dead worker should fail over fast, not hang the request).
  double worker_timeout_seconds = 120.0;
  int worker_net_retries = 1;
  /// Optional admin endpoint (server-less mode: /metrics, /varz, /healthz).
  serve::AdminConfig admin;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  int port() const { return connections_.port(); }
  int admin_port() const { return admin_ ? admin_->port() : -1; }
  const HashRing& ring() const { return ring_; }

  /// Stops accepting, joins every connection thread and stops the admin
  /// endpoint (idempotent; the destructor calls it).
  void stop();

 private:
  /// One worker connection + its lock (a forward holds the lock for the
  /// whole round trip; concurrent requests to the same shard serialize,
  /// matching the one-connection-per-thread client discipline).
  struct Shard {
    int port = 0;
    std::mutex mu;
    std::unique_ptr<Client> client;
    obs::Counter* forwarded = nullptr;
    obs::Counter* errors = nullptr;
  };

  /// The router's frame handler: one request frame in, its reply out.
  std::optional<Frame> handle_frame(const Frame& request,
                                    const std::string& peer);
  Frame handle_submit(const Frame& request, const std::string& peer);
  Frame handle_stats();
  Frame handle_swap(const Frame& request, const std::string& peer);
  Shard& shard_for_port(int port);
  /// The shard's connection, created on first use; caller holds shard.mu.
  Client& client_for(Shard& shard);

  /// Cluster config fingerprint, fetched lazily from any worker's stats
  /// (the router carries no flow configuration of its own); 0 until known.
  std::uint64_t config_fingerprint();

  RouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> config_fp_{0};
  std::unique_ptr<serve::AdminServer> admin_;
  /// Last: it serves connections as soon as it is constructed.
  ConnectionServer connections_;
};

}  // namespace ldmo::net
