#include "net/router.h"

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
      shards_([this] {
        std::vector<std::unique_ptr<Shard>> shards;
        for (int port : config_.worker_ports) {
          auto shard = std::make_unique<Shard>();
          shard->port = port;
          const std::string prefix =
              "net.router.shard." + std::to_string(port) + ".";
          shard->forwarded = &obs::counter(prefix + "forwarded");
          shard->errors = &obs::counter(prefix + "errors");
          shards.push_back(std::move(shard));
        }
        return shards;
      }()),
      admin_(config_.admin.enabled ? std::make_unique<serve::AdminServer>(
                                         config_.admin, "router")
                                   : nullptr),
      connections_(config_.listen_port,
                   frame_loop("router", "router",
                              [this](const Frame& request,
                                     const std::string& peer) {
                                return handle_frame(request, peer);
                              })) {
  log_info("router: listening on ", endpoint_name(port()), " over ",
           shards_.size(), " worker(s)");
}

Router::~Router() { stop(); }

void Router::stop() {
  connections_.stop();
  if (admin_) admin_->stop();
}

std::optional<Frame> Router::handle_frame(const Frame& request,
                                          const std::string& peer) {
  switch (request.type) {
    case MessageType::kSubmitRequest: return handle_submit(request, peer);
    case MessageType::kStats: return handle_stats();
    case MessageType::kSwapWeights: return handle_swap(request, peer);
    default: return std::nullopt;
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

Frame Router::handle_submit(const Frame& request, const std::string& peer) {
  // Decoded for its route key only: the worker gets the client's bytes.
  WireReader r(request.payload, peer);
  const serve::ServeRequest decoded = read_request(r);
  r.expect_end();
  obs::counter("net.router.requests").inc();

  const std::uint64_t key = HashRing::route_key(
      config_fingerprint(), layout::fingerprint(decoded.layout));
  const std::vector<int> order =
      ring_.lookup_n(key, static_cast<int>(ring_.worker_count()));

  FlowError last{FlowStage::kNet, "no workers configured"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    Shard& shard = shard_for_port(order[i]);
    std::lock_guard<std::mutex> lock(shard.mu);
    try {
      // The reply has passed its checksum and decodes as a response; it
      // goes back unchanged, under the worker's checksum.
      Client::SubmitReply reply = client_for(shard).submit_frame(request);
      shard.forwarded->inc();
      if (i > 0) obs::counter("net.router.failovers").inc();
      return std::move(reply.frame);
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
  return error_frame(static_cast<int>(FlowStage::kNet),
                     "router: every worker shard failed; last: " +
                         last.message);
}

Frame Router::handle_stats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    try {
      const WorkerStats stats = client_for(*shard).stats();
      config_fp_.store(stats.config_fingerprint);
      WireWriter w;
      write_stats(w, stats);
      return make_frame(MessageType::kStatsResponse, w.take());
    } catch (const FlowException& e) {
      if (e.stage() != FlowStage::kNet) throw;
      shard->errors->inc();
      shard->client.reset();
    }
  }
  return error_frame(static_cast<int>(FlowStage::kNet),
                     "router: no reachable worker for stats");
}

Frame Router::handle_swap(const Frame& request, const std::string& peer) {
  // Decoded once, before any shard is touched: a malformed payload is the
  // sender's decode error, not a shard fault.
  WireReader r(request.payload, peer);
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
  if (refused_stage)
    return error_frame(static_cast<int>(*refused_stage),
                       "router: weight swap refused by " + refusals);
  if (reached == 0)
    return error_frame(static_cast<int>(FlowStage::kNet),
                       "router: no worker reachable for weight swap");
  WireWriter w;
  write_swap_ack(w, version);
  return make_frame(MessageType::kSwapAck, w.take());
}

}  // namespace ldmo::net
