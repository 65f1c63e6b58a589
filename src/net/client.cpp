#include "net/client.h"

#include <utility>

#include "common/flow_error.h"
#include "obs/metrics.h"

namespace ldmo::net {

Client::Client(ClientConfig config)
    : config_(config), peer_(endpoint_name(config.port)) {}

void Client::ensure_connected() {
  if (sock_.valid()) return;
  sock_ = connect_loopback(config_.port, config_.timeout_seconds,
                           config_.connect_attempts,
                           config_.connect_retry_seconds);
}

Frame Client::roundtrip(const Frame& request, MessageType expected) {
  try {
    ensure_connected();
    write_frame(sock_.fd(), request, peer_);
    std::optional<Frame> reply = read_frame(sock_.fd(), peer_);
    if (!reply)
      throw FlowException(FlowStage::kNet,
                          "frame (" + peer_ + "): connection closed while "
                          "awaiting " + message_type_name(expected));
    if (reply->type == MessageType::kError) {
      // Protocol-level refusal: decode the carried (stage, message) and
      // rethrow it as our own — the server could not even form a response.
      WireReader r(reply->payload, peer_ + " error frame");
      const FlowError error = read_error(r);
      r.expect_end();
      throw FlowException(error.stage,
                          "remote (" + peer_ + "): " + error.message);
    }
    if (reply->type != expected)
      throw FlowException(FlowStage::kNet,
                          "frame (" + peer_ + "): expected " +
                              message_type_name(expected) + ", got " +
                              message_type_name(reply->type));
    return std::move(*reply);
  } catch (const FlowException& e) {
    // Any transport fault poisons the stream framing; reconnect next time.
    if (e.error().stage == FlowStage::kNet) sock_.close();
    throw;
  }
}

template <typename Exchange>
auto Client::with_retries(Exchange exchange) {
  for (int attempt = 0;; ++attempt) {
    try {
      return exchange();
    } catch (const FlowException& e) {
      if (e.error().stage != FlowStage::kNet ||
          attempt >= config_.net_retries)
        throw;
      obs::counter("net.client.retries").inc();
    }
  }
}

serve::ServeResponse Client::submit(const serve::ServeRequest& request) {
  WireWriter w;
  write_request(w, request);
  return submit_frame(make_frame(MessageType::kSubmitRequest, w.take()))
      .response;
}

Client::SubmitReply Client::submit_frame(const Frame& request) {
  return with_retries([&] {
    SubmitReply reply{roundtrip(request, MessageType::kSubmitResponse), {}};
    WireReader r(reply.frame.payload, peer_);
    reply.response = read_response(r);
    r.expect_end();
    return reply;
  });
}

bool Client::ping() {
  try {
    roundtrip(make_frame(MessageType::kPing, {}), MessageType::kPong);
    return true;
  } catch (const FlowException&) {
    return false;
  }
}

WorkerStats Client::stats() {
  const Frame request = make_frame(MessageType::kStats, {});
  return with_retries([&] {
    const Frame reply = roundtrip(request, MessageType::kStatsResponse);
    WireReader r(reply.payload, peer_);
    WorkerStats stats = read_stats(r);
    r.expect_end();
    return stats;
  });
}

std::uint64_t Client::swap_weights(
    std::uint64_t version, const std::vector<std::uint8_t>& blob,
    const std::vector<std::uint8_t>& warm_blob) {
  WireWriter w;
  write_weight_swap(w, WeightSwap{version, blob, warm_blob});
  // No transport retry: a swap with version 0 assigns the next version,
  // so replaying it is not idempotent; the caller decides whether to
  // re-issue after a fault.
  const Frame reply =
      roundtrip(make_frame(MessageType::kSwapWeights, w.take()),
                MessageType::kSwapAck);
  WireReader r(reply.payload, peer_);
  const std::uint64_t active = read_swap_ack(r);
  r.expect_end();
  return active;
}

}  // namespace ldmo::net
