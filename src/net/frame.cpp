#include "net/frame.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/log.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace ldmo::net {

namespace {

/// read_frame's first payload buffer, and the least it grows by.
constexpr std::size_t kPayloadStep = 1u << 20;

/// The frame payload checksum, XXH64 (seed 0). Every hash of a frame
/// payload goes through here, so nothing else names the algorithm.
std::uint64_t frame_checksum(const std::vector<std::uint8_t>& payload) {
  return common::xxh64(payload.data(), payload.size());
}

[[noreturn]] void frame_fail(const std::string& peer, const std::string& what,
                             std::size_t offset) {
  obs::counter("net.frame.errors").inc();
  throw FlowException(FlowStage::kNet,
                      "frame (" + peer + "): " + what + " at byte " +
                          std::to_string(offset));
}

/// recv() exactly `len` bytes. Returns the byte count actually read, which
/// is short only when the connection closed (or errored) first.
std::size_t recv_exact(int fd, std::uint8_t* out, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kSubmitRequest: return "submit-request";
    case MessageType::kSubmitResponse: return "submit-response";
    case MessageType::kPing: return "ping";
    case MessageType::kPong: return "pong";
    case MessageType::kStats: return "stats";
    case MessageType::kStatsResponse: return "stats-response";
    case MessageType::kSwapWeights: return "swap-weights";
    case MessageType::kSwapAck: return "swap-ack";
    case MessageType::kError: return "error";
  }
  return "unknown";
}

Frame make_frame(MessageType type, std::vector<std::uint8_t> payload) {
  const std::uint64_t checksum = frame_checksum(payload);
  return Frame{type, std::move(payload), checksum};
}

namespace {

/// Header + payload in one contiguous buffer, under `checksum`.
std::vector<std::uint8_t> frame_bytes(MessageType type,
                                      const std::vector<std::uint8_t>& payload,
                                      std::uint64_t checksum) {
  WireWriter header;
  for (char magic : kFrameMagic) header.u8(static_cast<std::uint8_t>(magic));
  header.u16(kProtocolVersion);
  header.u16(static_cast<std::uint16_t>(type));
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u64(checksum);
  std::vector<std::uint8_t> out = header.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// The one send path: `payload` under `checksum`, which nothing re-hashes.
void send_frame(int fd, MessageType type,
                const std::vector<std::uint8_t>& payload,
                std::uint64_t checksum, const std::string& peer) {
  fail::maybe_fail("net.frame.write", FlowStage::kNet);
  if (payload.size() > kMaxPayloadBytes)
    frame_fail(peer, "payload too large to send (" +
                         std::to_string(payload.size()) + " bytes)", 0);
  const std::vector<std::uint8_t> bytes =
      frame_bytes(type, payload, checksum);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0)
      frame_fail(peer, std::string("send failed mid-") +
                           message_type_name(type) + "-frame", sent);
    sent += static_cast<std::size_t>(n);
  }
  obs::counter("net.frame.writes").inc();
  obs::counter("net.frame.bytes_sent").inc(
      static_cast<long long>(bytes.size()));
}

}  // namespace

std::vector<std::uint8_t> encode_frame(
    MessageType type, const std::vector<std::uint8_t>& payload) {
  return frame_bytes(type, payload, frame_checksum(payload));
}

void write_frame(int fd, const Frame& frame, const std::string& peer) {
  send_frame(fd, frame.type, frame.payload, frame.checksum, peer);
}

void write_frame(int fd, MessageType type,
                 const std::vector<std::uint8_t>& payload,
                 const std::string& peer) {
  send_frame(fd, type, payload, frame_checksum(payload), peer);
}

std::optional<Frame> read_frame(int fd, const std::string& peer) {
  fail::maybe_fail("net.frame.read", FlowStage::kNet);

  std::uint8_t header[kFrameHeaderBytes];
  const std::size_t head_got = recv_exact(fd, header, kFrameHeaderBytes);
  if (head_got == 0) return std::nullopt;  // clean EOF between frames
  if (head_got < kFrameHeaderBytes)
    frame_fail(peer, "connection closed mid-header", head_got);

  WireReader r(header, kFrameHeaderBytes, peer + " frame header");
  for (char magic : kFrameMagic) {
    if (r.u8() != static_cast<std::uint8_t>(magic))
      frame_fail(peer, "bad magic (not an LDMO frame)", r.offset() - 1);
  }
  const std::uint16_t version = r.u16();
  if (version != kProtocolVersion)
    frame_fail(peer,
               "protocol version " + std::to_string(version) +
                   " (this build speaks " + std::to_string(kProtocolVersion) +
                   ")",
               4);
  const std::uint16_t raw_type = r.u16();
  if (raw_type < static_cast<std::uint16_t>(MessageType::kSubmitRequest) ||
      raw_type > static_cast<std::uint16_t>(MessageType::kError))
    frame_fail(peer, "unknown message type " + std::to_string(raw_type), 6);
  const std::uint32_t payload_len = r.u32();
  if (payload_len > kMaxPayloadBytes)
    frame_fail(peer,
               "payload length " + std::to_string(payload_len) +
                   " exceeds the " + std::to_string(kMaxPayloadBytes) +
                   "-byte cap",
               8);
  const std::uint64_t checksum = r.u64();

  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  // The buffer grows with the bytes that arrive, not with the header's
  // claim: a bare header cannot make the reader zero 64 MiB. A payload of
  // up to one step (a cached response) is still one allocation and one
  // receive loop.
  std::size_t body_got = 0;
  while (body_got < payload_len) {
    const std::size_t want = std::min<std::size_t>(
        payload_len, std::max(2 * body_got, kPayloadStep));
    frame.payload.resize(want);
    body_got += recv_exact(fd, frame.payload.data() + body_got,
                           want - body_got);
    if (body_got < want) break;  // closed early
  }
  if (body_got < payload_len)
    frame_fail(peer,
               std::string("connection closed mid-") +
                   message_type_name(frame.type) + "-payload",
               kFrameHeaderBytes + body_got);
  if (frame_checksum(frame.payload) != checksum)
    frame_fail(peer,
               std::string("payload checksum mismatch on ") +
                   message_type_name(frame.type) + " frame",
               kFrameHeaderBytes);

  frame.checksum = checksum;

  obs::counter("net.frame.reads").inc();
  obs::counter("net.frame.bytes_received").inc(
      static_cast<long long>(kFrameHeaderBytes + payload_len));
  return frame;
}

Frame error_frame(int stage, const std::string& message) {
  WireWriter w;
  write_error(w, stage, message);
  return make_frame(MessageType::kError, w.take());
}

void send_error_frame(int fd, const std::string& peer, int stage,
                      const std::string& message) {
  try {
    write_frame(fd, error_frame(stage, message), peer);
  } catch (const FlowException&) {
    // Connection already dead; caller closes it.
  }
}

namespace {

constexpr double kFrameTimeout = 30.0;  ///< mid-frame stall guard

/// One frame in, at most one frame out. Returns false when the connection
/// should close: a clean EOF or a transport fault.
bool serve_frame(int fd, const std::string& peer, const std::string& component,
                 const std::string& role, const FrameHandler& handle) {
  try {
    const std::optional<Frame> request = read_frame(fd, peer);
    if (!request) return false;  // orderly close
    if (request->type == MessageType::kPing) {
      write_frame(fd, MessageType::kPong, {}, peer);
      return true;
    }
    const std::optional<Frame> reply = handle(*request, peer);
    if (reply) {
      write_frame(fd, *reply, peer);
    } else {
      send_error_frame(fd, peer, static_cast<int>(FlowStage::kNet),
                       std::string("unexpected ") +
                           message_type_name(request->type) + " frame on a " +
                           role + " connection");
    }
    return true;
  } catch (const DecodeError& e) {
    send_error_frame(fd, peer, static_cast<int>(FlowStage::kNet), e.what());
    return true;
  } catch (const FlowException& e) {
    if (e.stage() == FlowStage::kNet) {
      // The stream framing is out of step: drop the connection. A client's
      // retry resubmits, and requests are idempotent, so nothing is lost.
      log_warn(component, ": dropping ", peer, ": ", e.what());
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

}  // namespace

ConnectionServer::Handler frame_loop(std::string component, std::string role,
                                     FrameHandler handle) {
  return [component = std::move(component), role = std::move(role),
          handle = std::move(handle)](Socket& sock, const std::string& peer,
                                      const std::atomic<bool>& stop) {
    sock.set_timeout(kFrameTimeout);
    obs::counter("net." + component + ".connections").inc();
    while (!stop.load()) {
      if (!wait_readable(sock.fd())) continue;  // a poll tick
      if (!serve_frame(sock.fd(), peer, component, role, handle)) return;
    }
  };
}

}  // namespace ldmo::net
