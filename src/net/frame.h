// Length-prefixed binary framing over TCP.
//
// Every message on the wire is one frame:
//
//   offset  size  field
//   0       4     magic "LDMO"
//   4       2     protocol version (u16 LE) = 2
//   6       2     message type (u16 LE)
//   8       4     payload length (u32 LE, <= 64 MiB)
//   12      8     payload checksum (u64 LE) = XXH64(payload bytes, seed 0)
//   20      n     payload (a wire.h message, or raw bytes for weight blobs)
//
// The checksum is XXH64 (common::xxh64), which hashes 8-byte words in four
// lanes: every hop hashes each payload once, and byte-serial FNV-1a took
// about fifteen times as long over a 100 KB response. A peer of another
// protocol version is refused by the version check; there is no fallback.
// The checksum catches corruption in transit; it is not a MAC.
//
// The 20-byte header is decoded with the same WireReader as payloads, so a
// corrupt header fails with peer attribution and byte offset. A clean EOF
// exactly on a frame boundary is not an error (read_frame returns nullopt);
// EOF anywhere else — mid-header or mid-payload — throws
// FlowException(FlowStage::kNet) naming the peer and how far it got.
//
// A Frame keeps the checksum read_frame verified, and every write goes
// through one path that sends a payload under a given checksum. A
// forwarder (the router) therefore sends a verified frame on unchanged
// without hashing its payload again; every hop still checks the XXH64
// checksum on receipt.
//
// Failpoint sites: "net.frame.read" fires before reading a frame,
// "net.frame.write" before writing one — both throw as kNet faults, which
// to the remote side is indistinguishable from a connection cut mid-frame.
//
// frame_loop is the server side of a connection, written once for the
// worker daemon and the router: it reads every frame, answers pings, hands
// each other frame to the role's handler, writes the reply, and applies
// the one error policy below.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.h"

namespace ldmo::net {

inline constexpr char kFrameMagic[4] = {'L', 'D', 'M', 'O'};
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 20;
inline constexpr std::size_t kMaxPayloadBytes = 64ull << 20;

/// Frame vocabulary. Values are wire format — never renumber; append only.
enum class MessageType : std::uint16_t {
  kSubmitRequest = 1,   ///< wire request  -> worker (payload: "rq1")
  kSubmitResponse = 2,  ///< worker -> caller (payload: "rp1")
  kPing = 3,            ///< liveness probe (empty payload)
  kPong = 4,            ///< liveness answer (empty payload)
  kStats = 5,           ///< stats query (empty payload)
  kStatsResponse = 6,   ///< worker -> caller (payload: "st1")
  kSwapWeights = 7,     ///< weight hot-swap (payload: wire.h WeightSwap —
                        ///< u64 version, CNN blob, optional MaskNet blob;
                        ///< an empty blob keeps that model)
  kSwapAck = 8,         ///< swap applied (payload: u64 active version)
  kError = 9,           ///< request-level failure (payload: u8 stage + str)
};

const char* message_type_name(MessageType type);

/// One frame: its type, payload and the payload's checksum.
struct Frame {
  MessageType type = MessageType::kPing;
  std::vector<std::uint8_t> payload;
  /// XXH64(payload): verified against the header by read_frame, computed
  /// by make_frame.
  std::uint64_t checksum = 0;
};

/// A frame to send: `payload` with its checksum computed.
Frame make_frame(MessageType type, std::vector<std::uint8_t> payload);

/// Header + payload in one contiguous buffer, exactly as write_frame sends
/// them (the only allocation on the send path; written with a single send
/// loop so a frame is never interleaved with another thread's bytes on the
/// same socket).
std::vector<std::uint8_t> encode_frame(MessageType type,
                                       const std::vector<std::uint8_t>& payload);

/// Writes `frame` to `fd` under its own checksum, hashing nothing: the
/// caller vouches for it (read_frame verified it, or make_frame computed
/// it). Throws FlowException(kNet) naming `peer` on a payload over the
/// 64 MiB cap, on send failure, or when the "net.frame.write" failpoint
/// fires.
void write_frame(int fd, const Frame& frame, const std::string& peer);

/// Writes one frame, computing the payload checksum; otherwise as above.
void write_frame(int fd, MessageType type,
                 const std::vector<std::uint8_t>& payload,
                 const std::string& peer);

/// Reads one frame from `fd`. Returns nullopt on clean EOF at a frame
/// boundary (orderly peer close). Throws FlowException(kNet) — with `peer`
/// and the byte offset reached — on mid-frame EOF, bad magic, version or
/// type, oversized payload, or checksum mismatch; also when the
/// "net.frame.read" failpoint fires. The payload buffer grows as bytes
/// arrive (1 MiB, then doubling), so a header's length claim alone costs
/// at most 1 MiB.
std::optional<Frame> read_frame(int fd, const std::string& peer);

/// A kError frame: u8 stage (a FlowStage) + message string.
Frame error_frame(int stage, const std::string& message);

/// Writes error_frame(stage, message). Best-effort: a send failure is
/// swallowed — the caller is about to close the connection anyway.
void send_error_frame(int fd, const std::string& peer, int stage,
                      const std::string& message);

/// Answers one request frame (never a ping) from `peer`: returns the reply
/// frame, or nullopt for a message type the role does not handle.
using FrameHandler = std::function<std::optional<Frame>(
    const Frame& request, const std::string& peer)>;

/// The server side of a frame connection, as a ConnectionServer handler:
/// it sets the 30 s frame timeout, counts net.<component>.connections,
/// and reads frames, a poll tick at a time, until the peer closes. A ping
/// gets a pong; any other frame goes to `handle`, whose reply it writes.
/// The error policy:
///   - a clean EOF closes the connection, and so does a kNet transport
///     fault (read or write failure, bad header, checksum mismatch), which
///     is logged under `component` ("daemon" or "router");
///   - a DecodeError gets a kError reply naming it: the frame arrived whole
///     and checksummed, so the stream is still in step;
///   - another FlowException gets a kError reply with its stage, and any
///     other exception one with stage kUnknown;
///   - a type `handle` refuses gets "unexpected <type> frame on a <role>
///     connection" (`role` is "worker" or "router").
/// All but the first keep the connection open.
ConnectionServer::Handler frame_loop(std::string component, std::string role,
                                     FrameHandler handle);

}  // namespace ldmo::net
