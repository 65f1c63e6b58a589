// Canonical byte serialization for the multi-node wire protocol.
//
// Every multi-byte value is little-endian, explicitly assembled byte by
// byte (never memcpy of in-memory representations) — the same discipline as
// common::Fnv1a, so encoded bytes are identical across platforms, runs and
// build types. That stability is load-bearing twice over: golden-vector
// tests pin the format (tests/test_net.cpp), and the cache snapshot file
// (net/snapshot.h) must be readable by the next process. The one exception
// is where the bytes cannot differ: on a little-endian host a grid's f64
// cells already are their wire bytes, so grid() copies them in one block
// (the byte loop stays for other hosts), and the golden and grid-bit tests
// pin that the block copy writes what the loop would.
//
// Primitive encodings:
//   u8            1 byte
//   u16/u32/u64   little-endian, fixed width
//   i32/i64       two's complement via the unsigned encodings
//   f64           IEEE-754 bit pattern as u64 (bit-identical round trip,
//                 matching the repo-wide determinism contract)
//   str           u32 byte length + raw bytes (no terminator)
//   grid          i32 height, i32 width, then height*width f64 row-major
//
// Compound messages (layout, request, response, stats) each start
// with a short ASCII tag string so a decoder pointed at the wrong payload
// fails loudly with attribution instead of misparsing garbage.
//
// Decode errors throw DecodeError, a FlowException(FlowStage::kNet),
// carrying the decoder's context string (peer or path) and the byte offset
// where decoding stopped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flow_error.h"
#include "common/grid.h"
#include "core/ldmo_flow.h"
#include "serve/request.h"

namespace ldmo::net {

/// Append-only little-endian byte assembler. Feeds return *this so
/// encodings chain like the Fnv1a hasher.
class WireWriter {
 public:
  WireWriter& u8(std::uint8_t v);
  WireWriter& u16(std::uint16_t v);
  WireWriter& u32(std::uint32_t v);
  WireWriter& u64(std::uint64_t v);
  WireWriter& i32(std::int32_t v) {
    return u32(static_cast<std::uint32_t>(v));
  }
  WireWriter& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }
  WireWriter& f64(double v);
  WireWriter& str(std::string_view s);
  /// u32 byte length + raw bytes — the length-prefixed framing that lets a
  /// payload carry several independent blobs (the swap verb's weight and
  /// warm-start sections) without end-of-payload arithmetic.
  WireWriter& blob(const std::vector<std::uint8_t>& b);
  WireWriter& grid(const GridF& g);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// A payload that does not decode. It is a FlowException(kNet) to every
/// caller that catches those; a daemon or router answers it with a kError
/// frame and keeps the connection, because the frame arrived whole and
/// checksummed and the stream is still in step.
class DecodeError : public FlowException {
 public:
  explicit DecodeError(const std::string& message)
      : FlowException(FlowStage::kNet, message) {}
};

/// Bounds-checked little-endian reader over a byte span. `context` names
/// the byte source (a peer "127.0.0.1:4021" or a snapshot path) and lands,
/// with the current byte offset, in every decode error.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}
  WireReader(const std::vector<std::uint8_t>& bytes, std::string context)
      : WireReader(bytes.data(), bytes.size(), std::move(context)) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  std::vector<std::uint8_t> blob();
  GridF grid();

  /// Consumes and checks a compound-message tag; throws on mismatch.
  void expect_tag(std::string_view tag);

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return size_ - offset_; }

  /// Throws unless every byte was consumed — trailing garbage after a
  /// well-formed message is a framing bug, not padding.
  void expect_end() const;

  /// Decode failure with context + byte offset, always thrown as a
  /// DecodeError (a FlowException(FlowStage::kNet)).
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::string context_;
};

// --- canonical message codecs ---

/// Layout: tag "ly1", name, clip (4 x i64), pattern count, rects (4 x i64
/// each; pattern ids are implicit — they equal the index by construction).
void write_layout(WireWriter& w, const layout::Layout& layout);
layout::Layout read_layout(WireReader& r);

/// Serve request: tag "rq1", layout, priority, deadline.
void write_request(WireWriter& w, const serve::ServeRequest& request);
serve::ServeRequest read_request(WireReader& r);

/// Full LdmoResult: tag "rs1", chosen assignment, ILT masks/response/
/// metrology (EPE measurements included), trajectory, phase timing, flags.
/// A decoded result is field-identical to the encoded one, so a snapshot-
/// restored cache entry serves the same bytes a live run would have.
void write_result(WireWriter& w, const core::LdmoResult& result);
core::LdmoResult read_result(WireReader& r);

/// Serve response: tag "rp1", terminal status and timings, error record,
/// and — for ok()/failed-with-partial cases — the embedded result.
void write_response(WireWriter& w, const serve::ServeResponse& response);
serve::ServeResponse read_response(WireReader& r);

/// Worker identity + counters returned by the stats message: tag "st1".
struct WorkerStats {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t weights_version = 0;
  std::string predictor;
  long long status_counts[serve::kServeStatusCount] = {};
  long long cache_hits = 0;
  long long cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t queue_depth = 0;
  /// The warm-start MaskNet's weight fingerprint
  /// (core::MaskInitializer::version); 0 = no warm start. Last in the
  /// payload, since protocol version 2.
  std::uint64_t warm_start_version = 0;
};

void write_stats(WireWriter& w, const WorkerStats& stats);
WorkerStats read_stats(WireReader& r);

/// Weight-swap payload: u64 requested version, the CNN weight blob (empty
/// = keep the current weights), then the warm-start MaskNet blob only
/// when it is non-empty — so a CNN-only payload keeps its original bytes.
struct WeightSwap {
  std::uint64_t version = 0;
  std::vector<std::uint8_t> cnn;
  std::vector<std::uint8_t> warm;
};

void write_weight_swap(WireWriter& w, const WeightSwap& swap);
WeightSwap read_weight_swap(WireReader& r);

/// Swap acknowledgement payload: u64 active weights version.
void write_swap_ack(WireWriter& w, std::uint64_t version);
std::uint64_t read_swap_ack(WireReader& r);

/// Error payload: u8 stage + message string. A stage this build does not
/// know reads as kUnknown, so a newer peer's refusal still gets through.
void write_error(WireWriter& w, int stage, std::string_view message);
FlowError read_error(WireReader& r);

}  // namespace ldmo::net
