// Wire-protocol and cluster-component tests (tests run in-process; the
// multi-process drill lives in test_net_cluster.cpp):
//
//   - golden byte vectors pinning the little-endian primitive encodings and
//     the frame header layout (hand-computed, no run-to-pin),
//   - encoded-message digests pinning the field order of every compound
//     message (a codec reorder breaks these before it breaks a cluster),
//   - re-encode round trips plus a corrupt/truncated corpus: every strict
//     prefix of every message must throw, never misparse,
//   - frame I/O over a socketpair: clean EOF vs mid-frame EOF, bad magic/
//     version/type, every single-bit flip of short payloads and of the
//     checksum caught, oversized payload, a payload buffer that grows with
//     the bytes received, failpoints,
//   - consistent-hash ring properties (determinism, distinct failover
//     order, minimal disruption on membership change),
//   - cache snapshot save/load/corruption and restart warm-start,
//   - ServeDaemon + Client loopback bit-identity against a direct
//     serve::Server, weight hot-swap (refused swaps change nothing; swaps
//     under load lose no request), restarts on other weights, transport
//     retries, and decode errors answered on a connection that stays open,
//   - Router forwarding, failover to the surviving shard (also when a
//     reply does not decode), swap broadcast (warm-start section
//     included), stats naming the warm-start model, and the server-less
//     admin endpoint,
//   - the connection server under all three: a closed connection's thread
//     is released, and a silent admin connection blocks no scrape.
//
// Flow-running tests use the 32-pixel serving-tier lithography model, so a
// full run is tens of milliseconds (same budget as test_serve.cpp).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/rng.h"
#include "layout/fingerprint.h"
#include "layout/generator.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/frame.h"
#include "net/router.h"
#include "net/snapshot.h"
#include "net/socket.h"
#include "net/wire.h"
#include "nn/resnet.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/admin.h"
#include "serve/server.h"
#include "warmstart/warm_start.h"

namespace ldmo::net {
namespace {

// --- shared fixtures -------------------------------------------------------

litho::LithoConfig fast_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 32;
  cfg.pixel_nm = 32.0;  // 32 px x 32 nm = the generator's 1024nm clip
  return cfg;
}

core::FlowEngineConfig fast_engine_config() {
  core::FlowEngineConfig cfg;
  cfg.litho = fast_litho();
  return cfg;
}

serve::ServeConfig fast_serve_config() {
  serve::ServeConfig cfg;
  cfg.engine = fast_engine_config();
  cfg.dispatchers = 2;
  return cfg;
}

layout::Layout generated_layout(std::uint64_t seed) {
  return layout::LayoutGenerator().generate(seed);
}

/// Hand-built layout for golden vectors: every byte of its encoding is a
/// pure function of these literals.
layout::Layout golden_layout() {
  layout::Layout layout;
  layout.name = "golden";
  layout.clip = geometry::Rect::make({0, 0}, {1024, 1024});
  layout.add_pattern(geometry::Rect::make({100, 200}, {160, 260}));
  layout.add_pattern(geometry::Rect::make({300, 200}, {360, 260}));
  return layout;
}

/// Hand-built LdmoResult exercising every codec field (small 2x2 grids).
core::LdmoResult golden_result() {
  core::LdmoResult result;
  result.chosen = {0, 1, 0};
  result.ilt.mask1 = GridF(2, 2, 0.25);
  result.ilt.mask2 = GridF(2, 2, 0.75);
  result.ilt.response = GridF(2, 2, 0.5);
  result.ilt.report.l2 = 12.5;
  result.ilt.report.epe.violation_count = 1;
  result.ilt.report.epe.max_epe_nm = 3.5;
  result.ilt.report.epe.mean_epe_nm = 1.25;
  litho::EpeMeasurement m;
  m.checkpoint.x_nm = 110.0;
  m.checkpoint.y_nm = 230.0;
  m.checkpoint.normal_x = 1.0;
  m.checkpoint.normal_y = 0.0;
  m.checkpoint.pattern_id = 0;
  m.epe_nm = 3.5;
  m.violation = true;
  m.contour_found = true;
  result.ilt.report.epe.measurements.push_back(m);
  result.ilt.report.violations.missing = 1;
  result.ilt.report.violations.bridges = 0;
  result.ilt.report.violations.extra = 2;
  result.ilt.trajectory.push_back({0, 20.0, 3, 1});
  result.ilt.trajectory.push_back({1, 12.5, 1, 0});
  result.ilt.iterations_run = 2;
  result.ilt.aborted_on_violation = false;
  result.ilt.cancelled = false;
  result.candidates_generated = 4;
  result.candidates_tried = 1;
  result.timing.add("generate", 0.5, 0.25);
  result.timing.add("ilt", 2.0, 1.5);
  result.total_seconds = 2.5;
  result.error = FlowError{FlowStage::kUnknown, ""};
  result.degraded = false;
  return result;
}

serve::ServeResponse golden_response() {
  serve::ServeResponse response;
  response.status = serve::ServeStatus::kOk;
  response.result = golden_result();
  response.request_id = 42;
  response.cache_key = 0x1122334455667788ull;
  response.completion_sequence = 7;
  response.queue_seconds = 0.125;
  response.service_seconds = 2.5;
  response.total_seconds = 2.625;
  response.attempts = 1;
  return response;
}

WorkerStats golden_stats() {
  WorkerStats stats;
  stats.config_fingerprint = 0xdeadbeefcafef00dull;
  stats.weights_version = 3;
  stats.predictor = "cnn@v3";
  stats.status_counts[0] = 10;
  stats.status_counts[1] = 20;
  stats.cache_hits = 19;
  stats.cache_misses = 11;
  stats.cache_entries = 6;
  stats.queue_depth = 2;
  stats.warm_start_version = 0x0123456789ABCDEFull;
  return stats;
}

std::uint64_t digest_of(const WireWriter& w) {
  return common::fnv1a(w.bytes().data(), w.size());
}

/// Serialized parameters of a freshly initialized ResNet — a valid weight
/// blob for the kSwapWeights path (the daemon reconstitutes a CnnPredictor
/// from it). `path` is the staging file; the caller owns cleanup.
std::vector<std::uint8_t> fresh_weights_blob(const std::string& path) {
  nn::ResNetRegressor model;
  nn::save_parameters(model.parameters(), path);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The deterministic slice of an LdmoResult: everything except the measured
/// wall/CPU timings (those differ run to run by construction). Bit-identity
/// assertions compare these bytes.
std::vector<std::uint8_t> deterministic_result_bytes(
    const core::LdmoResult& result) {
  core::LdmoResult copy = result;
  copy.timing = PhaseTimer{};
  copy.total_seconds = 0.0;
  WireWriter w;
  write_result(w, copy);
  return w.take();
}

/// A "<field>  <n> kB" line of /proc/self/status (VmSize:, VmRSS:), in kB.
long long status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind(field, 0) == 0) return std::stoll(line.substr(field.size()));
  return 0;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// socketpair with RAII ends, for frame I/O tests without a listener.
struct FdPair {
  int a = -1, b = -1;
  FdPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~FdPair() {
    close_a();
    close_b();
  }
  void close_a() {
    if (a >= 0) ::close(a);
    a = -1;
  }
  void close_b() {
    if (b >= 0) ::close(b);
    b = -1;
  }
};

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::disarm_all(); }
  void TearDown() override {
    fail::disarm_all();
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  std::vector<std::string> cleanup_;
};

// --- golden vectors: primitives -------------------------------------------

TEST(WireGolden, PrimitiveEncodingsAreLittleEndian) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0x89ABCDEF);
  w.u64(0x0102030405060708ull);
  w.i32(-2);
  w.f64(1.5);  // IEEE-754: 0x3FF8000000000000
  w.str("hi");
  const std::vector<std::uint8_t> expected = {
      0xAB,                                            // u8
      0x34, 0x12,                                      // u16 LE
      0xEF, 0xCD, 0xAB, 0x89,                          // u32 LE
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64 LE
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // f64 1.5
      0x02, 0x00, 0x00, 0x00, 'h',  'i',               // str
  };
  EXPECT_EQ(w.bytes(), expected);
}

TEST(WireGolden, PrimitiveRoundTrip) {
  WireWriter w;
  w.u8(7).u16(65535).u32(0).u64(~0ull).i32(-123456).i64(-1).f64(-0.0);
  w.str("").str("layout name with spaces");
  GridF g(2, 3);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = static_cast<double>(i) * 0.5;
  w.grid(g);

  WireReader r(w.bytes(), "test");
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u64(), ~0ull);
  EXPECT_EQ(r.i32(), -123456);
  EXPECT_EQ(r.i64(), -1);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit-exact, not value-equal
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "layout name with spaces");
  const GridF back = r.grid();
  ASSERT_EQ(back.height(), 2);
  ASSERT_EQ(back.width(), 3);
  for (std::size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], g[i]);
  r.expect_end();
}

TEST(WireGolden, FrameHeaderLayoutIsPinned) {
  // A kPing frame with an empty payload is exactly the 20-byte header; the
  // checksum of zero bytes is XXH64's empty-input vector.
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kPing, {});
  const std::vector<std::uint8_t> expected = {
      'L',  'D',  'M',  'O',                           // magic
      0x02, 0x00,                                      // version 2
      0x03, 0x00,                                      // type kPing
      0x00, 0x00, 0x00, 0x00,                          // payload length
      0x99, 0xE9, 0xD8, 0x51, 0x37, 0xDB, 0x46, 0xEF,  // XXH64("") LE
  };
  EXPECT_EQ(frame, expected);
}

TEST(WireGolden, FrameChecksumCoversPayload) {
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kStats, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  WireReader r(frame, "test");
  r.u32();  // magic
  EXPECT_EQ(r.u16(), 2u);
  EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(MessageType::kStats));
  EXPECT_EQ(r.u32(), payload.size());
  EXPECT_EQ(r.u64(), 0x2FF5CFB6AF9AAF68ull);  // XXH64 of the 4 bytes
}

// --- golden vectors: compound message digests ------------------------------
//
// These digests pin the exact encoded bytes of each message built from the
// golden_* literals above. They fail on ANY codec change — field order,
// width, added or removed fields. That is the point: the wire format is
// frozen at version 2; a deliberate format change must bump
// kProtocolVersion (and these constants) in the same commit.

TEST(WireGolden, LayoutMessageBytesAreStable) {
  WireWriter w;
  write_layout(w, golden_layout());
  EXPECT_EQ(digest_of(w), 0x835e6ddfd7525fc9ull)
      << "encoded layout bytes changed — wire format break";
}

TEST(WireGolden, RequestMessageBytesAreStable) {
  serve::ServeRequest request;
  request.layout = golden_layout();
  request.priority = serve::Priority::kInteractive;
  request.deadline_seconds = 30.0;
  WireWriter w;
  write_request(w, request);
  EXPECT_EQ(digest_of(w), 0xa16e6494eab7dcd6ull)
      << "encoded request bytes changed — wire format break";
}

TEST(WireGolden, ResultMessageBytesAreStable) {
  WireWriter w;
  write_result(w, golden_result());
  EXPECT_EQ(digest_of(w), 0xd09dd1d153b8839eull)
      << "encoded result bytes changed — wire format break";
}

TEST(WireGolden, ResponseMessageBytesAreStable) {
  WireWriter w;
  write_response(w, golden_response());
  EXPECT_EQ(digest_of(w), 0xd1353112d5a242b4ull)
      << "encoded response bytes changed — wire format break";
}

TEST(WireGolden, StatsMessageBytesAreStable) {
  // Version 1's bytes (digest 0x160d0ac1b79ca440) followed by the u64
  // warm_start_version: FNV-1a continued from that digest over
  // EF CD AB 89 67 45 23 01 gives this one.
  WireWriter w;
  write_stats(w, golden_stats());
  EXPECT_EQ(digest_of(w), 0xbc9929f7ec7282e0ull)
      << "encoded stats bytes changed — wire format break";
}

TEST(WireGolden, WeightSwapPayloadLayoutIsPinned) {
  // Without a warm section the payload is the original u64 + blob layout.
  WireWriter cnn_only;
  write_weight_swap(cnn_only, WeightSwap{5, {0xAA, 0xBB}, {}});
  const std::vector<std::uint8_t> expected = {
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // version
      0x02, 0x00, 0x00, 0x00, 0xAA, 0xBB,              // CNN blob
  };
  EXPECT_EQ(cnn_only.bytes(), expected);

  WireWriter both;
  write_weight_swap(both, WeightSwap{5, {}, {0xCC}});
  WireReader r(both.bytes(), "test");
  const WeightSwap decoded = read_weight_swap(r);
  r.expect_end();
  EXPECT_EQ(decoded.version, 5u);
  EXPECT_TRUE(decoded.cnn.empty());
  EXPECT_EQ(decoded.warm, std::vector<std::uint8_t>{0xCC});

  // A section longer than the payload is a decode error.
  std::vector<std::uint8_t> overrun = expected;
  overrun[8] = 0x09;
  WireReader bad(overrun, "overrun");
  EXPECT_THROW((void)read_weight_swap(bad), FlowException);
}

// --- round trips and the corrupt/truncated corpus --------------------------

/// The corrupt corpus, shared by every message type below: every strict
/// prefix must throw (truncation sweep), a flipped tag must throw, and one
/// trailing byte must fail expect_end — never a misparse, never a crash.
template <typename ReadFn>
void check_corrupt_corpus(const std::vector<std::uint8_t>& bytes,
                          ReadFn read_fn) {
  // Every strict prefix throws a kNet FlowException — never a misparse,
  // never a crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(bytes.data(), len, "truncated");
    bool threw = false;
    try {
      (void)read_fn(r);
      r.expect_end();
    } catch (const FlowException& e) {
      threw = true;
      EXPECT_EQ(e.stage(), FlowStage::kNet);
    }
    EXPECT_TRUE(threw) << "prefix of " << len << " bytes decoded cleanly";
  }
  // Flipped tag byte: loud mismatch, not a misparse.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] ^= 0xFF;  // first tag character (after the u32 length prefix)
    WireReader r(bad, "bad-tag");
    EXPECT_THROW((void)read_fn(r), FlowException);
  }
  // Trailing garbage after a well-formed message: expect_end throws.
  {
    std::vector<std::uint8_t> extra = bytes;
    extra.push_back(0x5A);
    WireReader r(extra, "trailing");
    (void)read_fn(r);
    EXPECT_THROW(r.expect_end(), FlowException);
  }
}

TEST(WireCorpus, LayoutRoundTripAndCorpus) {
  WireWriter w;
  write_layout(w, golden_layout());
  {
    WireReader r(w.bytes(), "test");
    const layout::Layout decoded = read_layout(r);
    r.expect_end();
    EXPECT_EQ(decoded.name, "golden");
    EXPECT_EQ(decoded.pattern_count(), 2);
    WireWriter again;
    write_layout(again, decoded);
    EXPECT_EQ(again.bytes(), w.bytes());
    EXPECT_EQ(layout::fingerprint(decoded),
              layout::fingerprint(golden_layout()));
  }
  check_corrupt_corpus(w.bytes(),
                       [](WireReader& r) { return read_layout(r); });
}

TEST(WireCorpus, RequestRoundTripAndCorpus) {
  serve::ServeRequest request;
  request.layout = golden_layout();
  request.priority = serve::Priority::kBatch;
  request.deadline_seconds = 5.0;
  WireWriter w;
  write_request(w, request);
  {
    WireReader r(w.bytes(), "test");
    const serve::ServeRequest decoded = read_request(r);
    r.expect_end();
    EXPECT_EQ(decoded.priority, serve::Priority::kBatch);
    EXPECT_EQ(decoded.deadline_seconds, 5.0);
    WireWriter again;
    write_request(again, decoded);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
  check_corrupt_corpus(w.bytes(),
                       [](WireReader& r) { return read_request(r); });
}

TEST(WireCorpus, ResultRoundTripAndCorpus) {
  WireWriter w;
  write_result(w, golden_result());
  {
    WireReader r(w.bytes(), "test");
    const core::LdmoResult decoded = read_result(r);
    r.expect_end();
    WireWriter again;
    write_result(again, decoded);
    EXPECT_EQ(again.bytes(), w.bytes());  // bit-identical masks included
    EXPECT_EQ(decoded.ilt.report.epe.measurements.size(), 1u);
    EXPECT_EQ(decoded.timing.get("ilt"), 2.0);
    EXPECT_EQ(decoded.timing.get_cpu("generate"), 0.25);
  }
  check_corrupt_corpus(w.bytes(),
                       [](WireReader& r) { return read_result(r); });
}

TEST(WireCorpus, ResponseRoundTripAndCorpus) {
  WireWriter w;
  write_response(w, golden_response());
  {
    WireReader r(w.bytes(), "test");
    const serve::ServeResponse decoded = read_response(r);
    r.expect_end();
    EXPECT_EQ(decoded.status, serve::ServeStatus::kOk);
    EXPECT_EQ(decoded.request_id, 42u);
    WireWriter again;
    write_response(again, decoded);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
  check_corrupt_corpus(w.bytes(),
                       [](WireReader& r) { return read_response(r); });
}

TEST(WireCorpus, FailedResponseTravelsWithoutResult) {
  serve::ServeResponse response;
  response.status = serve::ServeStatus::kFailed;
  response.error = FlowError{FlowStage::kIlt, "diverged"};
  response.attempts = 3;
  WireWriter w;
  write_response(w, response);
  WireReader r(w.bytes(), "test");
  const serve::ServeResponse decoded = read_response(r);
  r.expect_end();
  EXPECT_EQ(decoded.status, serve::ServeStatus::kFailed);
  EXPECT_EQ(decoded.error.stage, FlowStage::kIlt);
  EXPECT_EQ(decoded.error.message, "diverged");
  EXPECT_EQ(decoded.attempts, 3);
  // No embedded result: the failed response is compact.
  EXPECT_LT(w.size(), 200u);
}

TEST(WireCorpus, StatsRoundTripAndCorpus) {
  WireWriter w;
  write_stats(w, golden_stats());
  {
    WireReader r(w.bytes(), "test");
    const WorkerStats decoded = read_stats(r);
    r.expect_end();
    EXPECT_EQ(decoded.config_fingerprint, 0xdeadbeefcafef00dull);
    EXPECT_EQ(decoded.predictor, "cnn@v3");
    EXPECT_EQ(decoded.warm_start_version, 0x0123456789ABCDEFull);
    WireWriter again;
    write_stats(again, decoded);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
  check_corrupt_corpus(w.bytes(),
                       [](WireReader& r) { return read_stats(r); });
}

TEST(WireCorpus, OutOfRangeEnumsAreRejected) {
  {  // priority 7
    WireWriter w;
    write_layout(w.str("rq1"), golden_layout());
    w.u8(7).f64(0.0);
    WireReader r(w.bytes(), "test");
    EXPECT_THROW((void)read_request(r), FlowException);
  }
  {  // serve status 200
    WireWriter w;
    w.str("rp1").u8(200);
    WireReader r(w.bytes(), "test");
    EXPECT_THROW((void)read_response(r), FlowException);
  }
}

TEST(WireCorpus, HostileLengthsAreRejectedBeforeAllocation) {
  {  // implausible grid shape
    WireWriter w;
    w.i32(1 << 20).i32(2);
    WireReader r(w.bytes(), "test");
    EXPECT_THROW((void)r.grid(), FlowException);
  }
  {  // plausible shape, body longer than the remaining payload
    WireWriter w;
    w.i32(100).i32(100);
    WireReader r(w.bytes(), "test");
    EXPECT_THROW((void)r.grid(), FlowException);
  }
  {  // string length beyond the payload
    WireWriter w;
    w.u32(0xFFFFFFFF);
    WireReader r(w.bytes(), "test");
    EXPECT_THROW((void)r.str(), FlowException);
  }
  {  // layout pattern count beyond the payload
    WireWriter w;
    w.str("ly1").str("n");
    w.i64(0).i64(0).i64(8).i64(8);
    w.u32(0x00FFFFFF);
    WireReader r(w.bytes(), "test");
    EXPECT_THROW((void)read_layout(r), FlowException);
  }
}

TEST(WireCorpus, GridBitsRoundTripExactly) {
  // The bulk grid copy must write what the per-element f64 encoding
  // writes, and read back every bit, for the values whose bits a
  // value-comparison would miss.
  const std::vector<std::uint64_t> bits = {
      0x8000000000000000ull,  // -0.0
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
      0x7FF8000000000000ull,  // quiet NaN
      0xFFF8000000000001ull,  // quiet NaN, sign and payload set
      0x7FF0000000000001ull,  // signalling NaN
      0x7FF4000000000000ull,  // signalling NaN, high payload bit
      0x0000000000000001ull,  // smallest denormal
      0x800FFFFFFFFFFFFFull,  // largest negative denormal
      std::bit_cast<std::uint64_t>(DBL_MAX),
      std::bit_cast<std::uint64_t>(-DBL_MAX),
      std::bit_cast<std::uint64_t>(1.0),
  };
  const std::vector<std::pair<int, int>> shapes = {
      {0, 0}, {1, 1}, {1, 7}, {7, 1}, {64, 64}};
  for (const auto& [h, w] : shapes) {
    SCOPED_TRACE(std::to_string(h) + "x" + std::to_string(w));
    GridF g(h, w);
    for (std::size_t i = 0; i < g.size(); ++i)
      g[i] = std::bit_cast<double>(bits[i % bits.size()]);

    WireWriter bulk;
    bulk.grid(g);
    WireWriter reference;
    reference.i32(h).i32(w);
    for (std::size_t i = 0; i < g.size(); ++i) reference.f64(g[i]);
    EXPECT_EQ(bulk.bytes(), reference.bytes());

    WireReader r(bulk.bytes(), "grid");
    const GridF back = r.grid();
    r.expect_end();
    ASSERT_EQ(back.height(), h);
    ASSERT_EQ(back.width(), w);
    if (g.empty()) continue;  // no cell to compare or cut into
    EXPECT_EQ(std::memcmp(back.data(), g.data(), g.size() * sizeof(double)),
              0);

    WireReader cut(bulk.bytes().data(), bulk.size() - 1, "cut");
    try {
      (void)cut.grid();
      FAIL() << "a grid one byte short decoded";
    } catch (const FlowException& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds remaining"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WireCorpus, DecodeErrorsCarryContextAndOffset) {
  WireWriter w;
  w.u32(5);  // truncated string: length says 5, zero bytes follow
  WireReader r(w.bytes(), "127.0.0.1:4021");
  try {
    (void)r.str();
    FAIL() << "decode did not throw";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kNet);
    const std::string what = e.what();
    EXPECT_NE(what.find("127.0.0.1:4021"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte 4"), std::string::npos) << what;
  }
}

// --- frame I/O over a socketpair -------------------------------------------

TEST_F(NetTest, FrameRoundTripOverSocket) {
  FdPair fds;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  write_frame(fds.a, MessageType::kSubmitRequest, payload, "a");
  const std::optional<Frame> frame = read_frame(fds.b, "b");
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MessageType::kSubmitRequest);
  EXPECT_EQ(frame->payload, payload);
}

TEST_F(NetTest, CleanEofAtFrameBoundaryIsNotAnError) {
  FdPair fds;
  write_frame(fds.a, MessageType::kPing, {}, "a");
  fds.close_a();
  EXPECT_TRUE(read_frame(fds.b, "b").has_value());   // the ping
  EXPECT_FALSE(read_frame(fds.b, "b").has_value());  // orderly close
}

TEST_F(NetTest, MidFrameEofThrowsWithPeerAndOffset) {
  FdPair fds;
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kStats, {9, 9, 9});
  send_all(fds.a, {frame.begin(), frame.begin() + 10});  // half a header
  fds.close_a();
  try {
    (void)read_frame(fds.b, "worker-7");
    FAIL() << "mid-frame EOF did not throw";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kNet);
    EXPECT_NE(std::string(e.what()).find("worker-7"), std::string::npos);
  }
}

TEST_F(NetTest, MidPayloadEofThrows) {
  FdPair fds;
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kStats, {9, 9, 9});
  send_all(fds.a, {frame.begin(), frame.end() - 1});  // payload short by one
  fds.close_a();
  EXPECT_THROW((void)read_frame(fds.b, "b"), FlowException);
}

/// What read_frame makes of the next frame on `fd`: "accepted", "eof", or
/// the message of the FlowException it threw.
std::string read_verdict(int fd) {
  try {
    return read_frame(fd, "b") ? "accepted" : "eof";
  } catch (const FlowException& e) {
    return e.what();
  }
}

/// n bytes of the checksum reference pattern, b[i] = (i * 131 + 7) & 0xff.
std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return bytes;
}

TEST_F(NetTest, BadMagicVersionTypeAndChecksumAreRejected) {
  const std::vector<std::uint8_t> good =
      encode_frame(MessageType::kPong, {7});
  struct Corruption {
    std::size_t offset;
    std::uint8_t value;
    const char* reason;
  };
  // Each header field is refused for its own reason: a magic byte, a
  // version-1 peer, an unknown version, an unknown type (99) and a payload
  // byte that no longer matches the checksum.
  const std::vector<Corruption> corpus = {
      {0, 'l', "bad magic"},
      {4, 0x01, "protocol version 1 (this build speaks 2)"},
      {4, 0x64, "protocol version 100 (this build speaks 2)"},
      {6, 0x63, "unknown message type 99"},
      {20, 0x61, "payload checksum mismatch"}};
  for (const Corruption& c : corpus) {
    FdPair fds;
    std::vector<std::uint8_t> bad = good;
    bad[c.offset] = c.value;
    send_all(fds.a, bad);
    const std::string verdict = read_verdict(fds.b);
    EXPECT_NE(verdict.find(c.reason), std::string::npos)
        << c.reason << ": " << verdict;
  }

  // Every single-bit flip of the checksum field and of payloads of 1 to 67
  // bytes (one and two 32-byte stripes, and every 8-, 4- and 1-byte tail)
  // is a checksum mismatch. read_frame reads a whole frame before it
  // checks it, so one socketpair stays in step across the corpus.
  FdPair fds;
  int flips = 0;
  int missed = 0;
  const auto expect_mismatch = [&](const std::string& what) {
    ++flips;
    const std::string verdict = read_verdict(fds.b);
    if (verdict.find("payload checksum mismatch") == std::string::npos &&
        ++missed <= 5)
      ADD_FAILURE() << what << ": " << verdict;
  };
  const std::size_t checksum_at = kFrameHeaderBytes - 8;
  for (std::size_t n = 1; n <= 67; ++n) {
    const std::vector<std::uint8_t> frame =
        encode_frame(MessageType::kSubmitResponse, pattern_bytes(n));
    for (std::size_t byte = checksum_at; byte < frame.size(); ++byte)
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> bad = frame;
        bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
        send_all(fds.a, bad);
        expect_mismatch("bit " + std::to_string(bit) + " of byte " +
                        std::to_string(byte) + " in a " + std::to_string(n) +
                        "-byte payload's frame");
      }
  }
  EXPECT_EQ(flips, 67 * 64 + 8 * (67 * 68 / 2));

  // A seeded sample of flips in a cached 64-px response's worth of bytes
  // (100,560). A second thread sends: one frame outgrows the socket buffer.
  const std::vector<std::uint8_t> big =
      encode_frame(MessageType::kSubmitResponse, pattern_bytes(100560));
  Rng rng(26);
  std::vector<std::vector<std::uint8_t>> bad_big(32, big);
  std::vector<std::string> flipped;
  for (std::vector<std::uint8_t>& bad : bad_big) {
    const int byte = rng.uniform_int(static_cast<int>(checksum_at),
                                     static_cast<int>(big.size()) - 1);
    const int bit = rng.uniform_int(0, 7);
    bad[static_cast<std::size_t>(byte)] ^= static_cast<std::uint8_t>(1u << bit);
    flipped.push_back("bit " + std::to_string(bit) + " of byte " +
                      std::to_string(byte) + " in the 100,560-byte payload");
  }
  std::thread sender([&] {
    for (const std::vector<std::uint8_t>& bad : bad_big) send_all(fds.a, bad);
  });
  for (const std::string& what : flipped) expect_mismatch(what);
  sender.join();
}

TEST_F(NetTest, PayloadBufferGrowsWithTheBytesNotTheHeaderClaim) {
  // A header may claim up to 64 MiB. The reader grows its buffer as the
  // payload arrives, so a header and a few bytes cost about one 1 MiB step
  // while the reader waits for the rest, not the claim.
  FdPair fds;
  WireWriter head;
  for (char c : kFrameMagic) head.u8(static_cast<std::uint8_t>(c));
  head.u16(kProtocolVersion);
  head.u16(static_cast<std::uint16_t>(MessageType::kSwapWeights));
  head.u32(static_cast<std::uint32_t>(kMaxPayloadBytes));
  head.u64(0);
  for (int i = 0; i < 16; ++i) head.u8(0x5A);
  send_all(fds.a, head.bytes());

  const long long rss_before = status_kb("VmRSS:");
  std::string verdict;
  std::thread reader([&] { verdict = read_verdict(fds.b); });
  long long growth = 0;
  for (int tick = 0; tick < 10; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    growth = std::max(growth, status_kb("VmRSS:") - rss_before);
  }
  fds.close_a();  // the rest never comes
  reader.join();
  EXPECT_NE(verdict.find("connection closed mid-swap-weights-payload"),
            std::string::npos)
      << verdict;
  EXPECT_LT(growth, 16 * 1024) << "RSS grew " << growth / 1024
                               << " MB while the reader waited";
}

TEST_F(NetTest, OversizedPayloadIsRejectedFromTheHeaderAlone) {
  FdPair fds;
  WireWriter header;
  for (char c : kFrameMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u16(kProtocolVersion);
  header.u16(static_cast<std::uint16_t>(MessageType::kStats));
  header.u32(static_cast<std::uint32_t>(kMaxPayloadBytes) + 1);
  header.u64(0);
  send_all(fds.a, header.bytes());
  // No payload bytes are ever sent; the reader must reject on the header.
  EXPECT_THROW((void)read_frame(fds.b, "b"), FlowException);
}

TEST_F(NetTest, FrameFailpointsThrowAsNetFaults) {
  FdPair fds;
  fail::arm("net.frame.write", fail::once());
  EXPECT_THROW(write_frame(fds.a, MessageType::kPing, {}, "a"),
               FlowException);
  write_frame(fds.a, MessageType::kPing, {}, "a");  // disarmed again
  fail::arm("net.frame.read", fail::once());
  EXPECT_THROW((void)read_frame(fds.b, "b"), FlowException);
  EXPECT_TRUE(read_frame(fds.b, "b").has_value());
}

TEST_F(NetTest, ErrorFrameCarriesStageAndMessage) {
  FdPair fds;
  send_error_frame(fds.a, "a", static_cast<int>(FlowStage::kIlt),
                   "diverged badly");
  const std::optional<Frame> frame = read_frame(fds.b, "b");
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MessageType::kError);
  WireReader r(frame->payload, "b");
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(FlowStage::kIlt));
  EXPECT_EQ(r.str(), "diverged badly");
  r.expect_end();
}

// --- consistent-hash ring ---------------------------------------------------

TEST(HashRingTest, LookupIsDeterministicAcrossInstances) {
  const std::vector<int> ports = {5001, 5002, 5003};
  HashRing a(ports, 64), b(ports, 64);
  for (std::uint64_t key = 0; key < 200; ++key)
    EXPECT_EQ(a.lookup(key * 0x9E3779B97F4A7C15ull),
              b.lookup(key * 0x9E3779B97F4A7C15ull));
}

TEST(HashRingTest, LookupNReturnsEveryPortOnceInFailoverOrder) {
  HashRing ring({5001, 5002, 5003}, 64);
  for (std::uint64_t key = 1; key < 50; ++key) {
    const std::vector<int> order = ring.lookup_n(key * 7919, 3);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], ring.lookup(key * 7919));
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{5001, 5002, 5003}));
  }
}

TEST(HashRingTest, EveryPortOwnsAShareOfTheKeySpace) {
  HashRing ring({5001, 5002, 5003}, 64);
  int hits[3] = {0, 0, 0};
  for (std::uint64_t key = 0; key < 300; ++key)
    ++hits[ring.lookup(HashRing::route_key(1, key)) - 5001];
  // With 64 replicas each shard owns roughly a third; require at least a
  // tenth to catch a degenerate ring without flaking on hash variance.
  for (int h : hits) EXPECT_GT(h, 30);
}

TEST(HashRingTest, RemovingAShardOnlyMovesItsOwnKeys) {
  // The consistent-hashing contract: dropping port 5003 must not move any
  // key that 5001 or 5002 already owned. This is exact, not statistical —
  // removing a shard's points cannot change lower_bound for keys whose
  // first >= point belonged to a surviving shard.
  HashRing full({5001, 5002, 5003}, 64);
  HashRing survivors({5001, 5002}, 64);
  int moved = 0, kept = 0;
  for (std::uint64_t key = 0; key < 500; ++key) {
    const std::uint64_t k = HashRing::route_key(7, key);
    if (full.lookup(k) == 5003) {
      ++moved;
      continue;
    }
    EXPECT_EQ(survivors.lookup(k), full.lookup(k));
    ++kept;
  }
  EXPECT_GT(moved, 0);  // the dead shard did own something
  EXPECT_GT(kept, 0);
}

TEST(HashRingTest, RouteKeySeparatesConfigAndLayout) {
  EXPECT_EQ(HashRing::route_key(1, 2), HashRing::route_key(1, 2));
  EXPECT_NE(HashRing::route_key(1, 2), HashRing::route_key(2, 1));
  EXPECT_NE(HashRing::route_key(0, 2), HashRing::route_key(1, 2));
}

// --- cache snapshot ---------------------------------------------------------

TEST_F(NetTest, SnapshotRoundTripPreservesEntriesAndOrder) {
  const std::string path = "test_net_snapshot.bin";
  cleanup_.push_back(path);
  cleanup_.push_back(path + ".tmp");
  CacheSnapshot snapshot;
  snapshot.config_fingerprint = 0xABCDULL;
  snapshot.entries.emplace_back(11, golden_result());
  core::LdmoResult second = golden_result();
  second.total_seconds = 9.0;
  snapshot.entries.emplace_back(22, second);
  save_cache_snapshot(path, snapshot);

  const std::optional<CacheSnapshot> loaded = load_cache_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config_fingerprint, 0xABCDULL);
  ASSERT_EQ(loaded->entries.size(), 2u);
  EXPECT_EQ(loaded->entries[0].first, 11u);   // LRU-first order preserved
  EXPECT_EQ(loaded->entries[1].first, 22u);
  // Bit-identical result round trip through the file.
  WireWriter a, b;
  write_result(a, snapshot.entries[1].second);
  write_result(b, loaded->entries[1].second);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST_F(NetTest, SnapshotNeverPersistsDegradedResults) {
  // The live server refuses to cache degraded results; the snapshot must
  // not resurrect them across a restart either (ISSUE-10 satellite 3).
  const std::string path = "test_net_snapshot_degraded.bin";
  cleanup_.push_back(path);
  cleanup_.push_back(path + ".tmp");
  CacheSnapshot snapshot;
  snapshot.config_fingerprint = 7;
  snapshot.entries.emplace_back(11, golden_result());
  core::LdmoResult degraded = golden_result();
  degraded.degraded = true;
  degraded.error = FlowError{FlowStage::kPredict, "predictor down"};
  snapshot.entries.emplace_back(22, degraded);
  snapshot.entries.emplace_back(33, golden_result());
  save_cache_snapshot(path, snapshot);

  const std::optional<CacheSnapshot> loaded = load_cache_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->entries.size(), 2u);  // header count matches records
  EXPECT_EQ(loaded->entries[0].first, 11u);
  EXPECT_EQ(loaded->entries[1].first, 33u);
  for (const auto& [key, result] : loaded->entries)
    EXPECT_FALSE(result.degraded);
}

TEST_F(NetTest, MissingSnapshotIsAColdStartNotAnError) {
  EXPECT_FALSE(load_cache_snapshot("no_such_snapshot.bin").has_value());
}

TEST_F(NetTest, CorruptSnapshotsThrowWithPathAttribution) {
  const std::string path = "test_net_snapshot_corrupt.bin";
  cleanup_.push_back(path);
  {  // garbage bytes
    std::ofstream out(path, std::ios::binary);
    out << "this is not a snapshot";
  }
  EXPECT_THROW((void)load_cache_snapshot(path), FlowException);

  {  // valid snapshot, then truncated mid-entry
    CacheSnapshot snapshot;
    snapshot.config_fingerprint = 1;
    snapshot.entries.emplace_back(5, golden_result());
    save_cache_snapshot(path, snapshot);
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 40u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  try {
    (void)load_cache_snapshot(path);
    FAIL() << "truncated snapshot did not throw";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kNet);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST_F(NetTest, SnapshotEntryCountIsBoundedByTheBytesLeft) {
  // Bytes 14..17 hold the u32 entry count, 17 its high byte: a flipped bit
  // there asks for tens of millions of entries the file cannot hold. That
  // must be a decode error naming the path, not an allocation failure.
  const std::string path = "test_net_snapshot_count.bin";
  cleanup_.push_back(path);
  CacheSnapshot snapshot;
  snapshot.config_fingerprint = 3;
  snapshot.entries.emplace_back(11, golden_result());
  snapshot.entries.emplace_back(22, golden_result());
  save_cache_snapshot(path, snapshot);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(bytes[14], 2);
  for (int bit = 2; bit < 8; ++bit) {
    std::vector<char> flipped = bytes;
    flipped[17] = static_cast<char>(flipped[17] ^ (1 << bit));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    try {
      (void)load_cache_snapshot(path);
      ADD_FAILURE() << "count bit " << bit + 24 << " flipped: loaded";
    } catch (const FlowException& e) {
      EXPECT_EQ(e.stage(), FlowStage::kNet);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "count bit " << bit + 24 << " flipped: " << e.what();
    }
  }
}

TEST_F(NetTest, SnapshotThatDoesNotLoadStartsTheWorkerCold) {
  const std::string path = "test_net_snapshot_garbage.bin";
  cleanup_.push_back(path);
  cleanup_.push_back(path + ".tmp");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a snapshot";
  }
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.snapshot_path = path;
  std::unique_ptr<ServeDaemon> daemon;
  EXPECT_NO_THROW(daemon = std::make_unique<ServeDaemon>(dcfg));
  ASSERT_NE(daemon, nullptr);
  EXPECT_EQ(daemon->restored_entries(), 0u);
  Client client(ClientConfig{.port = daemon->port()});
  serve::ServeRequest request;
  request.layout = generated_layout(309);
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
}

TEST_F(NetTest, FailedSnapshotSaveKeepsTheWorkerAndThePreviousSnapshot) {
  const std::string path = "test_net_snapshot_kept.bin";
  const std::string blocker = path + ".tmp";
  cleanup_.push_back(path);
  cleanup_.push_back(blocker);
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.snapshot_path = path;
  serve::ServeRequest first;
  first.layout = generated_layout(310);
  {
    ServeDaemon daemon(dcfg);
    Client client(ClientConfig{.port = daemon.port()});
    ASSERT_EQ(client.submit(first).status, serve::ServeStatus::kOk);
  }  // stop() writes a 1-entry snapshot
  const std::optional<CacheSnapshot> saved = load_cache_snapshot(path);
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->entries.size(), 1u);

  // A directory where the save's tmp file goes makes the next save fail.
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  {
    ServeDaemon daemon(dcfg);
    EXPECT_EQ(daemon.restored_entries(), 1u);
    Client client(ClientConfig{.port = daemon.port()});
    serve::ServeRequest second;
    second.layout = generated_layout(311);
    ASSERT_EQ(client.submit(second).status, serve::ServeStatus::kOk);
    EXPECT_NO_THROW(daemon.stop());
  }
  const std::optional<CacheSnapshot> kept = load_cache_snapshot(path);
  ASSERT_TRUE(kept.has_value());
  ASSERT_EQ(kept->entries.size(), 1u);
  EXPECT_EQ(kept->entries[0].first, saved->entries[0].first);
}

// --- daemon + client loopback ----------------------------------------------

TEST_F(NetTest, DaemonServesBitIdenticalToDirectServer) {
  const layout::Layout layout = generated_layout(301);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  serve::ServeRequest request;
  request.layout = layout;
  const serve::ServeResponse over_wire = client.submit(request);
  ASSERT_EQ(over_wire.status, serve::ServeStatus::kOk);

  serve::Server direct(fast_serve_config());
  serve::ServeRequest again;
  again.layout = layout;
  const serve::ServeResponse local = direct.submit(std::move(again))
                                         .response.get();
  ASSERT_EQ(local.status, serve::ServeStatus::kOk);

  // The serving determinism contract extends across the wire: the decoded
  // result is bit-identical (masks, scores, report — everything but the
  // measured timings) to a local run.
  EXPECT_EQ(deterministic_result_bytes(over_wire.result),
            deterministic_result_bytes(local.result));
  EXPECT_EQ(over_wire.cache_key, local.cache_key);
}

TEST_F(NetTest, RepeatSubmitHitsTheWorkerCache) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  serve::ServeRequest request;
  request.layout = generated_layout(302);
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  const serve::ServeResponse cached = client.submit(request);
  EXPECT_EQ(cached.status, serve::ServeStatus::kCached);
}

TEST_F(NetTest, PingAndStatsReportWorkerIdentity) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  EXPECT_TRUE(client.ping());
  const WorkerStats stats = client.stats();
  const std::shared_ptr<serve::Server> server = daemon.server();
  EXPECT_EQ(stats.config_fingerprint, server->config_fingerprint());
  EXPECT_EQ(stats.predictor, server->predictor_name());
  EXPECT_EQ(stats.weights_version, 0u);
}

TEST_F(NetTest, EmptyBlobSwapKeepsTheWarmCache) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  serve::ServeRequest request;
  request.layout = generated_layout(303);
  ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  const std::uint64_t fp_before = client.stats().config_fingerprint;

  // Rolling restart: an empty blob keeps the current weights, so the ack
  // reports the version that stays active (0 — nothing was ever pushed).
  const long long swaps_before = obs::counter("net.daemon.swaps").value();
  EXPECT_EQ(client.swap_weights(5, {}), 0u);
  EXPECT_EQ(daemon.weights_version(), 0u);
  EXPECT_EQ(obs::counter("net.daemon.swaps").value(), swaps_before + 1);

  // Identity unchanged -> the swap left the cache alone.
  EXPECT_EQ(client.stats().config_fingerprint, fp_before);
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kCached);
}

TEST_F(NetTest, RealWeightSwapChangesIdentityAndRetiresTheCache) {
  const std::string staging = "test_net_swap_weights.bin";
  cleanup_.push_back(staging);
  const std::vector<std::uint8_t> blob = fresh_weights_blob(staging);
  ASSERT_FALSE(blob.empty());

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  serve::ServeRequest request;
  request.layout = generated_layout(306);
  ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  const std::uint64_t fp_before = client.stats().config_fingerprint;

  EXPECT_EQ(client.swap_weights(5, blob), 5u);
  EXPECT_EQ(daemon.weights_version(), 5u);
  const WorkerStats stats = client.stats();
  // The version rides in the predictor name, so the fingerprint — and with
  // it every cache key — changed: stale results are unreachable, not wrong.
  EXPECT_EQ(stats.predictor, "cnn@v5");
  EXPECT_NE(stats.config_fingerprint, fp_before);
  EXPECT_EQ(stats.cache_entries, 0u);  // an identity change empties it
}

/// Serialized MaskNet weights (the serving-tier 32px grid by default) — a
/// warm-start blob for the swap verb's optional warm section.
std::vector<std::uint8_t> fresh_warm_blob(const std::string& path,
                                          int grid_size = 32) {
  warmstart::MaskNetConfig cfg;
  cfg.grid_size = grid_size;
  warmstart::MaskWarmStart warm(cfg);
  warm.save(path);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST_F(NetTest, WarmStartSwapRetiresWarmStartDependentCacheKeys) {
  // Regression test for the swap bug: handle_swap used to replace only the
  // predictor, leaving the worker on its old warm-start MaskNet after a
  // weight push. The warm blob must flow through the same versioned-
  // fingerprint path, so warm-start-dependent cache keys retire.
  const std::string staging = "test_net_warm_swap.bin";
  cleanup_.push_back(staging);
  const std::vector<std::uint8_t> warm_blob = fresh_warm_blob(staging);
  ASSERT_FALSE(warm_blob.empty());

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.warm_net.grid_size = 32;
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  serve::ServeRequest request;
  request.layout = generated_layout(307);
  ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kCached);
  const std::uint64_t fp_before = client.stats().config_fingerprint;

  // Push ONLY warm-start weights (empty CNN blob = keep current weights).
  // The weights version stays 0, but the warm model's weight fingerprint
  // feeds the config fingerprint — the cache cannot be handed across.
  EXPECT_EQ(client.swap_weights(0, {}, warm_blob), 0u);
  const WorkerStats stats = client.stats();
  EXPECT_NE(stats.config_fingerprint, fp_before);
  EXPECT_EQ(stats.cache_entries, 0u);
  const std::shared_ptr<serve::Server> server = daemon.server();
  ASSERT_NE(server->config().warm_start, nullptr);
  EXPECT_TRUE(server->config().engine.flow.warm_start.enabled);
  EXPECT_NE(server->config().warm_start->version(), 0u);

  // The old cached result is unreachable; the warm-started run recomputes
  // and re-caches under the new fingerprint.
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kCached);
}

TEST_F(NetTest, CombinedCnnAndWarmSwapCarriesBothModels) {
  const std::string cnn_staging = "test_net_combined_cnn.bin";
  const std::string warm_staging = "test_net_combined_warm.bin";
  cleanup_.push_back(cnn_staging);
  cleanup_.push_back(warm_staging);
  const std::vector<std::uint8_t> cnn_blob = fresh_weights_blob(cnn_staging);
  const std::vector<std::uint8_t> warm_blob = fresh_warm_blob(warm_staging);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.warm_net.grid_size = 32;
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});

  EXPECT_EQ(client.swap_weights(6, cnn_blob, warm_blob), 6u);
  EXPECT_EQ(daemon.weights_version(), 6u);
  const WorkerStats stats = client.stats();
  EXPECT_EQ(stats.predictor, "cnn@v6");
  const std::shared_ptr<serve::Server> server = daemon.server();
  ASSERT_NE(server->config().warm_start, nullptr);
  EXPECT_EQ(server->config().warm_start->name(), "masknet");

  // The worker serves (warm-start seeded, CNN ranked) after the swap.
  serve::ServeRequest request;
  request.layout = generated_layout(308);
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
}

TEST_F(NetTest, RefusedSwapLeavesTheDaemonUnchanged) {
  const std::string cnn_staging = "test_net_refused_cnn.bin";
  const std::string warm_staging = "test_net_refused_warm.bin";
  cleanup_.push_back(cnn_staging);
  cleanup_.push_back(warm_staging);
  const std::vector<std::uint8_t> cnn_blob = fresh_weights_blob(cnn_staging);
  // A 16px MaskNet: its weights decode, but the 32px server refuses them.
  const std::vector<std::uint8_t> warm_blob =
      fresh_warm_blob(warm_staging, 16);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.warm_net.grid_size = 16;
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  serve::ServeRequest request;
  request.layout = generated_layout(309);
  ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  const WorkerStats before = client.stats();

  // A truncated CNN blob fails to decode.
  const std::vector<std::uint8_t> truncated(cnn_blob.begin(),
                                            cnn_blob.end() - 9);
  EXPECT_THROW((void)client.swap_weights(4, truncated), FlowException);
  // A valid CNN blob travelling with a refused warm blob installs neither.
  EXPECT_THROW((void)client.swap_weights(4, cnn_blob, warm_blob),
               FlowException);

  const WorkerStats after = client.stats();
  EXPECT_EQ(after.predictor, before.predictor);
  EXPECT_EQ(after.config_fingerprint, before.config_fingerprint);
  EXPECT_EQ(daemon.weights_version(), 0u);
  EXPECT_EQ(daemon.server()->config().warm_start, nullptr);
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kCached);
  EXPECT_EQ(client.swap_weights(0, {}), 0u);
}

TEST_F(NetTest, SwapsUnderLoadLoseNothing) {
  const std::string cnn_staging = "test_net_load_cnn.bin";
  const std::string warm_staging = "test_net_load_warm.bin";
  cleanup_.push_back(cnn_staging);
  cleanup_.push_back(warm_staging);
  const std::vector<std::uint8_t> cnn_blob = fresh_weights_blob(cnn_staging);
  const std::vector<std::uint8_t> warm_blob = fresh_warm_blob(warm_staging);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.warm_net.grid_size = 32;
  ServeDaemon daemon(dcfg);
  const std::shared_ptr<serve::Server> server = daemon.server();
  constexpr std::uint64_t kCachedSeeds = 4;
  {
    Client client(ClientConfig{.port = daemon.port()});
    for (std::uint64_t seed = 500; seed < 500 + kCachedSeeds; ++seed) {
      serve::ServeRequest request;
      request.layout = generated_layout(seed);
      ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
    }
  }

  // Clients alternate cached and new layouts without pause while the
  // swaps run; the dispatchers are never idle.
  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> lost{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Client client(ClientConfig{.port = daemon.port()});
      for (std::uint64_t i = 0; !stop.load(); ++i) {
        serve::ServeRequest request;
        request.layout = generated_layout(
            i % 2 == 0 ? 500 + (i / 2) % kCachedSeeds
                       : 600 + 1000 * static_cast<std::uint64_t>(c) + i);
        try {
          const serve::ServeStatus status = client.submit(request).status;
          if (status == serve::ServeStatus::kOk ||
              status == serve::ServeStatus::kCached)
            served.fetch_add(1);
          else
            lost.fetch_add(1);
        } catch (const FlowException&) {
          lost.fetch_add(1);
        }
      }
    });
  const auto wait_for_traffic = [&] {
    const int target = served.load() + kClients;
    while (served.load() < target && lost.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };

  Client admin(ClientConfig{.port = daemon.port()});
  const auto timed_swap = [&](std::uint64_t version,
                              const std::vector<std::uint8_t>& cnn,
                              const std::vector<std::uint8_t>& warm) {
    wait_for_traffic();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t active = admin.swap_weights(version, cnn, warm);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 10.0) << "swap starved under load";
    EXPECT_EQ(daemon.server(), server);
    return active;
  };
  EXPECT_EQ(timed_swap(8, cnn_blob, {}), 8u);        // CNN
  EXPECT_EQ(timed_swap(0, {}, warm_blob), 8u);       // warm-only
  EXPECT_EQ(timed_swap(0, {}, {}), 8u);              // empty
  wait_for_traffic();
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(lost.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(server->status_count(serve::ServeStatus::kRejected), 0);
  EXPECT_EQ(server->status_count(serve::ServeStatus::kFailed), 0);
  EXPECT_EQ(server->predictor_name(), "cnn@v8");
  EXPECT_TRUE(server->config().engine.flow.warm_start.enabled);
}

TEST_F(NetTest, DaemonRestartRestoresCacheFromSnapshot) {
  const std::string path = "test_net_daemon_snapshot.bin";
  cleanup_.push_back(path);
  cleanup_.push_back(path + ".tmp");
  const layout::Layout layout = generated_layout(304);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.snapshot_path = path;
  {
    ServeDaemon daemon(dcfg);
    Client client(ClientConfig{.port = daemon.port()});
    serve::ServeRequest request;
    request.layout = layout;
    ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  }  // stop() writes the snapshot

  ServeDaemon reborn(dcfg);
  EXPECT_GE(reborn.restored_entries(), 1u);
  Client client(ClientConfig{.port = reborn.port()});
  serve::ServeRequest request;
  request.layout = layout;
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kCached);
}

TEST_F(NetTest, RestartWithOtherWeightsDropsTheSnapshot) {
  // Every boot model is named "cnn@v0", so only the weights' content in
  // the fingerprint tells a restart on other weights from a plain restart.
  const std::string weights = "test_net_restart_weights.bin";
  const std::string path = "test_net_restart_snapshot.bin";
  cleanup_.push_back(weights);
  cleanup_.push_back(path);
  cleanup_.push_back(path + ".tmp");
  const auto save_weights = [&](std::uint64_t seed) {
    nn::ResNetConfig net;
    net.seed = seed;
    nn::ResNetRegressor model(net);
    nn::save_parameters(model.parameters(), weights);
  };
  serve::ServeRequest request;
  request.layout = generated_layout(308);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.weights_path = weights;
  dcfg.snapshot_path = path;
  save_weights(1);
  std::uint64_t first_fp = 0;
  {
    ServeDaemon daemon(dcfg);
    first_fp = daemon.server()->config_fingerprint();
    Client client(ClientConfig{.port = daemon.port()});
    ASSERT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  }  // stop() writes the snapshot

  save_weights(2);
  {
    ServeDaemon other(dcfg);
    EXPECT_EQ(other.server()->predictor_name(), "cnn@v0");
    EXPECT_NE(other.server()->config_fingerprint(), first_fp);
    EXPECT_EQ(other.restored_entries(), 0u);
    Client client(ClientConfig{.port = other.port()});
    EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kOk);
  }

  // The same weights again: the snapshot the second daemon wrote fits.
  ServeDaemon same(dcfg);
  EXPECT_GE(same.restored_entries(), 1u);
  Client client(ClientConfig{.port = same.port()});
  EXPECT_EQ(client.submit(request).status, serve::ServeStatus::kCached);
}

TEST_F(NetTest, ClientRetriesAbsorbAnInjectedFrameFault) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  const long long retries_before =
      obs::counter("net.client.retries").value();

  fail::arm("net.frame.write", fail::once());
  serve::ServeRequest request;
  request.layout = generated_layout(305);
  const serve::ServeResponse response = client.submit(request);
  EXPECT_TRUE(response.ok());
  EXPECT_GE(obs::counter("net.client.retries").value(), retries_before + 1);
}

TEST_F(NetTest, ConnectRetriesAbsorbAnInjectedConnectFault) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Client client(ClientConfig{.port = daemon.port()});
  fail::arm("net.connect", fail::once());
  EXPECT_TRUE(client.ping());  // second connect attempt succeeds
}

TEST_F(NetTest, ExhaustedRetriesSurfaceTheTransportFault) {
  // No daemon on this port: grab one ephemerally and release it.
  int dead_port;
  {
    TcpListener probe(0);
    dead_port = probe.port();
  }
  Client client(ClientConfig{
      .port = dead_port, .connect_attempts = 2,
      .connect_retry_seconds = 0.01, .net_retries = 1});
  serve::ServeRequest request;
  request.layout = golden_layout();
  try {
    (void)client.submit(request);
    FAIL() << "submit to a dead port did not throw";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kNet);
    EXPECT_NE(std::string(e.what())
                  .find("127.0.0.1:" + std::to_string(dead_port)),
              std::string::npos);
  }
}

TEST_F(NetTest, UnexpectedFrameTypeGetsAnErrorAnswer) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  Socket sock = connect_loopback(daemon.port(), 10.0, 20);
  // A daemon never expects a kPong out of the blue.
  write_frame(sock.fd(), MessageType::kPong, {}, "test");
  const std::optional<Frame> answer = read_frame(sock.fd(), "test");
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->type, MessageType::kError);
}

/// Sends payloads that pass their checksum but do not decode, on one raw
/// connection to `port`. Each must get a kError frame naming the decode
/// error, and a ping after them a kPong: the connection stays open.
void expect_decode_errors_answered(int port) {
  WireWriter submit;
  write_request(submit, serve::ServeRequest{golden_layout()});
  std::vector<std::uint8_t> truncated_submit = submit.take();
  truncated_submit.resize(truncated_submit.size() / 2);
  WireWriter swap;
  write_weight_swap(swap, WeightSwap{3, {0xAA, 0xBB, 0xCC}, {}});
  std::vector<std::uint8_t> truncated_swap = swap.take();
  truncated_swap.pop_back();

  Socket sock = connect_loopback(port, 10.0, 20);
  for (const auto& [type, payload] :
       {std::pair{MessageType::kSubmitRequest, truncated_submit},
        std::pair{MessageType::kSwapWeights, truncated_swap}}) {
    SCOPED_TRACE(message_type_name(type));
    write_frame(sock.fd(), type, payload, "test");
    const std::optional<Frame> answer = read_frame(sock.fd(), "test");
    ASSERT_TRUE(answer.has_value());
    ASSERT_EQ(answer->type, MessageType::kError);
    WireReader r(answer->payload, "test");
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(FlowStage::kNet));
    const std::string message = r.str();
    EXPECT_NE(message.find("wire decode"), std::string::npos) << message;
    EXPECT_NE(message.find("127.0.0.1:"), std::string::npos) << message;
    EXPECT_NE(message.find("at byte"), std::string::npos) << message;
  }
  write_frame(sock.fd(), MessageType::kPing, {}, "test");
  const std::optional<Frame> pong = read_frame(sock.fd(), "test");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, MessageType::kPong);
}

TEST_F(NetTest, MalformedPayloadGetsAnErrorAndKeepsTheConnection) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  {
    SCOPED_TRACE("daemon");
    expect_decode_errors_answered(daemon.port());
  }
  RouterConfig rcfg;
  rcfg.worker_ports = {daemon.port()};
  Router router(rcfg);
  {
    SCOPED_TRACE("router");
    expect_decode_errors_answered(router.port());
  }
  EXPECT_EQ(daemon.weights_version(), 0u);
}

// --- router -----------------------------------------------------------------

TEST_F(NetTest, RouterSpreadsRequestsAndSurvivesAWorkerKill) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  auto worker_a = std::make_unique<ServeDaemon>(dcfg);
  auto worker_b = std::make_unique<ServeDaemon>(dcfg);
  const int port_a = worker_a->port();
  const int port_b = worker_b->port();

  RouterConfig rcfg;
  rcfg.worker_ports = {port_a, port_b};
  Router router(rcfg);
  Client client(ClientConfig{.port = router.port()});

  const std::uint64_t config_fp = client.stats().config_fingerprint;
  ASSERT_NE(config_fp, 0u);

  // Find seeds that route to each shard, so both assertions below are
  // deterministic for whatever ephemeral ports this run drew.
  HashRing ring({port_a, port_b}, rcfg.ring_replicas);
  std::uint64_t seed_a = 0, seed_b = 0;
  for (std::uint64_t seed = 400; seed_a == 0 || seed_b == 0; ++seed) {
    const layout::Layout layout = generated_layout(seed);
    const int target = ring.lookup(
        HashRing::route_key(config_fp, layout::fingerprint(layout)));
    if (target == port_a && seed_a == 0) seed_a = seed;
    if (target == port_b && seed_b == 0) seed_b = seed;
  }

  const auto forwarded = [](int port) {
    return obs::counter("net.router.shard." + std::to_string(port) +
                        ".forwarded")
        .value();
  };
  const long long a_before = forwarded(port_a);
  const long long b_before = forwarded(port_b);

  serve::ServeRequest to_a, to_b;
  to_a.layout = generated_layout(seed_a);
  to_b.layout = generated_layout(seed_b);
  EXPECT_TRUE(client.submit(to_a).ok());
  EXPECT_TRUE(client.submit(to_b).ok());
  EXPECT_EQ(forwarded(port_a), a_before + 1);
  EXPECT_EQ(forwarded(port_b), b_before + 1);

  // Kill the shard that owns seed_a; the router must fail the request over
  // to the survivor — zero lost requests.
  const long long failovers_before =
      obs::counter("net.router.failovers").value();
  worker_a->stop();
  worker_a.reset();
  serve::ServeRequest again;
  again.layout = generated_layout(seed_a);
  const serve::ServeResponse response = client.submit(again);
  EXPECT_TRUE(response.ok());
  EXPECT_GE(obs::counter("net.router.failovers").value(),
            failovers_before + 1);
  EXPECT_EQ(forwarded(port_a), a_before + 1);  // dead shard got nothing new
}

/// A worker that answers every submit with a kSubmitResponse frame whose
/// checksum is valid but whose payload is cut short, and closes the
/// connection on any other frame.
class TruncatingWorker {
 public:
  TruncatingWorker() : thread_([this] { serve(); }) {}
  ~TruncatingWorker() {
    stop_.store(true);
    thread_.join();
  }
  TruncatingWorker(const TruncatingWorker&) = delete;
  TruncatingWorker& operator=(const TruncatingWorker&) = delete;
  int port() const { return listener_.port(); }
  int submits() const { return submits_.load(); }

 private:
  void serve() {
    while (!stop_.load()) {
      Socket sock = listener_.try_accept();
      if (!sock.valid()) continue;  // a poll tick passed: recheck stop_
      sock.set_timeout(10.0);
      try {
        while (std::optional<Frame> frame = read_frame(sock.fd(), "stub")) {
          if (frame->type != MessageType::kSubmitRequest) break;
          ++submits_;
          WireWriter w;
          write_response(w, golden_response());
          std::vector<std::uint8_t> payload = w.take();
          payload.erase(payload.end() - 8, payload.end());
          write_frame(sock.fd(), MessageType::kSubmitResponse, payload,
                      "stub");
        }
      } catch (const FlowException&) {
        // The router hung up mid-frame; take the next connection.
      }
    }
  }

  TcpListener listener_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> submits_{0};
  std::thread thread_;
};

TEST_F(NetTest, RouterFailsOverOnAReplyThatDoesNotDecode) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon healthy(dcfg);
  TruncatingWorker stub;

  RouterConfig rcfg;
  // The healthy shard first: the router learns the config fingerprint
  // from the first worker that answers a stats query.
  rcfg.worker_ports = {healthy.port(), stub.port()};
  Router router(rcfg);
  Client client(ClientConfig{.port = router.port()});
  const std::uint64_t config_fp = client.stats().config_fingerprint;
  ASSERT_EQ(config_fp, healthy.server()->config_fingerprint());

  HashRing ring(rcfg.worker_ports, rcfg.ring_replicas);
  std::uint64_t seed = 500;
  while (ring.lookup(HashRing::route_key(
             config_fp, layout::fingerprint(generated_layout(seed)))) !=
         stub.port())
    ++seed;

  const long long failovers_before =
      obs::counter("net.router.failovers").value();
  serve::ServeRequest request;
  request.layout = generated_layout(seed);
  const serve::ServeResponse response = client.submit(request);
  EXPECT_EQ(response.status, serve::ServeStatus::kOk);
  EXPECT_GE(stub.submits(), 1);
  EXPECT_EQ(obs::counter("net.router.failovers").value(),
            failovers_before + 1);

  // The result is the healthy worker's own.
  Client direct(ClientConfig{.port = healthy.port()});
  const serve::ServeResponse cached = direct.submit(request);
  EXPECT_EQ(cached.status, serve::ServeStatus::kCached);
  EXPECT_EQ(deterministic_result_bytes(cached.result),
            deterministic_result_bytes(response.result));
}

TEST_F(NetTest, RouterWithAllWorkersDownAnswersWithAnError) {
  int dead_port;
  {
    TcpListener probe(0);
    dead_port = probe.port();
  }
  RouterConfig rcfg;
  rcfg.worker_ports = {dead_port};
  rcfg.worker_net_retries = 0;
  Router router(rcfg);
  Client client(
      ClientConfig{.port = router.port(), .net_retries = 0});
  serve::ServeRequest request;
  request.layout = golden_layout();
  const long long exhausted_before =
      obs::counter("net.router.exhausted").value();
  EXPECT_THROW((void)client.submit(request), FlowException);
  EXPECT_EQ(obs::counter("net.router.exhausted").value(),
            exhausted_before + 1);
}

TEST_F(NetTest, RouterBroadcastsWeightSwaps) {
  const std::string staging = "test_net_router_swap_weights.bin";
  cleanup_.push_back(staging);
  const std::vector<std::uint8_t> blob = fresh_weights_blob(staging);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon worker_a(dcfg), worker_b(dcfg);
  RouterConfig rcfg;
  rcfg.worker_ports = {worker_a.port(), worker_b.port()};
  Router router(rcfg);
  Client client(ClientConfig{.port = router.port()});
  EXPECT_EQ(client.swap_weights(9, blob), 9u);
  EXPECT_EQ(worker_a.weights_version(), 9u);
  EXPECT_EQ(worker_b.weights_version(), 9u);
}

TEST_F(NetTest, RouterBroadcastsWarmStartSwaps) {
  const std::string cnn_staging = "test_net_router_warm_cnn.bin";
  const std::string warm_staging = "test_net_router_warm.bin";
  cleanup_.push_back(cnn_staging);
  cleanup_.push_back(warm_staging);
  const std::vector<std::uint8_t> cnn_blob = fresh_weights_blob(cnn_staging);
  const std::vector<std::uint8_t> warm_blob = fresh_warm_blob(warm_staging);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.warm_net.grid_size = 32;
  DaemonConfig refusing_cfg = dcfg;
  refusing_cfg.warm_net.grid_size = 16;  // cannot take a 32px MaskNet
  ServeDaemon refusing(refusing_cfg), worker_a(dcfg), worker_b(dcfg);
  RouterConfig rcfg;
  // The refusing shard comes first: it must not stop the broadcast.
  rcfg.worker_ports = {refusing.port(), worker_a.port(), worker_b.port()};
  Router router(rcfg);
  const auto shard_errors = [](int port) {
    return obs::counter("net.router.shard." + std::to_string(port) +
                        ".errors")
        .value();
  };

  // A malformed payload is a decode error at the router, answered with a
  // kError frame; no shard sees it.
  const long long errors_before = shard_errors(worker_a.port());
  {
    WireWriter w;
    w.u64(3).u32(1000);  // CNN section announces 1000 absent bytes
    Socket sock = connect_loopback(router.port(), 10.0, 20);
    write_frame(sock.fd(), MessageType::kSwapWeights, w.bytes(), "test");
    const std::optional<Frame> answer = read_frame(sock.fd(), "test");
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->type, MessageType::kError);
  }
  EXPECT_EQ(shard_errors(worker_a.port()), errors_before);
  EXPECT_EQ(worker_a.weights_version(), 0u);

  Client client(ClientConfig{.port = router.port()});
  try {
    (void)client.swap_weights(7, cnn_blob, warm_blob);
    FAIL() << "a refusing shard must fail the broadcast's reply";
  } catch (const FlowException& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(endpoint_name(refusing.port())),
              std::string::npos);
    EXPECT_EQ(message.find(endpoint_name(worker_a.port())),
              std::string::npos);
  }
  EXPECT_EQ(refusing.weights_version(), 0u);
  EXPECT_EQ(refusing.server()->config().warm_start, nullptr);
  for (ServeDaemon* worker : {&worker_a, &worker_b}) {
    EXPECT_EQ(worker->weights_version(), 7u);
    const std::shared_ptr<serve::Server> server = worker->server();
    EXPECT_EQ(server->predictor_name(), "cnn@v7");
    ASSERT_NE(server->config().warm_start, nullptr);
    EXPECT_TRUE(server->config().engine.flow.warm_start.enabled);
  }
}

TEST_F(NetTest, RouterStatsCarryTheWarmStartVersion) {
  const std::string cnn_staging = "test_net_router_stats_cnn.bin";
  const std::string warm_staging = "test_net_router_stats_warm.bin";
  cleanup_.push_back(cnn_staging);
  cleanup_.push_back(warm_staging);
  const std::vector<std::uint8_t> cnn_blob = fresh_weights_blob(cnn_staging);
  const std::vector<std::uint8_t> warm_blob = fresh_warm_blob(warm_staging);

  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  dcfg.warm_net.grid_size = 32;
  ServeDaemon worker_a(dcfg), worker_b(dcfg);
  RouterConfig rcfg;
  rcfg.worker_ports = {worker_a.port(), worker_b.port()};
  Router router(rcfg);
  Client client(ClientConfig{.port = router.port()});
  ASSERT_EQ(client.swap_weights(4, cnn_blob), 4u);
  const WorkerStats before = client.stats();
  EXPECT_EQ(before.weights_version, 4u);
  EXPECT_EQ(before.warm_start_version, 0u);

  // A warm-only push: the CNN and its version stay, and the stats name
  // the MaskNet the workers now run.
  EXPECT_EQ(client.swap_weights(0, {}, warm_blob), 4u);
  const WorkerStats after = client.stats();
  EXPECT_EQ(after.weights_version, 4u);
  EXPECT_EQ(after.predictor, "cnn@v4");
  EXPECT_NE(after.warm_start_version, 0u);
  EXPECT_NE(after.config_fingerprint, before.config_fingerprint);
  for (ServeDaemon* worker : {&worker_a, &worker_b}) {
    const std::shared_ptr<serve::Server> server = worker->server();
    ASSERT_NE(server->config().warm_start, nullptr);
    EXPECT_EQ(server->warm_start_version(),
              server->config().warm_start->version());
    EXPECT_EQ(server->warm_start_version(), after.warm_start_version);
  }
}

// --- server-less admin endpoint (the router's scrape target) ----------------

TEST_F(NetTest, ServerlessAdminServesRegistryBackedEndpoints) {
  obs::counter("net.frame.writes").inc();  // ensure the family exists
  serve::AdminConfig cfg;
  cfg.enabled = true;
  serve::AdminServer admin(cfg, "router");
  ASSERT_GT(admin.port(), 0);

  const serve::HttpResponse health = serve::http_get(admin.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("router"), std::string::npos);

  const serve::HttpResponse varz = serve::http_get(admin.port(), "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("net.frame.writes"), std::string::npos);

  const serve::HttpResponse metrics =
      serve::http_get(admin.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_FALSE(metrics.body.empty());
}

// --- connection threads: a closed connection holds no thread ---------------

/// Thread stacks this process holds: glibc maps each thread's stack with a
/// one-page PROT_NONE guard below it and unmaps it when the thread is
/// joined (keeping a few for reuse), so each guard page mapped in
/// /proc/self/maps is a stack held. A finished thread that nobody joins
/// keeps its stack, and its guard, until the process ends.
long long guard_pages() {
  std::ifstream maps("/proc/self/maps");
  const unsigned long long page = static_cast<unsigned long long>(
      ::sysconf(_SC_PAGESIZE));
  long long guards = 0;
  for (std::string line; std::getline(maps, line);) {
    unsigned long long lo = 0, hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%llx-%llx %4s", &lo, &hi, perms) == 3 &&
        hi - lo == page && std::string(perms) == "---p")
      ++guards;
  }
  return guards;
}

/// Opens `count` connections to `port` one after another; each pings once
/// and is closed.
void ping_and_close(int port, int count) {
  for (int i = 0; i < count; ++i) {
    Client client(ClientConfig{.port = port});
    ASSERT_TRUE(client.ping());
  }
}

TEST(ConnectionThreads, ClosedConnectionsReleaseTheirThreads) {
  DaemonConfig dcfg;
  dcfg.serve = fast_serve_config();
  ServeDaemon daemon(dcfg);
  RouterConfig rcfg;
  rcfg.worker_ports = {daemon.port()};
  Router router(rcfg);

  // A few connections first, so that the stacks glibc caches for reuse
  // exist before the baseline.
  ping_and_close(daemon.port(), 8);
  ping_and_close(router.port(), 8);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const long long guards_before = guard_pages();
  const long long vm_before = status_kb("VmSize:");

  constexpr int kConnections = 64;
  ping_and_close(daemon.port(), kConnections);
  ping_and_close(router.port(), kConnections);

  // A finished connection thread is joined within one poll tick (100 ms).
  // Kept threads would hold one stack per connection, 128 here; the bound
  // leaves room for threads still finishing and stacks in glibc's cache.
  constexpr long long kBound = kConnections / 4;
  long long growth = 0;
  for (int tick = 0; tick < 50; ++tick) {
    growth = guard_pages() - guards_before;
    if (growth <= kBound) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_LE(growth, kBound)
      << "after " << 2 * kConnections << " closed connections: " << growth
      << " more thread stacks held, VmSize +"
      << (status_kb("VmSize:") - vm_before) / 1024 << " MB";
}

TEST(ConnectionThreads, SilentAdminConnectionDoesNotBlockScrapes) {
  serve::AdminConfig cfg;
  cfg.enabled = true;
  serve::AdminServer admin(cfg, "router");
  // A client that connects and sends nothing holds its connection's thread
  // until the 2 s read timeout; a scrape behind it must not wait for that.
  Socket silent = connect_loopback(admin.port());
  serve::HttpResponse health;
  EXPECT_NO_THROW(health = serve::http_get(admin.port(), "/healthz", 1.0));
  EXPECT_EQ(health.status, 200);
}

}  // namespace
}  // namespace ldmo::net
