// The four on-disk formats, pinned and fuzzed, and the wire fuzzed:
//
//   - byte pins: a small weights file, a 2-record warm-start corpus, a
//     2-record flywheel log and a 2-entry cache snapshot, each built from
//     literals, hash to the FNV-1a digests the formats had before they were
//     moved onto common/record_file — the files stay byte-identical;
//   - a seeded mutation sweep over exactly those files (truncations and
//     bit flips over each header and first record): every input either
//     loads or throws ldmo::Error (FlowException included), and a rejected
//     weight load leaves the parameters untouched;
//   - the same for the wire (WireFuzz): truncations, bit flips and inflated
//     length fields of one valid encoding of each payload a peer decodes,
//     fed straight to its decoder, and of a frame through read_frame on a
//     socketpair. Every input either decodes or throws a FlowException
//     (DecodeError included); nothing else escapes.
//
// The whole binary carries the "fuzz" label: ctest -L fuzz.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/record_file.h"
#include "common/rng.h"
#include "flywheel/log.h"
#include "net/frame.h"
#include "net/snapshot.h"
#include "net/wire.h"
#include "nn/serialize.h"
#include "warmstart/corpus.h"

namespace ldmo {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ldmo_formats_" + name;
}

std::uint64_t file_digest(const std::string& path) {
  const std::vector<std::uint8_t> bytes = common::read_file(path);
  return common::fnv1a(bytes.data(), bytes.size());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  // A fresh file, not a truncated one: ext4 flushes a file rewritten in
  // place on close, which would make the sweep wait on the disk.
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Two parameters, 7 floats: [3] and [2, 2].
struct SmallWeights {
  nn::Parameter a{{3}};
  nn::Parameter b{{2, 2}};
  std::vector<nn::Parameter*> list() { return {&a, &b}; }
};

std::string write_weights() {
  const std::string path = temp_path("small.weights");
  SmallWeights w;
  for (int i = 0; i < 3; ++i)
    w.a.value.data()[i] = 0.25f * static_cast<float>(i) - 0.5f;
  for (int i = 0; i < 4; ++i)
    w.b.value.data()[i] = 1.5f + static_cast<float>(i);
  nn::save_parameters(w.list(), path);
  return path;
}

warmstart::ClipRecord corpus_record(int grid, float base) {
  const std::size_t n = static_cast<std::size_t>(grid) * grid;
  warmstart::ClipRecord r;
  for (std::vector<float>* plane :
       {&r.target, &r.raster1, &r.raster2, &r.mask1, &r.mask2}) {
    plane->resize(n);
    for (std::size_t i = 0; i < n; ++i)
      (*plane)[i] = base + static_cast<float>(i % 7) * 0.125f;
    base += 0.5f;
  }
  return r;
}

std::string write_corpus() {
  const std::string path = temp_path("two.corpus");
  std::remove(path.c_str());
  warmstart::CorpusWriter writer(path, 8);
  writer.append(corpus_record(8, 0.0f));
  writer.append(corpus_record(8, 1.0f));
  return path;
}

std::string write_log() {
  const std::string path = temp_path("two.log");
  std::remove(path.c_str());
  flywheel::TrainingLogWriter writer(path, 8);
  for (int k = 0; k < 2; ++k) {
    flywheel::TrainingPair pair;
    pair.image.resize(64);
    for (std::size_t i = 0; i < pair.image.size(); ++i)
      pair.image[i] = static_cast<float>(i % 5) * 0.25f + static_cast<float>(k);
    pair.score = 1234.5 + 100.0 * k;
    writer.append(pair);
  }
  return path;
}

/// A small result touching every snapshot field group (2x2 grids).
core::LdmoResult snapshot_result(double seconds) {
  core::LdmoResult result;
  result.chosen = {0, 1};
  result.ilt.mask1 = GridF(2, 2, 1.0);
  result.ilt.mask2 = GridF(2, 2, 0.0);
  result.ilt.response = GridF(2, 2, 0.5);
  result.ilt.report.l2 = 3.0;
  result.ilt.report.epe.violation_count = 1;
  result.ilt.trajectory.push_back({0, 4.0, 1, 0});
  result.ilt.iterations_run = 1;
  result.candidates_generated = 2;
  result.candidates_tried = 1;
  result.timing.add("ilt", seconds, seconds);
  result.total_seconds = seconds;
  return result;
}

std::string write_snapshot() {
  const std::string path = temp_path("two.snapshot");
  net::CacheSnapshot snapshot;
  snapshot.config_fingerprint = 0x1122334455667788ULL;
  snapshot.entries.emplace_back(11, snapshot_result(0.5));
  snapshot.entries.emplace_back(22, snapshot_result(2.0));
  net::save_cache_snapshot(path, snapshot);
  return path;
}

// --- byte pins --------------------------------------------------------------

// Recorded from the formats' own writers before they moved onto
// common/record_file; a mismatch means a format's bytes changed.
TEST(FormatPins, WeightsFile) {
  const std::string path = write_weights();
  EXPECT_EQ(common::read_file(path).size(), 56u);
  EXPECT_EQ(file_digest(path), 0x18154195d99c07f6ULL);
}

TEST(FormatPins, CorpusFile) {
  const std::string path = write_corpus();
  EXPECT_EQ(common::read_file(path).size(), 12u + 2u * (5u * 256u + 8u));
  EXPECT_EQ(file_digest(path), 0x6bdc5b953712ccf5ULL);
}

TEST(FormatPins, TrainingLogFile) {
  const std::string path = write_log();
  EXPECT_EQ(common::read_file(path).size(), 12u + 2u * (256u + 16u));
  EXPECT_EQ(file_digest(path), 0xb7f38cd0d1856ab7ULL);
}

TEST(FormatPins, SnapshotFile) {
  const std::string path = write_snapshot();
  EXPECT_EQ(common::read_file(path).size(), 562u);
  EXPECT_EQ(file_digest(path), 0x7a97f9cb255681b7ULL);
}

// --- mutation sweep ---------------------------------------------------------

/// One format under the sweep: a valid file, the bytes whose every bit is
/// flipped, and the loaders every mutated copy is handed to.
struct Target {
  std::string name;
  std::vector<std::uint8_t> valid;
  /// [begin, end) byte ranges flipped bit by bit: the header and the
  /// structural fields of the first record.
  std::vector<std::pair<std::size_t, std::size_t>> dense;
  /// End of the first record: seeded flips and truncations land before it.
  std::size_t focus = 0;
  std::function<void(const std::string&)> load;
};

enum Mutation { kTruncation, kBitFlip, kStomp, kMutations };
constexpr const char* kMutationNames[] = {"truncations", "bit flips",
                                          "stomps"};

struct SweepCounts {
  int inputs[kMutations] = {};
  int loaded[kMutations] = {};
  int failures = 0;

  int total(const int (&per_kind)[kMutations]) const {
    return per_kind[kTruncation] + per_kind[kBitFlip] + per_kind[kStomp];
  }
};

/// Writes `bytes` to `path` and runs the target's loaders on it: they
/// must either succeed or throw ldmo::Error (FlowException included).
void check_input(const Target& target, const std::string& path,
                 const std::vector<std::uint8_t>& bytes, Mutation kind,
                 const std::string& mutation, SweepCounts& counts) {
  write_bytes(path, bytes);
  ++counts.inputs[kind];
  try {
    target.load(path);
    ++counts.loaded[kind];
  } catch (const Error&) {
    // rejected with a typed error: the property holds
  } catch (const std::exception& e) {
    if (++counts.failures <= 5)
      ADD_FAILURE() << target.name << " " << mutation
                    << " escaped as a non-ldmo exception: " << e.what();
  }
}

/// Every truncation up to the first record's end plus a seeded sample
/// beyond it, every bit of the dense ranges, and seeded bit flips and byte
/// stomps inside the first record.
SweepCounts sweep(const Target& target, std::uint64_t seed) {
  const std::string path = temp_path("fuzz_" + target.name);
  const std::vector<std::uint8_t>& valid = target.valid;
  Rng rng(seed);
  SweepCounts counts;
  const auto cut = [&](std::size_t length) {
    check_input(target, path,
                {valid.begin(), valid.begin() + static_cast<long>(length)},
                kTruncation, "truncated to " + std::to_string(length), counts);
  };
  const auto flip = [&](std::size_t byte, int bit) {
    std::vector<std::uint8_t> bytes = valid;
    bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    check_input(target, path, bytes, kBitFlip,
                "bit " + std::to_string(bit) + " of byte " +
                    std::to_string(byte) + " flipped",
                counts);
  };
  const int size = static_cast<int>(valid.size());
  const int last = static_cast<int>(target.focus) - 1;
  for (int length = 0; length <= last + 1 && length < size; ++length)
    cut(static_cast<std::size_t>(length));
  for (int i = 0; i < 32; ++i)
    cut(static_cast<std::size_t>(rng.uniform_int(0, size - 1)));
  for (const auto& [begin, end] : target.dense)
    for (std::size_t byte = begin; byte < end; ++byte)
      for (int bit = 0; bit < 8; ++bit) flip(byte, bit);
  for (int i = 0; i < 128; ++i)
    flip(static_cast<std::size_t>(rng.uniform_int(0, last)),
         rng.uniform_int(0, 7));
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> bytes = valid;
    const int run = rng.uniform_int(1, 4);
    const int at = rng.uniform_int(0, last);
    for (int k = 0; k < run && at + k <= last; ++k)
      bytes[static_cast<std::size_t>(at + k)] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    check_input(target, path, bytes, kStomp,
                std::to_string(run) + " bytes stomped at " + std::to_string(at),
                counts);
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::printf("%s: %d inputs, %d loaded:", target.name.c_str(),
              counts.total(counts.inputs), counts.total(counts.loaded));
  for (int kind = 0; kind < kMutations; ++kind)
    std::printf(" %s %d of %d%s", kMutationNames[kind], counts.loaded[kind],
                counts.inputs[kind], kind + 1 < kMutations ? "," : "\n");
  return counts;
}

/// Writers that reopen a fuzzed log warn about each torn tail they cut.
class FormatFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = log_level();
    set_log_level(LogLevel::Error);
  }
  void TearDown() override { set_log_level(saved_); }
  LogLevel saved_ = LogLevel::Info;
};

TEST_F(FormatFuzz, WeightsLoadOrThrowAndARejectedLoadChangesNothing) {
  Target target;
  target.name = "weights";
  target.valid = common::read_file(write_weights());
  target.dense = {{0, target.valid.size()}};
  target.focus = target.valid.size();
  target.load = [](const std::string& path) {
    SmallWeights w;
    for (nn::Parameter* p : w.list()) p->value.fill(7.0f);
    const auto untouched = [&] {
      for (nn::Parameter* p : w.list())
        for (std::size_t i = 0; i < p->value.size(); ++i)
          if (p->value.data()[i] != 7.0f) return false;
      return true;
    };
    try {
      nn::decode_parameters(w.list(), common::read_file(path));
    } catch (const Error&) {
      EXPECT_TRUE(untouched()) << "a rejected blob changed the parameters";
    }
    for (nn::Parameter* p : w.list()) p->value.fill(7.0f);
    try {
      nn::load_parameters(w.list(), path);
    } catch (const Error&) {
      EXPECT_TRUE(untouched()) << "a rejected file changed the parameters";
      throw;
    }
  };
  const SweepCounts counts = sweep(target, 1);
  EXPECT_EQ(counts.failures, 0);
  EXPECT_GT(counts.total(counts.loaded), 0);
  EXPECT_EQ(counts.loaded[kTruncation], 0);
}

TEST_F(FormatFuzz, CorpusLoadsOrThrows) {
  constexpr std::size_t kHeader = 12, kRecord = 5 * 256 + 8;
  Target target;
  target.name = "corpus";
  target.valid = common::read_file(write_corpus());
  // The header, the first plane's leading floats and the first checksum.
  target.dense = {{0, kHeader + 16},
                  {kHeader + kRecord - 8, kHeader + kRecord}};
  target.focus = kHeader + kRecord;
  target.load = [](const std::string& path) {
    (void)warmstart::corpus_record_count(path);
    (void)warmstart::read_corpus(path);
    warmstart::CorpusWriter(path, 8);  // reopens, cutting a torn tail
  };
  const SweepCounts counts = sweep(target, 2);
  EXPECT_EQ(counts.failures, 0);
  // Every flip breaks a checksum, and the corpus refuses a torn tail.
  EXPECT_EQ(counts.loaded[kBitFlip], 0);
}

TEST_F(FormatFuzz, TrainingLogLoadsOrThrows) {
  constexpr std::size_t kHeader = 12, kRecord = 256 + 16;
  Target target;
  target.name = "training_log";
  target.valid = common::read_file(write_log());
  // The header, the first image's leading floats, the score and checksum.
  target.dense = {{0, kHeader + 16}, {kHeader + 256, kHeader + kRecord}};
  target.focus = kHeader + kRecord;
  target.load = [](const std::string& path) {
    (void)flywheel::training_log_record_count(path);
    (void)flywheel::read_training_log(path);
    flywheel::TrainingLogWriter(path, 8);  // reopens, cutting a torn tail
  };
  const SweepCounts counts = sweep(target, 3);
  EXPECT_EQ(counts.failures, 0);
  EXPECT_GT(counts.total(counts.loaded), 0);
}

TEST_F(FormatFuzz, SnapshotLoadsOrThrows) {
  Target target;
  target.name = "snapshot";
  target.valid = common::read_file(write_snapshot());
  target.dense = {{0, target.valid.size()}};
  target.focus = target.valid.size();
  target.load = [](const std::string& path) {
    (void)net::load_cache_snapshot(path);
  };
  const SweepCounts counts = sweep(target, 4);
  EXPECT_EQ(counts.failures, 0);
  EXPECT_GT(counts.total(counts.loaded), 0);
  EXPECT_EQ(counts.loaded[kTruncation], 0);
}

// --- wire payloads and frame headers ----------------------------------------

/// One wire payload under the sweep: a valid encoding and the decoder its
/// receiver runs on it.
struct WireTarget {
  std::string name;
  std::vector<std::uint8_t> valid;
  std::function<void(net::WireReader&)> decode;
};

struct WireCounts {
  int inputs = 0;
  int decoded = 0;
  int failures = 0;
};

/// Runs `decode` on `bytes`, then expect_end: the input must decode or
/// throw a FlowException (DecodeError is one).
void check_wire(const WireTarget& target, const std::vector<std::uint8_t>& bytes,
                const std::string& mutation, WireCounts& counts) {
  ++counts.inputs;
  try {
    net::WireReader r(bytes, "fuzz");
    target.decode(r);
    r.expect_end();
    ++counts.decoded;
  } catch (const FlowException&) {
    // rejected with a typed error: the property holds
  } catch (const std::exception& e) {
    if (++counts.failures <= 5)
      ADD_FAILURE() << target.name << " " << mutation
                    << " escaped as a non-FlowException: " << e.what();
  }
}

/// Length values written over any 4 bytes: past the cap, past the
/// remaining bytes, and a plausible-looking large count.
std::vector<std::uint32_t> inflated_lengths(std::size_t remaining) {
  return {0xFFFFFFFFu, 0x80000000u, 1u << 20,
          static_cast<std::uint32_t>(remaining + 1)};
}

/// Every truncation, every single-bit flip, every position of an inflated
/// u32 length, and seeded multi-bit flips.
WireCounts sweep_wire(const WireTarget& target, std::uint64_t seed) {
  const std::vector<std::uint8_t>& valid = target.valid;
  WireCounts counts;
  check_wire(target, valid, "unmutated", counts);
  EXPECT_EQ(counts.decoded, 1) << target.name << ": the valid encoding";
  for (std::size_t length = 0; length < valid.size(); ++length)
    check_wire(target, {valid.begin(), valid.begin() + static_cast<long>(length)},
               "truncated to " + std::to_string(length), counts);
  for (std::size_t byte = 0; byte < valid.size(); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = valid;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      check_wire(target, bytes,
                 "bit " + std::to_string(bit) + " of byte " +
                     std::to_string(byte) + " flipped",
                 counts);
    }
  for (std::size_t at = 0; at + 4 <= valid.size(); ++at)
    for (std::uint32_t length : inflated_lengths(valid.size() - at - 4)) {
      std::vector<std::uint8_t> bytes = valid;
      for (int k = 0; k < 4; ++k)
        bytes[at + static_cast<std::size_t>(k)] =
            static_cast<std::uint8_t>(length >> (8 * k));
      check_wire(target, bytes,
                 "length " + std::to_string(length) + " written at byte " +
                     std::to_string(at),
                 counts);
    }
  Rng rng(seed);
  const int last = static_cast<int>(valid.size()) - 1;
  for (int i = 0; i < 256; ++i) {
    std::vector<std::uint8_t> bytes = valid;
    const int flips = rng.uniform_int(2, 4);
    for (int k = 0; k < flips; ++k)
      bytes[static_cast<std::size_t>(rng.uniform_int(0, last))] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    check_wire(target, bytes, "multi-bit flip " + std::to_string(i), counts);
  }
  std::printf("%s: %d inputs, %d decoded, %d rejected\n", target.name.c_str(),
              counts.inputs, counts.decoded, counts.inputs - counts.decoded);
  return counts;
}

/// A response carrying every result field group (2x2 grids).
serve::ServeResponse wire_response() {
  serve::ServeResponse response;
  response.status = serve::ServeStatus::kCached;
  response.result = snapshot_result(0.5);
  litho::EpeMeasurement m;
  m.checkpoint.x_nm = 110.0;
  m.checkpoint.pattern_id = 1;
  m.epe_nm = 3.5;
  m.violation = true;
  response.result.ilt.report.epe.measurements.push_back(m);
  response.request_id = 42;
  response.cache_key = 0x1122334455667788ULL;
  response.total_seconds = 0.25;
  response.attempts = 1;
  return response;
}

std::vector<WireTarget> wire_targets() {
  std::vector<WireTarget> targets;
  {
    serve::ServeRequest request;
    request.layout.name = "fuzz";
    request.layout.clip = geometry::Rect::make({0, 0}, {1024, 1024});
    request.layout.add_pattern(geometry::Rect::make({100, 200}, {160, 260}));
    request.layout.add_pattern(geometry::Rect::make({300, 200}, {360, 260}));
    request.deadline_seconds = 30.0;
    net::WireWriter w;
    net::write_request(w, request);
    targets.push_back({"request", w.take(), [](net::WireReader& r) {
                         (void)net::read_request(r);
                       }});
  }
  {
    net::WireWriter w;
    net::write_response(w, wire_response());
    targets.push_back({"response", w.take(), [](net::WireReader& r) {
                         (void)net::read_response(r);
                       }});
  }
  {
    net::WorkerStats stats;
    stats.config_fingerprint = 0xdeadbeefcafef00dULL;
    stats.weights_version = 3;
    stats.predictor = "cnn@v3";
    stats.status_counts[0] = 10;
    stats.cache_hits = 19;
    stats.cache_entries = 6;
    stats.warm_start_version = 0x0123456789ABCDEFULL;
    net::WireWriter w;
    net::write_stats(w, stats);
    targets.push_back({"stats", w.take(), [](net::WireReader& r) {
                         (void)net::read_stats(r);
                       }});
  }
  {
    net::WireWriter w;
    net::write_weight_swap(
        w, net::WeightSwap{5, {1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12}});
    targets.push_back({"weight_swap", w.take(), [](net::WireReader& r) {
                         (void)net::read_weight_swap(r);
                       }});
  }
  {
    net::WireWriter w;
    net::write_swap_ack(w, 7);
    targets.push_back({"swap_ack", w.take(), [](net::WireReader& r) {
                         (void)net::read_swap_ack(r);
                       }});
  }
  {
    net::WireWriter w;
    net::write_error(w, static_cast<int>(FlowStage::kIlt), "diverged badly");
    targets.push_back({"error", w.take(), [](net::WireReader& r) {
                         (void)net::read_error(r);
                       }});
  }
  return targets;
}

TEST(WireFuzz, PayloadsDecodeOrThrowAFlowException) {
  std::uint64_t seed = 11;
  for (const WireTarget& target : wire_targets()) {
    const WireCounts counts = sweep_wire(target, seed++);
    EXPECT_EQ(counts.failures, 0) << target.name;
    EXPECT_GT(counts.inputs - counts.decoded, 0) << target.name;
  }
}

/// What read_frame makes of `bytes` followed by the sender's close: the
/// frames it returned, or -1 when it threw a FlowException. Anything else
/// escaping is recorded as a failure.
int read_frames(const std::vector<std::uint8_t>& bytes,
                const std::string& mutation, WireCounts& counts) {
  ++counts.inputs;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return -1;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fds[0], bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);  // the reader sees EOF after the bytes, never a stall
  int frames = 0;
  try {
    while (net::read_frame(fds[1], "fuzz")) ++frames;
    ++counts.decoded;
  } catch (const FlowException&) {
    frames = -1;
  } catch (const std::exception& e) {
    frames = -1;
    if (++counts.failures <= 5)
      ADD_FAILURE() << "frame " << mutation
                    << " escaped as a non-FlowException: " << e.what();
  }
  ::close(fds[1]);
  return frames;
}

TEST(WireFuzz, FrameHeadersReadOrThrowAFlowException) {
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  const std::vector<std::uint8_t> valid =
      net::encode_frame(net::MessageType::kStatsResponse, payload);
  WireCounts counts;
  EXPECT_EQ(read_frames(valid, "unmutated", counts), 1);
  for (std::size_t length = 0; length < valid.size(); ++length) {
    const int frames = read_frames(
        {valid.begin(), valid.begin() + static_cast<long>(length)},
        "truncated to " + std::to_string(length), counts);
    // An empty stream is a clean close; any other cut is a fault.
    EXPECT_EQ(frames, length == 0 ? 0 : -1) << "cut at " << length;
  }
  for (std::size_t byte = 0; byte < valid.size(); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = valid;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const int frames = read_frames(
          bytes,
          "bit " + std::to_string(bit) + " of byte " + std::to_string(byte),
          counts);
      // Every header field is checked and the payload is checksummed; the
      // checksum does not cover the type, so a flip that names another
      // message type reads as that type (its payload decoder refuses it).
      const bool other_type =
          byte == 6 && bytes[6] >= 1 &&
          bytes[6] <= static_cast<std::uint8_t>(net::MessageType::kError);
      EXPECT_EQ(frames, other_type ? 1 : -1)
          << "bit " << bit << " of byte " << byte;
    }
  // The payload length (bytes 8-11), inflated up to and past the cap.
  for (std::uint32_t length :
       {static_cast<std::uint32_t>(payload.size() + 1), 1u << 20,
        static_cast<std::uint32_t>(net::kMaxPayloadBytes),
        static_cast<std::uint32_t>(net::kMaxPayloadBytes + 1), 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> bytes = valid;
    for (int k = 0; k < 4; ++k)
      bytes[8 + static_cast<std::size_t>(k)] =
          static_cast<std::uint8_t>(length >> (8 * k));
    EXPECT_EQ(read_frames(bytes, "length " + std::to_string(length), counts),
              -1)
        << "payload length " << length;
  }
  Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> bytes = valid;
    const int run = rng.uniform_int(1, 4);
    const int at = rng.uniform_int(0, static_cast<int>(net::kFrameHeaderBytes) - 1);
    for (int k = 0; k < run && at + k < static_cast<int>(bytes.size()); ++k)
      bytes[static_cast<std::size_t>(at + k)] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)read_frames(bytes, "header stomp " + std::to_string(i), counts);
  }
  std::printf("frame: %d inputs, %d read, %d rejected\n", counts.inputs,
              counts.decoded, counts.inputs - counts.decoded);
  EXPECT_EQ(counts.failures, 0);
}

}  // namespace
}  // namespace ldmo
