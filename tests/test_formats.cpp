// The four on-disk formats, pinned and fuzzed:
//
//   - byte pins: a small weights file, a 2-record warm-start corpus, a
//     2-record flywheel log and a 2-entry cache snapshot, each built from
//     literals, hash to the FNV-1a digests the formats had before they were
//     moved onto common/record_file — the files stay byte-identical;
//   - a seeded mutation sweep over exactly those files (truncations and
//     bit flips over each header and first record): every input either
//     loads or throws ldmo::Error (FlowException included), and a rejected
//     weight load leaves the parameters untouched.
//
// The whole binary carries the "fuzz" label: ctest -L fuzz.
#include <gtest/gtest.h>

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
#include "net/snapshot.h"
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

}  // namespace
}  // namespace ldmo
