// Online-learning flywheel tests (DESIGN.md §16):
//
//   - training-log framing: round trip, resumed appends, torn-tail
//     tolerance (a partial or checksum-failed final record is dropped,
//     flagged and healed by the next writer) vs mid-file corruption
//     (throws — bit rot must not train a model),
//   - the serve-time capture sink: sampling, the max_records cap
//     (counting records that predate this process), drop-not-block
//     accounting, and the server integration — kOk fresh runs are
//     captured, cached and degraded responses never are,
//   - Server::swap_backend: the one model-swap path retires every
//     cached result via the config-fingerprint change while queued and
//     future requests keep succeeding,
//   - FineTuner: no-op without data, the min_new_records gate, bootstrap
//     promotion, the min_gain gate holding, recovery of a mistrained
//     incumbent through gated promotion, and the serve -> capture ->
//     fine-tune -> hot-swap loop end to end (local_promoter).
//
// Flow-running tests use the 32-pixel serving-tier lithography model
// (same budget as test_serve.cpp). Synthetic tuner fixtures use constant-
// brightness images whose score IS the brightness — rankable by a tiny
// CNN in a handful of epochs, deterministic by construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "core/predictor.h"
#include "flywheel/log.h"
#include "flywheel/sink.h"
#include "flywheel/tuner.h"
#include "layout/generator.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "serve/server.h"

namespace ldmo::flywheel {
namespace {

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

layout::Layout test_layout(std::uint64_t seed) {
  return layout::LayoutGenerator().generate(seed);
}

/// Tiny predictor network matched to the synthetic 16px training pairs.
nn::ResNetConfig tiny_network() {
  nn::ResNetConfig cfg;
  cfg.input_size = 16;
  cfg.width_multiplier = 0.125;
  return cfg;
}

/// Constant-brightness pair: every pixel is `brightness`, and the actual
/// score is the brightness itself — the simplest rankable dataset.
TrainingPair flat_pair(int image_size, double brightness) {
  TrainingPair pair;
  pair.image.assign(static_cast<std::size_t>(image_size) *
                        static_cast<std::size_t>(image_size),
                    static_cast<float>(brightness));
  pair.score = brightness;
  return pair;
}

/// Writes `count` flat pairs with distinct brightnesses to a fresh log.
void write_flat_log(const std::string& path, int image_size, int count,
                    bool negate_scores = false) {
  TrainingLogWriter writer(path, image_size);
  for (int i = 0; i < count; ++i) {
    TrainingPair pair =
        flat_pair(image_size, static_cast<double>(i + 1) /
                                  static_cast<double>(count));
    if (negate_scores) pair.score = -pair.score;
    writer.append(pair);
  }
}

/// Serialized-weights blob of a model trained to rank flat images by
/// NEGATED brightness — a deliberately mistrained incumbent.
std::vector<std::uint8_t> mistrained_blob(const std::string& staging) {
  nn::ResNetRegressor model(tiny_network());
  std::vector<nn::Example> wrong;
  for (int i = 0; i < 12; ++i) {
    const TrainingPair pair =
        flat_pair(16, static_cast<double>(i + 1) / 12.0);
    nn::Example example;
    example.image = nn::Tensor({1, 16, 16});
    std::copy(pair.image.begin(), pair.image.end(), example.image.data());
    example.label = static_cast<float>(1.0 - 2.0 * pair.score);  // inverted
    wrong.push_back(std::move(example));
  }
  nn::TrainerConfig tcfg;
  tcfg.epochs = 12;
  tcfg.batch_size = 4;
  tcfg.adam.learning_rate = 3e-3;
  nn::train_regressor(model, wrong, tcfg);
  nn::save_parameters(model.parameters(), staging);
  std::ifstream in(staging, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class FlywheelTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::disarm_all(); }
  void TearDown() override {
    fail::disarm_all();
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  /// Registers a path for removal and returns it.
  std::string scratch(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

// --- training log framing ---------------------------------------------------

TEST_F(FlywheelTest, LogRoundTripPreservesPairsAndOrder) {
  const std::string path = scratch("test_flywheel_roundtrip.bin");
  {
    TrainingLogWriter writer(path, 8);
    EXPECT_EQ(writer.image_size(), 8);
    writer.append(flat_pair(8, 0.25));
    writer.append(flat_pair(8, 0.75));
    writer.append(flat_pair(8, 0.5));
    EXPECT_EQ(writer.appended(), 3u);
  }
  EXPECT_EQ(training_log_record_count(path), 3u);
  const TrainingLog log = read_training_log(path);
  EXPECT_EQ(log.image_size, 8);
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.pairs.size(), 3u);
  EXPECT_DOUBLE_EQ(log.pairs[0].score, 0.25);
  EXPECT_DOUBLE_EQ(log.pairs[1].score, 0.75);
  EXPECT_DOUBLE_EQ(log.pairs[2].score, 0.5);
  ASSERT_EQ(log.pairs[0].image.size(), 64u);
  EXPECT_FLOAT_EQ(log.pairs[0].image[0], 0.25f);
  EXPECT_FLOAT_EQ(log.pairs[0].image[63], 0.25f);
}

TEST_F(FlywheelTest, LogRecordBytesMatchesLayout) {
  // image_size^2 float32 + f64 score + u64 checksum.
  EXPECT_EQ(training_log_record_bytes(8), 8u * 8u * 4u + 8u + 8u);
}

TEST_F(FlywheelTest, ReopenedWriterAppendsAfterExistingRecords) {
  const std::string path = scratch("test_flywheel_reopen.bin");
  { TrainingLogWriter(path, 8).append(flat_pair(8, 0.1)); }
  {
    TrainingLogWriter writer(path, 8);
    EXPECT_EQ(writer.appended(), 0u);  // per-writer, not per-file
    writer.append(flat_pair(8, 0.2));
  }
  const TrainingLog log = read_training_log(path);
  ASSERT_EQ(log.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(log.pairs[0].score, 0.1);
  EXPECT_DOUBLE_EQ(log.pairs[1].score, 0.2);
}

TEST_F(FlywheelTest, MismatchedImageSizeRefusesToOpen) {
  const std::string path = scratch("test_flywheel_mismatch.bin");
  { TrainingLogWriter(path, 8).append(flat_pair(8, 0.5)); }
  EXPECT_THROW(TrainingLogWriter(path, 16), Error);
}

TEST_F(FlywheelTest, BadMagicThrows) {
  const std::string path = scratch("test_flywheel_badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a flywheel log";
  }
  EXPECT_THROW((void)read_training_log(path), Error);
  EXPECT_THROW(TrainingLogWriter(path, 8), Error);
}

TEST_F(FlywheelTest, TornTailIsDroppedFlaggedAndHealedByTheNextWriter) {
  const std::string path = scratch("test_flywheel_torn.bin");
  write_flat_log(path, 8, 3);
  // Crash mid-append: the file ends half way through record 3.
  const std::size_t record = training_log_record_bytes(8);
  const std::size_t header = 12;  // magic + u32 image size
  std::filesystem::resize_file(path, header + 2 * record + record / 2);

  EXPECT_EQ(training_log_record_count(path), 2u);
  const TrainingLog torn = read_training_log(path);
  EXPECT_TRUE(torn.torn_tail);
  ASSERT_EQ(torn.pairs.size(), 2u);

  // The next writer truncates the partial record and appends cleanly.
  TrainingLogWriter(path, 8).append(flat_pair(8, 0.9));
  const TrainingLog healed = read_training_log(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.pairs.size(), 3u);
  EXPECT_DOUBLE_EQ(healed.pairs[2].score, 0.9);
}

TEST_F(FlywheelTest, CorruptFinalChecksumIsATornTailNotAnError) {
  const std::string path = scratch("test_flywheel_tailsum.bin");
  write_flat_log(path, 8, 2);
  {
    // Flip a byte inside the LAST record's image payload.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(12 + static_cast<std::streamoff>(
                        training_log_record_bytes(8)) + 4);
    file.put(static_cast<char>(0xFF));
  }
  const TrainingLog log = read_training_log(path);
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.pairs.size(), 1u);
}

TEST_F(FlywheelTest, ChecksumTornTailIsHealedByTheNextWriter) {
  const std::string path = scratch("test_flywheel_tailsum_heal.bin");
  write_flat_log(path, 8, 2);
  {
    // A torn append that happened to end on a record boundary: the LAST
    // record is whole but fails its checksum.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(12 + static_cast<std::streamoff>(
                        training_log_record_bytes(8)) + 4);
    file.put(static_cast<char>(0xFF));
  }
  ASSERT_TRUE(read_training_log(path).torn_tail);

  // The next writer drops exactly what the reader drops, so its append
  // cannot strand the bad record mid-file as "bit rot".
  TrainingLogWriter(path, 8).append(flat_pair(8, 0.9));
  const TrainingLog healed = read_training_log(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(healed.pairs[0].score, 0.5);
  EXPECT_DOUBLE_EQ(healed.pairs[1].score, 0.9);
}

TEST_F(FlywheelTest, CorruptionBeforeTheTailThrows) {
  const std::string path = scratch("test_flywheel_rot.bin");
  write_flat_log(path, 8, 3);
  {
    // Flip a byte inside the FIRST record: bit rot, not a torn append.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(12 + 4);
    file.put(static_cast<char>(0xFF));
  }
  EXPECT_THROW((void)read_training_log(path), Error);
}

// --- capture sink -----------------------------------------------------------

TEST_F(FlywheelTest, SinkSamplesOneOfEveryN) {
  const std::string path = scratch("test_flywheel_sample.bin");
  SinkConfig cfg;
  cfg.path = path;
  cfg.image_size = 16;
  cfg.sample_every = 2;
  const layout::Layout layout = test_layout(11);
  const layout::Assignment assignment(layout.patterns.size(), 0);
  {
    TrainingLogSink sink(cfg);
    for (int i = 0; i < 6; ++i)
      sink.on_result(layout, assignment, static_cast<double>(i));
    sink.drain();
    EXPECT_EQ(sink.captured(), 3);
    EXPECT_EQ(sink.dropped(), 0);  // sampled-out is not a drop
  }
  const TrainingLog log = read_training_log(path);
  ASSERT_EQ(log.pairs.size(), 3u);
  // 1-of-2 sampling keeps the 1st, 3rd, 5th eligible result.
  EXPECT_DOUBLE_EQ(log.pairs[0].score, 0.0);
  EXPECT_DOUBLE_EQ(log.pairs[1].score, 2.0);
  EXPECT_DOUBLE_EQ(log.pairs[2].score, 4.0);
}

TEST_F(FlywheelTest, SinkStopsAtMaxRecordsCountingPreexistingOnes) {
  const std::string path = scratch("test_flywheel_cap.bin");
  write_flat_log(path, 16, 2);  // two records predate the sink
  SinkConfig cfg;
  cfg.path = path;
  cfg.image_size = 16;
  cfg.max_records = 3;
  const layout::Layout layout = test_layout(12);
  const layout::Assignment assignment(layout.patterns.size(), 0);
  {
    TrainingLogSink sink(cfg);
    sink.on_result(layout, assignment, 0.5);
    sink.drain();
    sink.on_result(layout, assignment, 0.6);  // over the cap
    sink.on_result(layout, assignment, 0.7);
    sink.drain();
    EXPECT_EQ(sink.captured(), 1);
    EXPECT_EQ(sink.dropped(), 2);
  }
  EXPECT_EQ(training_log_record_count(path), 3u);
}

TEST_F(FlywheelTest, ServerCapturesFreshOkRunsOnly) {
  const std::string path = scratch("test_flywheel_serve_capture.bin");
  auto sink = std::make_shared<TrainingLogSink>(SinkConfig{
      .path = path, .image_size = 32, .sample_every = 1});
  serve::ServeConfig cfg = fast_serve_config();
  cfg.capture = sink;
  serve::Server server(cfg);

  serve::ServeRequest first;
  first.layout = test_layout(21);
  const serve::ServeResponse fresh =
      server.submit(std::move(first)).response.get();
  ASSERT_EQ(fresh.status, serve::ServeStatus::kOk);

  serve::ServeRequest repeat;
  repeat.layout = test_layout(21);
  const serve::ServeResponse cached =
      server.submit(std::move(repeat)).response.get();
  ASSERT_EQ(cached.status, serve::ServeStatus::kCached);

  sink->drain();
  // The fresh run was captured with its ACTUAL post-ILT score; the cache
  // hit replayed work the hook already saw and must not be re-captured.
  EXPECT_EQ(sink->captured(), 1);
  const TrainingLog log = read_training_log(path);
  ASSERT_EQ(log.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(log.pairs[0].score, fresh.result.ilt.report.score());
  EXPECT_EQ(log.image_size, 32);
}

/// Backend that fails every scoring call: the server degrades the request
/// (generation-order candidate ranking) instead of failing it.
class ThrowingPredictor : public core::PrintabilityPredictor {
 public:
  double score(const layout::Layout&, const layout::Assignment&) override {
    throw std::runtime_error("backend exploded");
  }
  std::string name() const override { return "throwing"; }
};

TEST_F(FlywheelTest, DegradedResultsAreNeverCaptured) {
  const std::string path = scratch("test_flywheel_degraded.bin");
  auto sink = std::make_shared<TrainingLogSink>(SinkConfig{
      .path = path, .image_size = 32, .sample_every = 1});
  serve::ServeConfig cfg = fast_serve_config();
  cfg.capture = sink;
  serve::Server server(cfg, std::make_unique<ThrowingPredictor>());

  serve::ServeRequest request;
  request.layout = test_layout(22);
  const serve::ServeResponse response =
      server.submit(std::move(request)).response.get();
  ASSERT_EQ(response.status, serve::ServeStatus::kOk);
  ASSERT_TRUE(response.degraded);

  sink->drain();
  // A degraded ranking is generation order, not model output — feeding it
  // back would poison the fine-tune set (ISSUE-10 satellite 3).
  EXPECT_EQ(sink->captured(), 0);
  EXPECT_EQ(training_log_record_count(path), 0u);
}

// --- in-process blue/green swap ---------------------------------------------

/// Constant scorer with a distinct name, for swap-identity assertions.
class ConstantPredictor : public core::PrintabilityPredictor {
 public:
  double score(const layout::Layout&, const layout::Assignment&) override {
    return 0.0;
  }
  std::string name() const override { return "constant"; }
};

TEST_F(FlywheelTest, SwapBackendRetiresCacheAndKeepsServing) {
  serve::Server server(fast_serve_config());
  serve::ServeRequest first;
  first.layout = test_layout(31);
  ASSERT_EQ(server.submit(std::move(first)).response.get().status,
            serve::ServeStatus::kOk);
  serve::ServeRequest warm;
  warm.layout = test_layout(31);
  ASSERT_EQ(server.submit(std::move(warm)).response.get().status,
            serve::ServeStatus::kCached);
  const std::uint64_t fp_before = server.config_fingerprint();
  const std::string name_before = server.predictor_name();

  server.swap_backend(std::make_unique<core::VersionedPredictor>(
      std::make_unique<ConstantPredictor>(), 1));
  EXPECT_EQ(server.backend_swaps(), 1);
  EXPECT_EQ(server.predictor_name(), "constant@v1");
  EXPECT_NE(server.predictor_name(), name_before);
  // The version rides in the predictor name and the name in the config
  // fingerprint, so every cached result key is now unreachable.
  EXPECT_NE(server.config_fingerprint(), fp_before);

  serve::ServeRequest recompute;
  recompute.layout = test_layout(31);
  EXPECT_EQ(server.submit(std::move(recompute)).response.get().status,
            serve::ServeStatus::kOk);  // not kCached: the old entry retired
  serve::ServeRequest recached;
  recached.layout = test_layout(31);
  EXPECT_EQ(server.submit(std::move(recached)).response.get().status,
            serve::ServeStatus::kCached);  // the new model caches afresh
}

// --- fine-tuner -------------------------------------------------------------

TunerConfig tiny_tuner(const std::string& log_path) {
  TunerConfig cfg;
  cfg.log_path = log_path;
  cfg.network = tiny_network();
  cfg.trainer.epochs = 16;
  cfg.trainer.batch_size = 6;
  cfg.trainer.adam.learning_rate = 3e-3;
  cfg.min_new_records = 12;
  cfg.holdout_every = 4;
  return cfg;
}

TEST_F(FlywheelTest, TunerIsANoOpWithoutALog) {
  FineTuner tuner(tiny_tuner("test_flywheel_no_such_log.bin"), nullptr);
  const TuneRound round = tuner.run_once();
  EXPECT_FALSE(round.attempted);
  EXPECT_FALSE(round.promoted);
  EXPECT_EQ(tuner.rounds(), 0);
}

TEST_F(FlywheelTest, TunerWaitsForMinNewRecords) {
  const std::string path = scratch("test_flywheel_waiting.bin");
  write_flat_log(path, 16, 6);  // min_new_records is 12
  FineTuner tuner(tiny_tuner(path), nullptr);
  const TuneRound round = tuner.run_once();
  EXPECT_FALSE(round.attempted);
  EXPECT_EQ(round.records, 6u);
  EXPECT_EQ(tuner.rounds(), 0);
}

TEST_F(FlywheelTest, BootstrapRoundTrainsAndPromotes) {
  const std::string path = scratch("test_flywheel_bootstrap.bin");
  scratch(path + ".candidate.bin");
  write_flat_log(path, 16, 24);

  std::uint64_t promoted_version = 0;
  std::vector<std::uint8_t> promoted_blob;
  FineTuner tuner(tiny_tuner(path),
                  [&](std::uint64_t version,
                      const std::vector<std::uint8_t>& blob) {
                    promoted_version = version;
                    promoted_blob = blob;
                  });
  const TuneRound round = tuner.run_once();
  EXPECT_TRUE(round.attempted);
  EXPECT_EQ(round.records, 24u);
  EXPECT_EQ(round.train_count, 18u);
  EXPECT_EQ(round.holdout_count, 6u);
  // No incumbent was ever set: the sentinel guarantees the first trained
  // candidate wins, bootstrapping the loop.
  EXPECT_DOUBLE_EQ(round.incumbent_corr, -2.0);
  EXPECT_GT(round.candidate_corr, 0.5);  // it actually learned the ranking
  EXPECT_TRUE(round.promoted);
  EXPECT_EQ(round.version, 1u);
  EXPECT_EQ(promoted_version, 1u);
  EXPECT_FALSE(promoted_blob.empty());
  EXPECT_EQ(tuner.promotions(), 1);

  // Same log, no new pairs: the next round must not fire.
  const TuneRound idle = tuner.run_once();
  EXPECT_FALSE(idle.attempted);
  EXPECT_EQ(tuner.rounds(), 1);
}

TEST_F(FlywheelTest, UnreachableMinGainHoldsTheGate) {
  const std::string path = scratch("test_flywheel_gate.bin");
  write_flat_log(path, 16, 24);
  TunerConfig cfg = tiny_tuner(path);
  cfg.min_gain = 10.0;  // no correlation gain can clear this
  bool promoted = false;
  FineTuner tuner(cfg, [&](std::uint64_t, const std::vector<std::uint8_t>&) {
    promoted = true;
  });
  const TuneRound round = tuner.run_once();
  EXPECT_TRUE(round.attempted);
  EXPECT_FALSE(round.promoted);
  EXPECT_FALSE(promoted);
  EXPECT_EQ(tuner.version(), 0u);
  EXPECT_NE(round.detail.find("gate held"), std::string::npos);
}

TEST_F(FlywheelTest, MistrainedIncumbentRecoversViaGatedPromotion) {
  const std::string path = scratch("test_flywheel_recovery.bin");
  scratch(path + ".candidate.bin");
  scratch(path + ".candidate.bin.incumbent");
  const std::string staging = scratch("test_flywheel_mistrained.bin");
  write_flat_log(path, 16, 24);

  FineTuner tuner(tiny_tuner(path), nullptr);
  // Deploy a model trained on inverted labels: its held-out rank
  // correlation is deeply negative — the mistrained-predictor scenario the
  // recovery drill models.
  tuner.set_incumbent(mistrained_blob(staging));
  const TuneRound round = tuner.run_once();
  EXPECT_TRUE(round.attempted);
  EXPECT_LT(round.incumbent_corr, 0.0);
  // Fine-tuning on the true labels must beat the inverted incumbent, and
  // the gate promotes the recovery automatically.
  EXPECT_GT(round.candidate_corr, round.incumbent_corr);
  EXPECT_TRUE(round.promoted);
  EXPECT_EQ(tuner.promotions(), 1);
}

TEST_F(FlywheelTest, ServeCaptureTuneSwapLoopEndToEnd) {
  const std::string path = scratch("test_flywheel_loop.bin");
  scratch(path + ".candidate.bin");

  auto sink = std::make_shared<TrainingLogSink>(SinkConfig{
      .path = path, .image_size = 32, .sample_every = 1});
  serve::ServeConfig cfg = fast_serve_config();
  cfg.capture = sink;
  serve::Server server(cfg);

  // Serve traffic: each fresh run feeds the sink a real (decomposition
  // image, actual ILT score) pair.
  for (std::uint64_t seed = 41; seed < 49; ++seed) {
    serve::ServeRequest request;
    request.layout = test_layout(seed);
    ASSERT_EQ(server.submit(std::move(request)).response.get().status,
              serve::ServeStatus::kOk);
  }
  sink->drain();
  ASSERT_EQ(sink->captured(), 8);
  const std::uint64_t fp_before = server.config_fingerprint();

  // One flywheel round through the real local deployment edge.
  TunerConfig tcfg;
  tcfg.log_path = path;
  tcfg.network.input_size = 32;
  tcfg.network.width_multiplier = 0.125;
  tcfg.trainer.epochs = 4;
  tcfg.trainer.batch_size = 6;
  tcfg.min_new_records = 8;
  tcfg.holdout_every = 3;
  FineTuner tuner(tcfg, local_promoter(server, tcfg.network));
  const TuneRound round = tuner.run_once();
  EXPECT_TRUE(round.attempted);
  ASSERT_TRUE(round.promoted);

  // The promoted CNN is live, versioned, and every pre-swap cache entry is
  // unreachable: the served corpus gets re-scored by the new model.
  EXPECT_EQ(server.predictor_name(), "cnn@v1");
  EXPECT_EQ(server.backend_swaps(), 1);
  EXPECT_NE(server.config_fingerprint(), fp_before);
  serve::ServeRequest recompute;
  recompute.layout = test_layout(41);
  EXPECT_EQ(server.submit(std::move(recompute)).response.get().status,
            serve::ServeStatus::kOk);
}

}  // namespace
}  // namespace ldmo::flywheel
