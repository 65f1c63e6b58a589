// Warm-start subsystem: corpus format strictness, MaskNet shape/gradient
// contracts, MaskWarmStart serialization + versioning, failpoint
// degradation, the paper-faithful bit-identity guarantee with the flag
// off, and a tiny end-to-end harvest -> train -> seeded-ILT fixture (the
// "warmstart"-labeled CTest subset; everything runs at a 32-pixel grid so
// the suite fits the TSan budget).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/failpoint.h"
#include "core/flow_engine.h"
#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "layout/generator.h"
#include "mpl/baselines.h"
#include "obs/metrics.h"
#include "opc/ilt.h"
#include "warmstart/corpus.h"
#include "warmstart/harvest.h"
#include "warmstart/masknet.h"
#include "warmstart/train.h"
#include "warmstart/warm_start.h"

namespace ldmo::warmstart {
namespace {

/// 32-pixel quick model over the generator's 1024nm clip.
litho::LithoConfig tiny_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 32;
  cfg.pixel_nm = 32.0;
  return cfg;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ldmo_warmstart_" + name;
}

ClipRecord make_record(int grid, float base) {
  const std::size_t n = static_cast<std::size_t>(grid) * grid;
  ClipRecord r;
  for (std::vector<float>* plane :
       {&r.target, &r.raster1, &r.raster2, &r.mask1, &r.mask2}) {
    plane->resize(n);
    for (std::size_t i = 0; i < n; ++i)
      (*plane)[i] = base + static_cast<float>(i % 7) * 0.125f;
    base += 0.5f;
  }
  return r;
}

TEST(Corpus, RoundTripsRecordsAcrossReopens) {
  const std::string path = temp_path("roundtrip.bin");
  std::remove(path.c_str());
  {
    CorpusWriter writer(path, 8);
    writer.append(make_record(8, 0.0f));
    writer.append(make_record(8, 1.0f));
    EXPECT_EQ(writer.appended(), 2u);
  }
  {
    // Append-only: reopening validates the header and extends the file.
    CorpusWriter writer(path, 8);
    writer.append(make_record(8, 2.0f));
  }
  EXPECT_EQ(corpus_record_count(path), 3u);
  const Corpus corpus = read_corpus(path);
  EXPECT_EQ(corpus.grid_size, 8);
  ASSERT_EQ(corpus.records.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    const ClipRecord want = make_record(8, static_cast<float>(k));
    EXPECT_EQ(corpus.records[static_cast<std::size_t>(k)].target, want.target);
    EXPECT_EQ(corpus.records[static_cast<std::size_t>(k)].raster1,
              want.raster1);
    EXPECT_EQ(corpus.records[static_cast<std::size_t>(k)].raster2,
              want.raster2);
    EXPECT_EQ(corpus.records[static_cast<std::size_t>(k)].mask1, want.mask1);
    EXPECT_EQ(corpus.records[static_cast<std::size_t>(k)].mask2, want.mask2);
  }
}

TEST(Corpus, RejectsBadMagicGridMismatchTruncationAndBitRot) {
  const std::string path = temp_path("corrupt.bin");
  std::remove(path.c_str());
  {
    CorpusWriter writer(path, 8);
    writer.append(make_record(8, 0.0f));
    writer.append(make_record(8, 1.0f));
  }

  // Grid mismatch: both the reopening writer and a reader opened with the
  // right grid still work; a writer at the wrong grid is rejected.
  EXPECT_THROW(CorpusWriter(path, 16), Error);

  // Truncation: chop 4 bytes off the tail -> no longer a whole number of
  // records; both entry points must refuse.
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    blob = buf.str();
  }
  const std::string truncated_path = temp_path("truncated.bin");
  std::ofstream(truncated_path, std::ios::binary)
      << blob.substr(0, blob.size() - 4);
  EXPECT_THROW(read_corpus(truncated_path), Error);
  EXPECT_THROW(corpus_record_count(truncated_path), Error);

  // Bit rot: flip one payload byte in the second record -> its FNV-1a
  // checksum mismatches and the whole read is rejected (a corrupt corpus
  // never trains a model halfway).
  std::string rotten = blob;
  rotten[rotten.size() - 64] ^= 0x01;
  const std::string rotten_path = temp_path("rotten.bin");
  std::ofstream(rotten_path, std::ios::binary) << rotten;
  EXPECT_THROW(read_corpus(rotten_path), Error);

  // Bad magic.
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  const std::string bad_magic_path = temp_path("badmagic.bin");
  std::ofstream(bad_magic_path, std::ios::binary) << bad_magic;
  EXPECT_THROW(read_corpus(bad_magic_path), Error);
  EXPECT_THROW(CorpusWriter(bad_magic_path, 8), Error);
}

TEST(Corpus, WriterReopensATornCorpusAfterItsLastWholeRecord) {
  // A harvest that crashed mid-append leaves a partial third record.
  const std::string path = temp_path("torn.bin");
  std::remove(path.c_str());
  {
    CorpusWriter writer(path, 8);
    for (int k = 0; k < 3; ++k)
      writer.append(make_record(8, static_cast<float>(k)));
  }
  const std::size_t record = 5 * 8 * 8 * sizeof(float) + 8;
  std::filesystem::resize_file(path, 12 + 2 * record + record / 2);
  EXPECT_THROW(read_corpus(path), Error);

  // The next harvest cuts the torn tail and appends after record 2.
  {
    CorpusWriter writer(path, 8);
    writer.append(make_record(8, 5.0f));
  }
  const Corpus corpus = read_corpus(path);
  ASSERT_EQ(corpus.records.size(), 3u);
  EXPECT_EQ(corpus.records[0].target, make_record(8, 0.0f).target);
  EXPECT_EQ(corpus.records[1].mask2, make_record(8, 1.0f).mask2);
  EXPECT_EQ(corpus.records[2].target, make_record(8, 5.0f).target);
  EXPECT_EQ(corpus.records[2].mask2, make_record(8, 5.0f).mask2);
  EXPECT_EQ(corpus_record_count(path), 3u);
}

TEST(MaskNetModel, ShapesAndEvalDeterminism) {
  MaskNetConfig cfg;
  cfg.grid_size = 16;
  cfg.base_width = 2;
  MaskNet net(cfg);
  Rng rng(7);
  const nn::Tensor input = nn::Tensor::randn({2, 3, 16, 16}, rng, 0.5f);
  nn::Tensor out1 = net.forward(input, /*training=*/false);
  ASSERT_EQ(out1.shape(), (std::vector<int>{2, 2, 16, 16}));
  nn::Tensor out2 = net.forward(input, /*training=*/false);
  EXPECT_EQ(out1, out2);
  EXPECT_THROW(net.forward(nn::Tensor::zeros({1, 3, 8, 8}), false), Error);
}

// Whole-model gradient check, covering the skip-concat routing and the
// cold-init residual's pass-through input gradient. Directional derivative
// of loss = sum(out * d) against central finite differences.
TEST(MaskNetModel, InputGradientMatchesFiniteDifference) {
  MaskNetConfig cfg;
  cfg.grid_size = 8;
  cfg.base_width = 2;
  MaskNet net(cfg);
  Rng rng(11);
  nn::Tensor input = nn::Tensor::randn({1, 3, 8, 8}, rng, 0.5f);
  const nn::Tensor direction = nn::Tensor::randn({1, 2, 8, 8}, rng, 1.0f);

  net.forward(input, /*training=*/true);
  const nn::Tensor grad_input = net.backward(direction);
  ASSERT_EQ(grad_input.shape(), input.shape());

  auto loss_at = [&](nn::Tensor probe) {
    const nn::Tensor out = net.forward(probe, /*training=*/false);
    double loss = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      loss += static_cast<double>(out[i]) * direction[i];
    return loss;
  };
  const float eps = 1e-2f;
  // A handful of probe indices across all three input channels.
  for (std::size_t i : {std::size_t{3}, std::size_t{40}, std::size_t{77},
                        std::size_t{100}, std::size_t{150}, std::size_t{190}}) {
    nn::Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd = (loss_at(plus) - loss_at(minus)) / (2.0 * eps);
    EXPECT_NEAR(grad_input[i], fd, 2e-2 + 2e-2 * std::abs(fd))
        << "input index " << i;
  }
}

TEST(MaskWarmStartModel, SaveLoadPreservesWeightsAndVersion) {
  MaskNetConfig cfg;
  cfg.grid_size = 16;
  cfg.base_width = 2;
  MaskWarmStart a(cfg);
  EXPECT_EQ(a.name(), "masknet");
  EXPECT_EQ(a.grid_size(), 16);
  EXPECT_NE(a.version(), 0u);

  const std::string path = temp_path("model.weights");
  a.save(path);
  MaskWarmStart b(cfg);
  b.load(path);
  EXPECT_EQ(a.version(), b.version());

  // Perturbing a weight changes the fingerprint after refresh_version(),
  // so caches keyed on the version retire.
  const std::uint64_t before = b.version();
  b.net().parameters().front()->value[0] += 1.0f;
  b.refresh_version();
  EXPECT_NE(b.version(), before);

  // Strict layout validation: a different base width cannot load.
  MaskNetConfig wide = cfg;
  wide.base_width = 3;
  MaskWarmStart c(wide);
  EXPECT_THROW(c.load(path), Error);
}

TEST(MaskWarmStartModel, SeedFillsGridsDeterministically) {
  const layout::Layout layout = layout::LayoutGenerator().generate(321);
  const layout::Assignment assignment =
      mpl::SpacingUniformityDecomposer().decompose(layout);
  MaskNetConfig cfg;
  cfg.grid_size = 32;
  cfg.base_width = 2;
  MaskWarmStart warm(cfg);

  GridF p1, p2;
  warm.seed(layout, assignment, p1, p2);
  ASSERT_EQ(p1.height(), 32);
  ASSERT_EQ(p1.width(), 32);
  ASSERT_EQ(p2.height(), 32);
  ASSERT_EQ(p2.width(), 32);
  GridF q1, q2;
  warm.seed(layout, assignment, q1, q2);
  EXPECT_EQ(p1, q1);
  EXPECT_EQ(p2, q2);
  // An untrained net is dominated by the cold-init residual, so the two
  // seeds reflect the two (different) decomposition rasters.
  EXPECT_NE(p1, p2);
}

// The paper-faithful guarantee: with warm_start.enabled == false, an
// installed initializer must leave the flow bit-identical to a run that
// never saw one.
TEST(WarmStartFlow, DisabledFlagIsBitIdentical) {
  const litho::LithoSimulator simulator(tiny_litho());
  core::RawPrintPredictor predictor(simulator);
  core::LdmoConfig cfg;
  cfg.ilt.max_iterations = 12;
  const opc::IltEngine engine(simulator, cfg.ilt);
  const layout::Layout layout = layout::LayoutGenerator().generate(555);

  const core::LdmoResult plain =
      core::run_ldmo_flow(engine, predictor, cfg, layout);
  ASSERT_FALSE(plain.failed);

  MaskNetConfig net_cfg;
  net_cfg.grid_size = 32;
  net_cfg.base_width = 2;
  MaskWarmStart warm(net_cfg);
  ASSERT_FALSE(cfg.warm_start.enabled);
  const core::LdmoResult with_model =
      core::run_ldmo_flow(engine, predictor, cfg, layout, {}, &warm);
  ASSERT_FALSE(with_model.failed);
  EXPECT_FALSE(with_model.warm_started);

  ASSERT_EQ(plain.ilt.mask1.size(), with_model.ilt.mask1.size());
  EXPECT_EQ(std::memcmp(plain.ilt.mask1.data(), with_model.ilt.mask1.data(),
                        plain.ilt.mask1.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(plain.ilt.mask2.data(), with_model.ilt.mask2.data(),
                        plain.ilt.mask2.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(plain.ilt.response.data(),
                        with_model.ilt.response.data(),
                        plain.ilt.response.size() * sizeof(double)),
            0);
}

// A firing warmstart.predict failpoint degrades every attempt to the cold
// init: the run still succeeds, just unseeded.
TEST(WarmStartFlow, PredictFailpointDegradesToColdInit) {
  core::FlowEngineConfig cfg;
  cfg.litho = tiny_litho();
  cfg.flow.ilt.max_iterations = 12;
  cfg.flow.warm_start.enabled = true;
  cfg.flow.warm_start.max_iterations = 6;
  core::FlowEngine engine(cfg);
  MaskNetConfig net_cfg;
  net_cfg.grid_size = 32;
  net_cfg.base_width = 2;
  engine.set_warm_start(std::make_shared<MaskWarmStart>(net_cfg));
  const layout::Layout layout = layout::LayoutGenerator().generate(777);

  fail::arm("warmstart.predict", fail::every_nth(1));
  const long long errors_before =
      obs::counter("warmstart.predict_errors").value();
  const core::LdmoResult degraded = engine.run(layout);
  fail::disarm_all();
  ASSERT_FALSE(degraded.failed);
  EXPECT_FALSE(degraded.warm_started);
  EXPECT_GT(obs::counter("warmstart.predict_errors").value(), errors_before);

  // Disarmed, the same engine seeds again.
  const core::LdmoResult seeded = engine.run(layout);
  ASSERT_FALSE(seeded.failed);
  EXPECT_TRUE(seeded.warm_started);
  EXPECT_LE(seeded.ilt.iterations_run, 6);
}

// Tiny end-to-end fixture: harvest 8 clips, train a short-budget model,
// and check the learned seed beats the paper's cold init — both as mask
// MSE and as the final ILT score at an equal, halved iteration budget.
TEST(WarmStartEndToEnd, SeededIltBeatsColdInitAtEqualBudget) {
  core::FlowEngineConfig cfg;
  cfg.litho = tiny_litho();
  cfg.flow.ilt.max_iterations = 20;
  const std::string corpus_path = temp_path("e2e.corpus");
  std::remove(corpus_path.c_str());

  {
    core::FlowEngine harvest_engine(cfg);
    HarvestConfig hcfg;
    hcfg.clip_count = 8;
    hcfg.seed0 = 4000;
    const HarvestStats stats =
        harvest_corpus(harvest_engine, hcfg, corpus_path);
    ASSERT_GE(stats.harvested, 6);
  }
  const Corpus corpus = read_corpus(corpus_path);
  ASSERT_EQ(corpus.grid_size, 32);

  MaskNetConfig net_cfg;
  net_cfg.grid_size = 32;
  net_cfg.base_width = 4;
  auto warm = std::make_shared<MaskWarmStart>(net_cfg);
  WarmTrainConfig tcfg;
  tcfg.epochs = 12;
  tcfg.batch_size = 2;
  train_masknet(warm->net(), corpus, tcfg);
  warm->refresh_version();

  // The trained net must beat the cold +/- initial_p init on its own
  // training clips (everything is deterministic, so no flake margin).
  const double learned = evaluate_masknet(warm->net(), corpus, tcfg.theta_m);
  const double cold = cold_init_loss(corpus, tcfg.theta_m);
  EXPECT_LT(learned, cold);

  // Equal halved budget, held-out clip: the learned seed must land at an
  // equal-or-better final score than the cold init.
  core::FlowEngineConfig half = cfg;
  half.flow.ilt.max_iterations = 10;
  core::FlowEngine cold_engine(half);
  core::FlowEngineConfig warm_half = half;
  warm_half.flow.warm_start.enabled = true;
  warm_half.flow.warm_start.max_iterations = 10;
  core::FlowEngine warm_engine(warm_half);
  warm_engine.set_warm_start(warm);

  const layout::Layout holdout = layout::LayoutGenerator().generate(6100);
  const core::LdmoResult cold_run = cold_engine.run(holdout);
  const core::LdmoResult warm_run = warm_engine.run(holdout);
  ASSERT_FALSE(cold_run.failed);
  ASSERT_FALSE(warm_run.failed);
  EXPECT_TRUE(warm_run.warm_started);
  EXPECT_EQ(warm_engine.session().warm_started_runs, 1);
  EXPECT_LE(warm_run.ilt.report.score(), cold_run.ilt.report.score());
}

}  // namespace
}  // namespace ldmo::warmstart
