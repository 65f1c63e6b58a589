// End-to-end integration tests: the complete paper pipeline at miniature
// scale — corpus generation -> sampling -> ILT labeling -> CNN training ->
// CNN-driven LDMO flow — plus cross-module consistency checks.
#include <gtest/gtest.h>

#include <memory>

#include "core/baseline_flows.h"
#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "layout/generator.h"
#include "mpl/baselines.h"
#include "mpl/decomposition_generator.h"
#include "nn/trainer.h"
#include "sampling/decomposition_sampling.h"
#include "sampling/layout_sampling.h"
#include "sampling/training_set.h"

namespace ldmo {
namespace {

litho::LithoConfig tiny_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  cfg.kernel_count = 4;
  return cfg;
}

const litho::LithoSimulator& simulator() {
  static litho::LithoSimulator sim(tiny_litho());
  return sim;
}

opc::IltConfig quick_ilt() {
  opc::IltConfig cfg;
  cfg.max_iterations = 10;
  cfg.theta_m_anneal = 1.25;  // reach full binarization in 10 iterations
  return cfg;
}

TEST(Integration, FullCnnPipelineRunsEndToEnd) {
  // 1. Corpus + layout sampling.
  layout::LayoutGenerator gen;
  const std::vector<layout::Layout> corpus = gen.generate_corpus(6, 700);
  sampling::LayoutSamplingConfig lcfg;
  lcfg.clusters = 2;
  lcfg.per_cluster = 1;
  const auto selection = sampling::sample_layouts(corpus, lcfg);
  ASSERT_GE(selection.selected.size(), 1u);

  // 2. Decomposition sampling + labeling.
  std::vector<layout::Layout> layouts;
  std::vector<std::vector<layout::Assignment>> decomps;
  for (int idx : selection.selected) {
    layouts.push_back(corpus[static_cast<std::size_t>(idx)]);
    sampling::DecompositionSamplingConfig dcfg;
    dcfg.max_samples = 4;
    decomps.push_back(sampling::sample_decompositions(layouts.back(), dcfg));
  }
  opc::IltEngine engine(simulator(), quick_ilt());
  sampling::TrainingSetConfig tcfg;
  tcfg.image_size = 32;
  const sampling::TrainingSet set =
      sampling::build_training_set(layouts, decomps, engine, tcfg);
  ASSERT_GE(set.examples.size(), 4u);

  // 3. CNN training.
  nn::ResNetConfig ncfg;
  ncfg.input_size = 32;
  ncfg.width_multiplier = 0.125;
  auto network = std::make_unique<nn::ResNetRegressor>(ncfg);
  nn::TrainerConfig train_cfg;
  train_cfg.epochs = 3;
  const auto history = nn::train_regressor(*network, set.examples, train_cfg);
  EXPECT_EQ(history.size(), 3u);

  // 4. CNN-driven flow on a held-out layout.
  core::CnnPredictor predictor(std::move(network));
  core::LdmoConfig flow_cfg;
  flow_cfg.ilt = quick_ilt();
  core::LdmoFlow flow(simulator(), predictor, flow_cfg);
  const core::LdmoResult result = flow.run(gen.generate(800));
  EXPECT_GT(result.candidates_generated, 0);
  EXPECT_FALSE(result.ilt.mask1.empty());
  // The flow must produce a full metrology report.
  EXPECT_FALSE(result.ilt.report.epe.measurements.empty());
}

TEST(Integration, AllFlowsAgreeOnLayoutGeometry) {
  // Every flow must return masks of the simulator grid and an assignment
  // of the layout's size, whatever path it took.
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(801);
  const int n = simulator().grid_size();

  core::TwoStageFlow two_stage(
      simulator(),
      [](const layout::Layout& layout) {
        return mpl::BalancedDecomposer().decompose(layout);
      },
      quick_ilt());
  const auto r1 = two_stage.run(l);
  EXPECT_EQ(r1.ilt.mask1.height(), n);
  EXPECT_EQ(static_cast<int>(r1.chosen.size()), l.pattern_count());

  core::UnifiedGreedyConfig ucfg;
  ucfg.ilt = quick_ilt();
  ucfg.initial_pool = 3;
  core::UnifiedGreedyFlow unified(simulator(), ucfg);
  const auto r2 = unified.run(l);
  EXPECT_EQ(r2.ilt.mask2.width(), n);
  EXPECT_EQ(static_cast<int>(r2.chosen.size()), l.pattern_count());

  core::RawPrintPredictor predictor(simulator());
  core::LdmoConfig lcfg;
  lcfg.ilt = quick_ilt();
  core::LdmoFlow ours(simulator(), predictor, lcfg);
  const auto r3 = ours.run(l);
  EXPECT_EQ(r3.ilt.response.height(), n);
  EXPECT_EQ(static_cast<int>(r3.chosen.size()), l.pattern_count());
}

TEST(Integration, MasksUnionCoversEveryPattern) {
  // Physical sanity across the whole stack: after any flow, every target
  // pattern must be covered by opening(s) in at least one mask.
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(802);
  core::RawPrintPredictor predictor(simulator());
  core::LdmoConfig cfg;
  cfg.ilt = quick_ilt();
  core::LdmoFlow flow(simulator(), predictor, cfg);
  const core::LdmoResult result = flow.run(l);

  const layout::RasterTransform t = simulator().transform_for(l);
  for (const layout::Pattern& p : l.patterns) {
    const int cx = static_cast<int>(
        t.to_px_x(static_cast<double>(p.shape.center().x)));
    const int cy = static_cast<int>(
        t.to_px_y(static_cast<double>(p.shape.center().y)));
    const double coverage =
        result.ilt.mask1.at(cy, cx) + result.ilt.mask2.at(cy, cx);
    EXPECT_GT(coverage, 0.0) << "pattern " << p.id << " lost by the flow";
  }
}

TEST(Integration, ScoreRanksTrackEpeRanks) {
  // The Eq. 9 score must rank candidates consistently with EPE counts when
  // violation counts are equal — the property the CNN learns against.
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(803);
  opc::IltEngine engine(simulator(), quick_ilt());
  const auto candidates = sampling::random_decompositions(l, 6, 3);
  litho::PrintabilityReport best_report;
  double best_score = 1e300;
  int best_epe = -1;
  for (const auto& c : candidates) {
    const auto report = engine.optimize(l, c).report;
    if (report.score() < best_score) {
      best_score = report.score();
      best_report = report;
      best_epe = report.epe.violation_count;
    }
  }
  // The best-scoring candidate can't have more EPE violations than every
  // other candidate when its violation term is minimal.
  for (const auto& c : candidates) {
    const auto report = engine.optimize(l, c).report;
    if (report.violations.total() == best_report.violations.total()) {
      EXPECT_LE(best_epe, report.epe.violation_count + 1);
    }
  }
}

}  // namespace
}  // namespace ldmo
