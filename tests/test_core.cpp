// Tests for the core module: predictors and the three end-to-end flows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/baseline_flows.h"
#include "core/flow_engine.h"
#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "kernels/kernels.h"
#include "layout/generator.h"
#include "mpl/baselines.h"
#include "mpl/decomposition_generator.h"
#include "obs/json.h"

#include "backend_sweep.h"

namespace ldmo::core {
namespace {

using testutil::BackendGuard;

litho::LithoConfig fast_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  cfg.kernel_count = 4;
  return cfg;
}

const litho::LithoSimulator& shared_simulator() {
  static litho::LithoSimulator sim(fast_litho());
  return sim;
}

opc::IltConfig fast_ilt() {
  opc::IltConfig cfg;
  cfg.max_iterations = 8;
  return cfg;
}

layout::Layout test_layout(std::uint64_t seed = 9) {
  layout::LayoutGenerator gen;
  return gen.generate(seed);
}

// A deterministic fake predictor with a recorded call count.
class CountingPredictor : public PrintabilityPredictor {
 public:
  double score(const layout::Layout& /*layout*/,
               const layout::Assignment& assignment) override {
    ++calls;
    // Prefer balanced assignments: |#mask1 - #mask2| as the score.
    int ones = 0;
    for (int v : assignment) ones += v;
    return std::abs(static_cast<int>(assignment.size()) - 2 * ones);
  }
  std::string name() const override { return "counting"; }
  int calls = 0;
};

TEST(Predictors, RawPrintRanksConflictSplitBetter) {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({412, 480}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({547, 480}, 65, 65));  // 70nm gap
  RawPrintPredictor predictor(shared_simulator());
  EXPECT_LT(predictor.score(l, {0, 1}), predictor.score(l, {0, 0}));
}

TEST(Predictors, IltOracleMatchesDirectOptimization) {
  const layout::Layout l = test_layout();
  opc::IltEngine engine(shared_simulator(), fast_ilt());
  IltOraclePredictor oracle(engine);
  layout::Assignment alt(static_cast<std::size_t>(l.pattern_count()), 0);
  for (int i = 0; i < l.pattern_count(); ++i) alt[static_cast<std::size_t>(i)] = i % 2;
  const double via_predictor = oracle.score(l, alt);
  const double direct = engine.optimize(l, alt).report.score();
  EXPECT_DOUBLE_EQ(via_predictor, direct);
}

TEST(Predictors, CnnPredictorScoresAndSerializes) {
  nn::ResNetConfig ncfg;
  ncfg.input_size = 32;
  ncfg.width_multiplier = 0.125;
  CnnPredictor predictor(std::make_unique<nn::ResNetRegressor>(ncfg));
  const layout::Layout l = test_layout();
  layout::Assignment a(static_cast<std::size_t>(l.pattern_count()), 0);
  const double s1 = predictor.score(l, a);
  const double s2 = predictor.score(l, a);
  EXPECT_DOUBLE_EQ(s1, s2);  // eval mode is deterministic

  const std::string path = "test_core_predictor.bin";
  predictor.save(path);
  CnnPredictor other(std::make_unique<nn::ResNetRegressor>(ncfg));
  other.load(path);
  EXPECT_DOUBLE_EQ(other.score(l, a), s1);
  std::remove(path.c_str());
}

// A seeded 64-px network with every parameter nudged off its
// initialization and BatchNorm running statistics moved by three
// training-mode forwards, so eval-mode BatchNorm sees gamma != 1,
// beta != 0, mean != 0 and var != 1: a reassociated eval formula shows.
std::unique_ptr<nn::ResNetRegressor> perturbed_network() {
  auto net = std::make_unique<nn::ResNetRegressor>();
  std::size_t k = 0;
  for (nn::Parameter* p : net->parameters())
    for (std::size_t i = 0; i < p->value.size(); ++i, ++k)
      p->value[i] += 0.01f * static_cast<float>(static_cast<int>(k % 13) - 6);
  Rng rng(41);
  const nn::Tensor batch = nn::Tensor::randn({4, 1, 64, 64}, rng, 0.5f);
  for (int i = 0; i < 3; ++i) (void)net->forward(batch, /*training=*/true);
  return net;
}

TEST(Predictors, CnnScoreBatchMatchesPinnedDigests) {
  // FNV-1a over the bits of every score of one clip's candidates, per
  // backend, recorded with the batch-at-a-time Tensor forward (fixed
  // batches of 16, so this clip's 17th candidate and on ran as a second
  // batch). Per-sample whole-network inference must reproduce every bit.
  // The dot-product reduction is lane-parallel on SIMD backends, so each
  // backend has its own digest.
  BackendGuard guard;
  const layout::Layout l = test_layout(23);
  const std::vector<layout::Assignment> candidates =
      mpl::generate_decompositions(l).candidates;
  ASSERT_GT(candidates.size(), 16u);
  CnnPredictor predictor(perturbed_network());
  struct Pin {
    kernels::Backend backend;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {kernels::Backend::kGeneric, 0xc38036e86711d382ull},
      {kernels::Backend::kAvx2, 0x368355794a950d08ull},
      {kernels::Backend::kAvx512, 0x33ad24be659b61b8ull},
  };
  for (kernels::Backend backend : testutil::usable_backends()) {
    kernels::select(backend);
    common::Fnv1a hash;
    for (double s : predictor.score_batch(l, candidates)) hash.f64(s);
    const Pin* pin = nullptr;
    for (const Pin& p : pins)
      if (p.backend == backend) pin = &p;
    if (pin == nullptr) continue;  // no digest recorded for this backend
    EXPECT_EQ(hash.digest(), pin->digest)
        << kernels::to_string(backend) << " 0x" << std::hex << hash.digest();
  }
}

TEST(LdmoFlowTest, ProducesMasksAndTiming) {
  const layout::Layout l = test_layout();
  CountingPredictor predictor;
  LdmoConfig config;
  config.ilt = fast_ilt();
  LdmoFlow flow(shared_simulator(), predictor, config);
  const LdmoResult result = flow.run(l);

  EXPECT_GT(result.candidates_generated, 1);
  EXPECT_EQ(predictor.calls, result.candidates_generated);
  EXPECT_GE(result.candidates_tried, 1);
  EXPECT_EQ(result.chosen.size(),
            static_cast<std::size_t>(l.pattern_count()));
  EXPECT_GT(result.timing.get("generate"), 0.0);
  EXPECT_GT(result.timing.get("predict"), 0.0);
  EXPECT_GT(result.timing.get("ilt"), 0.0);
  EXPECT_GT(result.total_seconds, 0.0);
  // Masks exist and are binary.
  EXPECT_EQ(result.ilt.mask1.height(), shared_simulator().grid_size());
}

TEST(LdmoFlowTest, FallbackBoundedByConfig) {
  const layout::Layout l = test_layout(31);
  CountingPredictor predictor;
  LdmoConfig config;
  config.ilt = fast_ilt();
  config.max_fallbacks = 0;  // exactly one ILT attempt allowed
  LdmoFlow flow(shared_simulator(), predictor, config);
  const LdmoResult result = flow.run(l);
  EXPECT_EQ(result.candidates_tried, 1);
  EXPECT_FALSE(result.ilt.aborted_on_violation);  // final attempt completes
}

// A predictor whose every scoring call throws a plain std::runtime_error —
// the shape of a real backend bug, untagged by any FlowException.
class BrokenPredictor : public PrintabilityPredictor {
 public:
  double score(const layout::Layout&, const layout::Assignment&) override {
    throw std::runtime_error("scoring backend down");
  }
  std::string name() const override { return "broken"; }
};

TEST(LdmoFlowTest, PredictorFailureDegradesByDefault) {
  const layout::Layout l = test_layout(33);
  BrokenPredictor predictor;
  LdmoConfig config;
  config.ilt = fast_ilt();
  LdmoFlow flow(shared_simulator(), predictor, config);
  // No exception escapes: the run degrades to generation-order ranking and
  // still produces finalized masks.
  const LdmoResult result = flow.run(l);
  EXPECT_FALSE(result.failed);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.candidates_tried, 0);
  EXPECT_EQ(result.ilt.mask1.height(), shared_simulator().grid_size());
}

TEST(LdmoFlowTest, PredictorFailureFailsWhenDegradeDisabled) {
  const layout::Layout l = test_layout(33);
  BrokenPredictor predictor;
  LdmoConfig config;
  config.ilt = fast_ilt();
  config.degrade_on_predict_failure = false;
  LdmoFlow flow(shared_simulator(), predictor, config);
  const LdmoResult result = flow.run(l);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.error.stage, FlowStage::kPredict);
  EXPECT_NE(result.error.message.find("scoring backend down"),
            std::string::npos);
  // Failed runs carry timing but no masks.
  EXPECT_EQ(result.candidates_tried, 0);
}

TEST(LdmoFlowTest, OraclePredictorBeatsAdversarialOracle) {
  // With fallbacks disabled, the flow's final quality is exactly the
  // quality of the predictor's top-ranked candidate, so the true-score
  // oracle must do at least as well as its negation (which deliberately
  // picks the worst candidate). Note that a RAW-print predictor would NOT
  // pass this test — pre-OPC printability mispredicts post-ILT quality,
  // which is precisely the paper's Fig. 1(b) motivation for learning the
  // post-ILT score.
  class Negated : public PrintabilityPredictor {
   public:
    explicit Negated(PrintabilityPredictor& inner) : inner_(inner) {}
    double score(const layout::Layout& l,
                 const layout::Assignment& a) override {
      return -inner_.score(l, a);
    }
    std::string name() const override { return "negated"; }

   private:
    PrintabilityPredictor& inner_;
  };

  const layout::Layout l = test_layout(12);
  opc::IltEngine engine(shared_simulator(), fast_ilt());
  IltOraclePredictor good(engine);
  Negated bad(good);
  LdmoConfig config;
  config.ilt = fast_ilt();
  config.max_fallbacks = 0;
  const LdmoResult good_result =
      LdmoFlow(shared_simulator(), good, config).run(l);
  const LdmoResult bad_result =
      LdmoFlow(shared_simulator(), bad, config).run(l);
  EXPECT_LE(good_result.ilt.report.score(), bad_result.ilt.report.score());
}

TEST(FlowEngineTest, RunMatchesTheLdmoFlowShimBitwise) {
  // FlowEngine owns its own simulator/predictor stack, but the kernels
  // come from the process cache and the pipeline is the same free
  // function, so a session run must reproduce the shim bit-for-bit.
  const layout::Layout l = test_layout();
  FlowEngineConfig config;
  config.litho = fast_litho();
  config.flow.ilt = fast_ilt();
  FlowEngine engine(config);
  const LdmoResult session_result = engine.run(l);

  RawPrintPredictor raw(shared_simulator());
  LdmoFlow shim(shared_simulator(), raw, config.flow);
  const LdmoResult shim_result = shim.run(l);

  EXPECT_EQ(session_result.chosen, shim_result.chosen);
  ASSERT_TRUE(session_result.ilt.mask1.same_shape(shim_result.ilt.mask1));
  for (std::size_t i = 0; i < session_result.ilt.mask1.size(); ++i) {
    EXPECT_EQ(session_result.ilt.mask1[i], shim_result.ilt.mask1[i]);
    EXPECT_EQ(session_result.ilt.mask2[i], shim_result.ilt.mask2[i]);
  }
  EXPECT_EQ(session_result.ilt.report.score(),
            shim_result.ilt.report.score());
}

TEST(FlowEngineTest, RunManyAccumulatesSessionStats) {
  FlowEngineConfig config;
  config.litho = fast_litho();
  config.flow.ilt = fast_ilt();
  FlowEngine engine(config);
  engine.warmup();  // must not count as a run
  EXPECT_EQ(engine.session().runs, 0);

  const std::vector<layout::Layout> layouts = {test_layout(9),
                                               test_layout(31)};
  const std::vector<LdmoResult> results = engine.run_many(layouts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(engine.session().runs, 2);
  ASSERT_EQ(engine.session().history.size(), 2u);
  EXPECT_EQ(engine.session().history[0].layout, layouts[0].name);
  EXPECT_GT(engine.session().total_seconds, 0.0);
  EXPECT_GE(engine.session().candidates_generated, 2);
  EXPECT_GE(engine.session().candidates_tried, 2);
  EXPECT_EQ(engine.session().history[1].candidates_tried,
            results[1].candidates_tried);
}

TEST(FlowEngineTest, SessionReportCarriesHistoryAndWorkspaceGauges) {
  FlowEngineConfig config;
  config.litho = fast_litho();
  config.flow.ilt = fast_ilt();
  FlowEngine engine(config);
  (void)engine.run(test_layout());

  const obs::JsonValue doc = obs::parse_json(engine.session_report().to_json());
  const obs::JsonValue* session = doc.find("session");
  ASSERT_NE(session, nullptr);
  ASSERT_NE(session->find("runs"), nullptr);
  EXPECT_EQ(session->find("runs")->number, 1.0);
  ASSERT_NE(session->find("history"), nullptr);
  ASSERT_EQ(session->find("history")->array.size(), 1u);
  // Pool gauges were published into the metric snapshot by the report.
  const obs::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* gauges = metrics->find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("workspace.pooled_bytes"), nullptr);
  EXPECT_GT(gauges->find("workspace.pooled_bytes")->number, 0.0);
}

TEST(FlowEngineTest, GenericBackendRunsMatchPinnedDigests) {
  // End-to-end pin of the flow's numerics on the generic backend, the one
  // every host has: an FNV-1a digest of each seed's final mask bytes and
  // the bits of its score, recorded with the full-grid SOCS arithmetic.
  // The band-limited imaging path must reproduce both exactly.
  BackendGuard guard;
  kernels::select(kernels::Backend::kGeneric);
  FlowEngineConfig config;
  config.litho.grid_size = 64;
  config.litho.pixel_nm = 16.0;
  FlowEngine engine(config);
  struct Pin {
    std::uint64_t seed;
    std::uint64_t mask_digest;
    std::uint64_t score_bits;
  };
  const Pin pins[] = {
      {7, 0x670dd9b1781a5745ull, 0x40e8ecca33039d3eull},
      {9, 0xde3e225b2c081e45ull, 0x40ee0f5a85554045ull},
      {31, 0xc6094a7a4ab64438ull, 0x40d8ef243731264cull},
  };
  for (const Pin& pin : pins) {
    const LdmoResult result = engine.run(test_layout(pin.seed));
    ASSERT_FALSE(result.failed) << "seed " << pin.seed;
    const GridF& m1 = result.ilt.mask1;
    const GridF& m2 = result.ilt.mask2;
    const std::uint64_t digest =
        common::Fnv1a()
            .bytes(m1.data(), m1.size() * sizeof(double))
            .bytes(m2.data(), m2.size() * sizeof(double))
            .digest();
    const std::uint64_t score_bits =
        std::bit_cast<std::uint64_t>(result.ilt.report.score());
    EXPECT_EQ(digest, pin.mask_digest)
        << "seed " << pin.seed << " masks 0x" << std::hex << digest;
    EXPECT_EQ(score_bits, pin.score_bits)
        << "seed " << pin.seed << " score 0x" << std::hex << score_bits;
  }
}

TEST(FlowEngineTest, AdoptsCallerPredictor) {
  FlowEngineConfig config;
  config.litho = fast_litho();
  config.flow.ilt = fast_ilt();
  auto counting = std::make_unique<CountingPredictor>();
  CountingPredictor* counting_raw = counting.get();
  FlowEngine engine(config, std::move(counting));
  const LdmoResult result = engine.run(test_layout());
  EXPECT_EQ(counting_raw->calls, result.candidates_generated);
}

TEST(TwoStageFlowTest, RunsBothBaselineDecomposers) {
  const layout::Layout l = test_layout();
  for (const auto& decomposer :
       {TwoStageFlow::Decomposer([](const layout::Layout& layout) {
          return mpl::SpacingUniformityDecomposer().decompose(layout);
        }),
        TwoStageFlow::Decomposer([](const layout::Layout& layout) {
          return mpl::BalancedDecomposer().decompose(layout);
        })}) {
    TwoStageFlow flow(shared_simulator(), decomposer, fast_ilt());
    const BaselineFlowResult result = flow.run(l);
    EXPECT_EQ(result.chosen.size(),
              static_cast<std::size_t>(l.pattern_count()));
    EXPECT_GT(result.timing.get("mo"), 0.0);
    EXPECT_GT(result.total_seconds, 0.0);
  }
}

TEST(UnifiedGreedyFlowTest, PrunesPoolAndSplitsTiming) {
  const layout::Layout l = test_layout();
  UnifiedGreedyConfig config;
  config.ilt = fast_ilt();
  config.initial_pool = 4;
  UnifiedGreedyFlow flow(shared_simulator(), config);
  const BaselineFlowResult result = flow.run(l);
  EXPECT_EQ(result.chosen.size(),
            static_cast<std::size_t>(l.pattern_count()));
  // The hallmark of [10]: decomposition selection consumes real time
  // alongside mask optimization (Fig. 1(c) breakdown).
  EXPECT_GT(result.timing.get("ds"), 0.0);
  EXPECT_GT(result.timing.get("mo"), 0.0);
}

TEST(UnifiedGreedyFlowTest, RejectsBadConfig) {
  UnifiedGreedyConfig bad;
  bad.keep_fraction = 1.0;
  EXPECT_THROW(UnifiedGreedyFlow(shared_simulator(), bad), ldmo::Error);
  bad = UnifiedGreedyConfig{};
  bad.initial_pool = 0;
  EXPECT_THROW(UnifiedGreedyFlow(shared_simulator(), bad), ldmo::Error);
}

TEST(UnifiedGreedyFlowTest, SlowerThanOurFlowPerLayout) {
  // The runtime relation Table I reports: the unified baseline pays for
  // lithography-based selection; our flow predicts instead.
  const layout::Layout l = test_layout(17);
  CountingPredictor predictor;
  LdmoConfig ours_config;
  ours_config.ilt = fast_ilt();
  ours_config.max_fallbacks = 0;
  const LdmoResult ours =
      LdmoFlow(shared_simulator(), predictor, ours_config).run(l);

  UnifiedGreedyConfig unified_config;
  unified_config.ilt = fast_ilt();
  unified_config.initial_pool = 6;
  const BaselineFlowResult unified =
      UnifiedGreedyFlow(shared_simulator(), unified_config).run(l);
  EXPECT_GT(unified.total_seconds, ours.total_seconds);
}

}  // namespace
}  // namespace ldmo::core
