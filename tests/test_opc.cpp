// Tests for the ILT engine: initialization, loss descent, convergence on
// printable decompositions, violation-triggered aborts, trajectories and
// the edge-weighted loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <iterator>
#include <vector>

#include "backend_sweep.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "layout/generator.h"
#include "layout/raster.h"
#include "litho/resist.h"
#include "opc/ilt.h"

namespace ldmo::opc {
namespace {

litho::LithoConfig test_litho_config() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  cfg.kernel_count = 5;
  return cfg;
}

const litho::LithoSimulator& shared_simulator() {
  static litho::LithoSimulator sim(test_litho_config());
  return sim;
}

layout::Layout isolated_contact() {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({480, 480}, 65, 65));
  return l;
}

layout::Layout contact_pair(std::int64_t gap) {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({430, 480}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({495 + gap, 480}, 65, 65));
  return l;
}

TEST(IltConfigTest, RejectsBadParameters) {
  IltConfig bad;
  bad.max_iterations = 0;
  EXPECT_THROW(IltEngine(shared_simulator(), bad), ldmo::Error);
  bad = IltConfig{};
  bad.step_decay = 1.5;
  EXPECT_THROW(IltEngine(shared_simulator(), bad), ldmo::Error);
  bad = IltConfig{};
  bad.violation_check_interval = 0;
  EXPECT_THROW(IltEngine(shared_simulator(), bad), ldmo::Error);
}

TEST(IltInit, ParameterSignsFollowAssignment) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = contact_pair(120);
  const IltState state = engine.init_state(l, {0, 1});
  const layout::RasterTransform t{l.clip, shared_simulator().grid_size()};
  // Center pixel of pattern 0 (mask 1): p[0] positive, p[1] negative.
  const int cx0 = static_cast<int>(t.to_px_x(430 + 32));
  const int cy0 = static_cast<int>(t.to_px_y(480 + 32));
  EXPECT_GT(state.p[0].at(cy0, cx0), 0.0);
  EXPECT_LT(state.p[1].at(cy0, cx0), 0.0);
  // Background: both negative.
  EXPECT_LT(state.p[0].at(2, 2), 0.0);
  EXPECT_LT(state.p[1].at(2, 2), 0.0);
}

TEST(IltInit, AssignmentSizeMismatchThrows) {
  IltEngine engine(shared_simulator());
  EXPECT_THROW(engine.init_state(isolated_contact(), {0, 1}), ldmo::Error);
}

TEST(IltStep, LossDecreasesOverOptimization) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = contact_pair(120);
  const GridF target =
      layout::rasterize_target(l, shared_simulator().grid_size());
  IltState state = engine.init_state(l, {0, 1});
  engine.step(state, target);
  const double first_loss = state.last_loss;
  for (int i = 0; i < 14; ++i) engine.step(state, target);
  engine.step(state, target);
  EXPECT_LT(state.last_loss, first_loss);
}

TEST(IltStep, ScratchOverloadIsBitIdenticalToWrapper) {
  // The pooled/scratch step must reproduce the allocation-per-call wrapper
  // exactly — the PR-2 determinism contract extended to the workspace layer.
  IltEngine engine(shared_simulator());
  const layout::Layout l = contact_pair(110);
  const GridF target =
      layout::rasterize_target(l, shared_simulator().grid_size());
  IltState plain = engine.init_state(l, {0, 1});
  IltState pooled = engine.init_state(l, {0, 1});
  IltScratch scratch;
  for (int i = 0; i < 4; ++i) {
    engine.step(plain, target);
    engine.step(pooled, target, scratch);
    ASSERT_EQ(pooled.last_loss, plain.last_loss) << "iteration " << i;
    EXPECT_EQ(pooled.current_step, plain.current_step);
    EXPECT_EQ(pooled.current_theta_m, plain.current_theta_m);
    for (std::size_t j = 0; j < plain.p[0].size(); ++j) {
      ASSERT_EQ(pooled.p[0][j], plain.p[0][j]) << "iteration " << i;
      ASSERT_EQ(pooled.p[1][j], plain.p[1][j]) << "iteration " << i;
    }
  }
}

TEST(IltOptimize, IsolatedContactConverges) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = isolated_contact();
  const IltResult result = engine.optimize(l, {0});
  EXPECT_EQ(result.report.violations.total(), 0);
  EXPECT_EQ(result.report.epe.violation_count, 0)
      << "max EPE " << result.report.epe.max_epe_nm;
  EXPECT_FALSE(result.aborted_on_violation);
  EXPECT_EQ(result.iterations_run, engine.config().max_iterations);
}

TEST(IltOptimize, ImprovesVpPairOverRawPrint) {
  // Two contacts in the VP interaction band (gap between nmin and nmax) on
  // the same mask: printable, but with proximity distortion ILT must reduce.
  IltEngine engine(shared_simulator());
  const layout::Layout l = contact_pair(90);
  const layout::Assignment same_mask = {0, 0};

  const GridF raw = shared_simulator().print_decomposition(l, same_mask);
  const litho::PrintabilityReport raw_report =
      shared_simulator().evaluate(raw, l);

  const IltResult optimized = engine.optimize(l, same_mask);
  EXPECT_LE(optimized.report.score(), raw_report.score());
}

TEST(IltOptimize, SplitConflictPairConverges) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = contact_pair(72);  // below nmin
  const IltResult result = engine.optimize(l, {0, 1});
  EXPECT_EQ(result.report.violations.total(), 0);
  EXPECT_EQ(result.report.epe.violation_count, 0)
      << "max EPE " << result.report.epe.max_epe_nm;
}

TEST(IltOptimize, AbortsOnViolatingDecomposition) {
  // Same-mask conflict pair: the print violation fires at an early periodic
  // check and the abort flag comes back set.
  IltEngine engine(shared_simulator());
  const layout::Layout l = contact_pair(72);
  const IltResult result =
      engine.optimize(l, {0, 0}, /*abort_on_violation=*/true);
  if (result.aborted_on_violation) {
    EXPECT_LT(result.iterations_run, engine.config().max_iterations);
    EXPECT_EQ(result.iterations_run % engine.config().violation_check_interval,
              0);
  } else {
    // If ILT somehow rescued it, the final report must then be clean.
    EXPECT_EQ(result.report.violations.total(), 0);
  }
}

TEST(IltOptimize, TrajectoryRecordsEveryIteration) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = isolated_contact();
  const IltResult result =
      engine.optimize(l, {0}, /*abort_on_violation=*/false,
                      /*record_trajectory=*/true);
  ASSERT_EQ(result.trajectory.size(),
            static_cast<std::size_t>(engine.config().max_iterations));
  for (std::size_t i = 0; i < result.trajectory.size(); ++i)
    EXPECT_EQ(result.trajectory[i].iteration, static_cast<int>(i) + 1);
  // Final trajectory point agrees with a from-scratch evaluation direction:
  // EPE count at the end should be no worse than at the start.
  EXPECT_LE(result.trajectory.back().epe_violations,
            result.trajectory.front().epe_violations);
}

TEST(IltOptimize, DeterministicAcrossRuns) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = contact_pair(100);
  const IltResult a = engine.optimize(l, {0, 1});
  const IltResult b = engine.optimize(l, {0, 1});
  EXPECT_EQ(a.report.epe.violation_count, b.report.epe.violation_count);
  EXPECT_DOUBLE_EQ(a.report.l2, b.report.l2);
  EXPECT_EQ(a.mask1, b.mask1);
}

TEST(IltFinalize, MatchesOptimizeTail) {
  // finalize(state) after manually stepping must agree with the report an
  // optimize() run produces for the same schedule.
  IltEngine engine(shared_simulator());
  const layout::Layout l = isolated_contact();
  const GridF target =
      layout::rasterize_target(l, shared_simulator().grid_size());
  IltState state = engine.init_state(l, {0});
  for (int i = 0; i < engine.config().max_iterations; ++i)
    engine.step(state, target);
  const IltResult via_finalize = engine.finalize(state, l);
  const IltResult via_optimize = engine.optimize(l, {0});
  EXPECT_EQ(via_finalize.report.epe.violation_count,
            via_optimize.report.epe.violation_count);
  EXPECT_DOUBLE_EQ(via_finalize.report.l2, via_optimize.report.l2);
  EXPECT_EQ(via_finalize.mask1, via_optimize.mask1);
}

TEST(IltFinalize, PicksBestThreshold) {
  // With a deliberately bad threshold in front, the search must not return
  // a worse result than the plain 0.0 threshold.
  IltConfig cfg;
  cfg.max_iterations = 6;
  cfg.binarize_thresholds = {0.9, 0.0};  // 0.9 wipes out most of the mask
  IltEngine engine(shared_simulator(), cfg);
  IltConfig plain = cfg;
  plain.binarize_thresholds = {0.0};
  IltEngine plain_engine(shared_simulator(), plain);
  const layout::Layout l = isolated_contact();
  EXPECT_LE(engine.optimize(l, {0}).report.score(),
            plain_engine.optimize(l, {0}).report.score());
}

TEST(IltState, ThetaAnnealGrowsPerStep) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = isolated_contact();
  const GridF target =
      layout::rasterize_target(l, shared_simulator().grid_size());
  IltState state = engine.init_state(l, {0});
  const double theta0 = state.current_theta_m;
  engine.step(state, target);
  EXPECT_NEAR(state.current_theta_m,
              theta0 * engine.config().theta_m_anneal, 1e-12);
}

TEST(IltBinarize, ThresholdsAtZero) {
  IltEngine engine(shared_simulator());
  GridF p(1, 3);
  p.at(0, 0) = -0.4;
  p.at(0, 1) = 0.0;
  p.at(0, 2) = 0.7;
  const GridF m = engine.binarize_parameters(p);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.0);
}

TEST(IltOptimize, MasksStayWithinGrid) {
  IltEngine engine(shared_simulator());
  const layout::Layout l = isolated_contact();
  const IltResult result = engine.optimize(l, {0});
  const int n = shared_simulator().grid_size();
  EXPECT_EQ(result.mask1.height(), n);
  EXPECT_EQ(result.mask1.width(), n);
  for (std::size_t i = 0; i < result.mask1.size(); ++i) {
    EXPECT_TRUE(result.mask1[i] == 0.0 || result.mask1[i] == 1.0);
    EXPECT_TRUE(result.mask2[i] == 0.0 || result.mask2[i] == 1.0);
  }
}

// ---------------------------------------------------------------------------
// Edge-weighted loss (IltConfig::edge_weight), on a 4-kernel model.

litho::LithoConfig fast_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  cfg.kernel_count = 4;
  return cfg;
}

const litho::LithoSimulator& simulator() {
  static litho::LithoSimulator sim(fast_litho());
  return sim;
}

TEST(EdgeWeightedIlt, WeightsMarkTargetEdgesOnly) {
  opc::IltConfig cfg;
  cfg.edge_weight = 2.0;
  opc::IltEngine engine(simulator(), cfg);
  const layout::Layout l = isolated_contact();
  const opc::IltState state = engine.init_state(l, {0});
  ASSERT_FALSE(state.loss_weights.empty());
  const layout::RasterTransform t = simulator().transform_for(l);
  const int cy = static_cast<int>(t.to_px_y(512));
  const int cx = static_cast<int>(t.to_px_x(512));
  EXPECT_DOUBLE_EQ(state.loss_weights.at(2, 2), 1.0);     // far background
  EXPECT_DOUBLE_EQ(state.loss_weights.at(cy, cx), 1.0);   // pattern interior
  const int edge_x = static_cast<int>(t.to_px_x(480));    // left edge
  EXPECT_GT(state.loss_weights.at(cy, edge_x), 1.0);
}

TEST(EdgeWeightedIlt, DisabledByDefault) {
  opc::IltEngine engine(simulator());
  const opc::IltState state = engine.init_state(isolated_contact(), {0});
  EXPECT_TRUE(state.loss_weights.empty());
}

TEST(EdgeWeightedIlt, ConvergesOnIsolatedContact) {
  opc::IltConfig cfg;
  cfg.max_iterations = 12;
  cfg.theta_m_anneal = 1.2;
  cfg.edge_weight = 3.0;
  opc::IltEngine engine(simulator(), cfg);
  const opc::IltResult result = engine.optimize(isolated_contact(), {0});
  EXPECT_EQ(result.report.violations.total(), 0);
  EXPECT_LE(result.report.epe.violation_count, 1);
}

// ---------------------------------------------------------------------------
// Per-backend pins of the engine's numerics: an FNV-1a digest of each
// run's mask bytes and score bits on two 64-px clips, with the violation
// abort on and off, plus one warm-started run from a fixed perturbed seed.
// The FlowEngine pins cover the generic backend only; these cover every
// backend this file has digests for.

std::uint64_t result_digest(const IltResult& r) {
  return common::Fnv1a()
      .bytes(r.mask1.data(), r.mask1.size() * sizeof(double))
      .bytes(r.mask2.data(), r.mask2.size() * sizeof(double))
      .f64(r.report.score())
      .digest();
}

std::vector<std::uint64_t> pinned_runs(const IltEngine& engine) {
  std::vector<std::uint64_t> digests;
  layout::LayoutGenerator gen;
  for (std::uint64_t seed : {3u, 9u}) {
    const layout::Layout l = gen.generate(seed);
    layout::Assignment a(static_cast<std::size_t>(l.pattern_count()), 0);
    for (int i = 0; i < l.pattern_count(); ++i)
      a[static_cast<std::size_t>(i)] = i % 2;
    for (bool abort : {true, false})
      digests.push_back(result_digest(engine.optimize(l, a, abort)));
    if (seed == 9u) {
      IltState start = engine.init_state(l, a);
      Rng rng(11);
      for (GridF& p : start.p)
        for (std::size_t i = 0; i < p.size(); ++i)
          p[i] += rng.uniform(-0.05, 0.05);
      digests.push_back(
          result_digest(engine.optimize_seeded(l, a, start.p, 20)));
    }
  }
  return digests;
}

TEST(IltPins, OptimizeMatchesPinnedDigestsPerBackend) {
  // Runs: seed 3 abort on (aborts at 18), seed 3 abort off, seed 9 abort
  // on (aborts at 15), seed 9 abort off, seed 9 seeded for 20 iterations.
  struct Pin {
    kernels::Backend backend;
    std::uint64_t digests[5];
  };
  const Pin pins[] = {
      {kernels::Backend::kGeneric,
       {0x46b3e8c71da30a3cull, 0x39273652751c4c5full, 0xa927c43bc94fef2dull,
        0x8e1475ca622d9095ull, 0x634fefd67f4aca7aull}},
      {kernels::Backend::kAvx2,
       {0x46b3e8c71da30a3cull, 0x38086ec647f69512ull, 0xa927c43bc94fef2dull,
        0x8e1475ca622d9095ull, 0x634fefd67f4aca7aull}},
      {kernels::Backend::kAvx512,
       {0x46b3e8c71da30a3cull, 0xf17268966d101e2dull, 0xa927c43bc94fef2dull,
        0x8e1475ca622d9095ull, 0x634fefd67f4aca7aull}},
  };
  testutil::BackendGuard guard;
  for (kernels::Backend b : testutil::usable_backends()) {
    const Pin* pin = nullptr;
    for (const Pin& candidate : pins)
      if (candidate.backend == b) pin = &candidate;
    if (pin == nullptr) continue;  // no digests recorded for this backend
    kernels::select(b);
    const IltEngine engine(shared_simulator());
    const std::vector<std::uint64_t> got = pinned_runs(engine);
    ASSERT_EQ(got.size(), std::size(pin->digests));
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], pin->digests[i])
          << kernels::to_string(b) << " run " << i << " digest 0x"
          << std::hex << got[i];
  }
}

}  // namespace
}  // namespace ldmo::opc
