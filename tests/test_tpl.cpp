// Tests for the triple-patterning extension: k-coloring, TPL candidate
// generation, k-mask printing, multi-mask ILT, and the headline property —
// TPL resolves odd conflict cycles that DPL cannot.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <set>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/flow_error.h"
#include "graph/coloring.h"
#include "layout/generator.h"
#include "litho/resist.h"
#include "mpl/tpl.h"
#include "opc/ilt.h"
#include "runtime/thread_pool.h"

namespace ldmo {
namespace {

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

// Three contacts in a mutual-conflict triangle: pairwise gaps < 80nm.
// 2-uncolorable, 3-colorable.
layout::Layout conflict_triangle() {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({410, 400}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({545, 400}, 65, 65));  // 70nm right
  l.add_pattern(geometry::Rect::from_size({478, 518}, 65, 65));  // ~70 diag
  return l;
}

TEST(KColoring, TriangleNeedsThreeColors) {
  graph::Graph g(3);
  g.add_edge(0, 1, 70);
  g.add_edge(1, 2, 70);
  g.add_edge(0, 2, 70);
  const graph::ColoringResult two = graph::greedy_k_coloring(g, 2);
  EXPECT_GE(two.conflict_count, 1);
  const graph::ColoringResult three = graph::greedy_k_coloring(g, 3);
  EXPECT_EQ(three.conflict_count, 0);
  std::set<int> used(three.color.begin(), three.color.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(KColoring, BipartiteNeedsOnlyTwo) {
  graph::Graph g(4);
  g.add_edge(0, 1, 70);
  g.add_edge(1, 2, 70);
  g.add_edge(2, 3, 70);
  const graph::ColoringResult r = graph::greedy_k_coloring(g, 3);
  EXPECT_EQ(r.conflict_count, 0);
}

TEST(KColoring, RejectsBadK) {
  graph::Graph g(2);
  EXPECT_THROW(graph::greedy_k_coloring(g, 0), ldmo::Error);
}

TEST(CanonicalizeK, RelabelsByFirstAppearance) {
  EXPECT_EQ(layout::canonicalize_k({2, 0, 1, 2}, 3),
            (layout::Assignment{0, 1, 2, 0}));
  EXPECT_EQ(layout::canonicalize_k({1, 1, 0}, 3),
            (layout::Assignment{0, 0, 1}));
  // Binary case agrees with canonicalize().
  EXPECT_EQ(layout::canonicalize_k({1, 0, 1}, 2),
            layout::canonicalize({1, 0, 1}));
}

TEST(CanonicalizeK, AllPermutationsCollapse) {
  // Every relabeling of the same partition canonicalizes identically.
  const layout::Assignment base = {0, 1, 2, 1, 0};
  std::set<layout::Assignment> canon;
  const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& p : perms) {
    layout::Assignment relabeled = base;
    for (int& v : relabeled) v = p[v];
    canon.insert(layout::canonicalize_k(std::move(relabeled), 3));
  }
  EXPECT_EQ(canon.size(), 1u);
}

TEST(CanonicalizeK, RejectsOutOfRange) {
  EXPECT_THROW(layout::canonicalize_k({0, 3}, 3), ldmo::Error);
}

TEST(TplGeneration, TriangleCandidatesSeparateAllConflicts) {
  const layout::Layout l = conflict_triangle();
  const mpl::TplGenerationResult r = mpl::generate_tpl_decompositions(l);
  EXPECT_EQ(r.sp_coloring.conflict_count, 0);
  ASSERT_FALSE(r.candidates.empty());
  for (const auto& c : r.candidates) {
    // All three patterns mutually conflict: all on distinct masks.
    EXPECT_TRUE(c[0] != c[1] && c[1] != c[2] && c[0] != c[2]);
    EXPECT_TRUE(mpl::respects_tpl_separation(r, l, c));
  }
  // Mask-permutation symmetry: the triangle has exactly ONE canonical
  // 3-partition.
  std::set<layout::Assignment> unique(r.candidates.begin(),
                                      r.candidates.end());
  EXPECT_EQ(unique.size(), 1u);
}

TEST(TplGeneration, CandidatesCanonicalAndUnique) {
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(5);
  const mpl::TplGenerationResult r = mpl::generate_tpl_decompositions(l);
  std::set<layout::Assignment> unique(r.candidates.begin(),
                                      r.candidates.end());
  EXPECT_EQ(unique.size(), r.candidates.size());
  for (const auto& c : r.candidates) {
    EXPECT_EQ(c[0], 0);  // first pattern relabels to mask 0
    for (int v : c) EXPECT_LT(v, 3);
  }
}

TEST(TplGeneration, RejectsUnsupportedMaskCount) {
  mpl::TplGenerationConfig cfg;
  cfg.mask_count = 4;
  EXPECT_THROW(
      mpl::generate_tpl_decompositions(conflict_triangle(), cfg),
      ldmo::Error);
}

TEST(MultiPrint, ThreeMaskUnionMatchesTwoMaskWhenThirdEmpty) {
  const layout::Layout l = conflict_triangle();
  const GridF two = simulator().print_decomposition(l, {0, 1, 0});
  const GridF three = simulator().print_decomposition_k(l, {0, 1, 0}, 3);
  // An empty exposure still contributes the resist's dark response
  // sigmoid(-theta_z * I_th) ~ 0.009 per pixel, so the continuous
  // responses differ by that DC floor — but the printed result must match.
  const double dark = litho::sigmoid(-simulator().config().theta_z *
                                     simulator().config().intensity_threshold);
  for (std::size_t i = 0; i < two.size(); ++i)
    EXPECT_NEAR(three[i], std::min(two[i] + dark, 1.0), 1e-9);
  EXPECT_EQ(litho::binarize(two), litho::binarize(three));
}

TEST(MplIlt, TriangleUnsolvableWithTwoMasksSolvableWithThree) {
  // The headline TPL property, end to end through the optimizer.
  const layout::Layout l = conflict_triangle();
  opc::IltConfig cfg;
  cfg.max_iterations = 12;
  cfg.theta_m_anneal = 1.2;

  // Best DPL assignment (two patterns must share a mask).
  opc::IltEngine dpl(simulator(), cfg, 2);
  const opc::MplIltResult r2 = dpl.optimize_masks(l, {0, 1, 1});
  // TPL: all three separated.
  opc::IltEngine tpl(simulator(), cfg, 3);
  const opc::MplIltResult r3 = tpl.optimize_masks(l, {0, 1, 2});

  EXPECT_LT(r3.report.score(), r2.report.score());
  EXPECT_EQ(r3.report.violations.total(), 0);
  EXPECT_GT(r2.report.epe.violation_count + r2.report.violations.total(),
            r3.report.epe.violation_count + r3.report.violations.total());
}

bool same_bytes(const GridF& a, const GridF& b) {
  return a.height() == b.height() && a.width() == b.width() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(MplIlt, TwoMaskEngineMatchesDedicatedDplEngine) {
  // optimize_masks() at k = 2 must reproduce the two-mask optimize() in
  // every field, bit for bit: one loop and one threshold sweep serve both.
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(3);
  layout::Assignment a(static_cast<std::size_t>(l.pattern_count()), 0);
  for (int i = 0; i < l.pattern_count(); ++i)
    a[static_cast<std::size_t>(i)] = i % 2;
  opc::IltConfig cfg;
  cfg.max_iterations = 6;
  opc::IltEngine dedicated(simulator(), cfg);
  opc::IltEngine generic(simulator(), cfg, 2);
  const opc::IltResult r1 = dedicated.optimize(
      l, a, /*abort_on_violation=*/false, /*record_trajectory=*/true);
  const opc::MplIltResult r2 = generic.optimize_masks(
      l, a, /*abort_on_violation=*/false, /*record_trajectory=*/true);
  ASSERT_EQ(r2.masks.size(), 2u);
  EXPECT_TRUE(same_bytes(r1.mask1, r2.masks[0]));
  EXPECT_TRUE(same_bytes(r1.mask2, r2.masks[1]));
  EXPECT_TRUE(same_bytes(r1.response, r2.response));

  EXPECT_TRUE(same_bits(r1.report.l2, r2.report.l2));
  const litho::EpeReport& e1 = r1.report.epe;
  const litho::EpeReport& e2 = r2.report.epe;
  EXPECT_EQ(e1.violation_count, e2.violation_count);
  EXPECT_TRUE(same_bits(e1.max_epe_nm, e2.max_epe_nm));
  EXPECT_TRUE(same_bits(e1.mean_epe_nm, e2.mean_epe_nm));
  ASSERT_EQ(e1.measurements.size(), e2.measurements.size());
  for (std::size_t i = 0; i < e1.measurements.size(); ++i) {
    EXPECT_TRUE(same_bits(e1.measurements[i].epe_nm,
                          e2.measurements[i].epe_nm)) << "checkpoint " << i;
    EXPECT_EQ(e1.measurements[i].violation, e2.measurements[i].violation);
    EXPECT_EQ(e1.measurements[i].contour_found,
              e2.measurements[i].contour_found);
  }
  EXPECT_EQ(r1.report.violations.missing, r2.report.violations.missing);
  EXPECT_EQ(r1.report.violations.bridges, r2.report.violations.bridges);
  EXPECT_EQ(r1.report.violations.extra, r2.report.violations.extra);

  ASSERT_EQ(r1.trajectory.size(), r2.trajectory.size());
  for (std::size_t i = 0; i < r1.trajectory.size(); ++i) {
    EXPECT_EQ(r1.trajectory[i].iteration, r2.trajectory[i].iteration);
    EXPECT_TRUE(same_bits(r1.trajectory[i].l2, r2.trajectory[i].l2));
    EXPECT_EQ(r1.trajectory[i].epe_violations,
              r2.trajectory[i].epe_violations);
    EXPECT_EQ(r1.trajectory[i].print_violations,
              r2.trajectory[i].print_violations);
  }
  EXPECT_EQ(r1.iterations_run, r2.iterations_run);
  EXPECT_EQ(r1.aborted_on_violation, r2.aborted_on_violation);
  EXPECT_EQ(r1.cancelled, r2.cancelled);
}

TEST(MplIlt, InitStateValidatesMaskRange) {
  opc::IltEngine engine(simulator(), {}, 3);
  EXPECT_THROW(engine.init_state(conflict_triangle(), {0, 1, 3}),
               ldmo::Error);
  EXPECT_THROW(opc::IltEngine(simulator(), {}, 1), ldmo::Error);
}

TEST(MplIlt, AbortOnViolationWorksForThreeMasks) {
  // All three triangle patterns on one mask: guaranteed print violation.
  opc::IltConfig cfg;
  cfg.max_iterations = 12;
  cfg.violation_check_warmup = 3;  // check early in this short schedule
  opc::IltEngine engine(simulator(), cfg, 3);
  const opc::MplIltResult r =
      engine.optimize_masks(conflict_triangle(), {0, 0, 0},
                            /*abort_on_violation=*/true);
  EXPECT_TRUE(r.aborted_on_violation);
  EXPECT_LT(r.iterations_run, cfg.max_iterations);
}

TEST(MplIlt, ThreeMaskRunIsIdenticalAtOneAndFourThreads) {
  // The k-mask loop is deterministic at any thread count: only the
  // threshold sweep runs in parallel, into indexed slots.
  opc::IltConfig cfg;
  cfg.max_iterations = 12;
  cfg.theta_m_anneal = 1.2;
  const opc::IltEngine engine(simulator(), cfg, 3);
  const int saved_threads = runtime::thread_count();
  runtime::set_thread_count(1);
  const opc::MplIltResult serial =
      engine.optimize_masks(conflict_triangle(), {0, 1, 2});
  runtime::set_thread_count(4);
  const opc::MplIltResult parallel =
      engine.optimize_masks(conflict_triangle(), {0, 1, 2});
  runtime::set_thread_count(saved_threads);
  ASSERT_EQ(serial.masks.size(), 3u);
  ASSERT_EQ(parallel.masks.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m)
    EXPECT_TRUE(same_bytes(serial.masks[m], parallel.masks[m])) << "mask " << m;
  EXPECT_TRUE(same_bytes(serial.response, parallel.response));
  EXPECT_TRUE(same_bits(serial.report.score(), parallel.report.score()));
}

TEST(MplIlt, ThreeMaskRunFiresTheIltFailpoint) {
  // The k-mask entry shares the two-mask loop's fault injection: an armed
  // opc.ilt.optimize throws a FlowException attributed to the ILT stage.
  const opc::IltEngine engine(simulator(), {}, 3);
  fail::arm("opc.ilt.optimize", fail::once());
  try {
    (void)engine.optimize_masks(conflict_triangle(), {0, 1, 2});
    ADD_FAILURE() << "armed opc.ilt.optimize did not fire";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kIlt);
  }
  fail::disarm("opc.ilt.optimize");
}

}  // namespace
}  // namespace ldmo
