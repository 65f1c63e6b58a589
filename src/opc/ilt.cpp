#include "opc/ilt.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/failpoint.h"
#include "kernels/kernels.h"
#include "layout/raster.h"
#include "litho/resist.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/parallel_for.h"

namespace ldmo::opc {

IltEngine::IltEngine(const litho::LithoSimulator& simulator, IltConfig config,
                     int mask_count)
    : simulator_(simulator), config_(config), mask_count_(mask_count) {
  require(mask_count_ >= 2, "IltEngine: need at least two masks");
  require(config_.theta_m > 0.0, "IltEngine: theta_m must be positive");
  require(config_.max_iterations >= 1, "IltEngine: need >= 1 iteration");
  require(config_.violation_check_interval >= 1,
          "IltEngine: check interval must be >= 1");
  require(config_.step_size > 0.0 && config_.step_decay > 0.0 &&
              config_.step_decay <= 1.0,
          "IltEngine: bad step schedule");
  require(config_.theta_m_anneal >= 1.0, "IltEngine: anneal factor < 1");
  require(config_.violation_check_warmup >= 0,
          "IltEngine: negative check warmup");
  require(!config_.binarize_thresholds.empty(),
          "IltEngine: need at least one binarization threshold");
}

void IltEngine::require_two_masks(const char* entry) const {
  if (mask_count_ != 2)
    raise(std::string("IltEngine::") + entry + ": two-mask entry on a " +
          std::to_string(mask_count_) + "-mask engine (use optimize_masks)");
}

void IltEngine::mask_of_into(const GridF& p, double theta_m,
                             GridF& out) const {
  out.resize(p.height(), p.width());
  kernels::table().sigmoid_affine_f64(p.data(), out.data(), p.size(), theta_m,
                                      0.0);
}

GridF IltEngine::binarize_parameters(const GridF& p, double threshold) const {
  GridF m(p.height(), p.width());
  for (std::size_t i = 0; i < p.size(); ++i)
    m[i] = p[i] >= threshold ? 1.0 : 0.0;
  return m;
}

IltState IltEngine::init_state(const layout::Layout& layout,
                               const layout::Assignment& assignment) const {
  require(static_cast<int>(assignment.size()) == layout.pattern_count(),
          "IltEngine::init_state: assignment size mismatch");
  for (int v : assignment)
    require(v >= 0 && v < mask_count_,
            "IltEngine::init_state: mask id out of range");
  const int n = simulator_.grid_size();
  simulator_.transform_for(layout);  // validates clip/field agreement

  IltState state;
  state.current_step = config_.step_size;
  state.current_theta_m = config_.theta_m;
  state.p.reserve(static_cast<std::size_t>(mask_count_));
  for (int m = 0; m < mask_count_; ++m) {
    const GridF raster = layout::rasterize_mask(layout, assignment, m, n);
    GridF& p = state.p.emplace_back(n, n);
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = config_.initial_p * (2.0 * raster[i] - 1.0);
  }
  if (config_.edge_weight > 0.0) {
    // Edge map of the target: any pixel whose 4-neighborhood spans both
    // inside and outside gets the extra loss weight.
    const GridF target = layout::rasterize_target(layout, n);
    state.loss_weights = GridF(n, n, 1.0);
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        double lo = target.at(y, x), hi = lo;
        if (y > 0) { lo = std::min(lo, target.at(y - 1, x)); hi = std::max(hi, target.at(y - 1, x)); }
        if (y + 1 < n) { lo = std::min(lo, target.at(y + 1, x)); hi = std::max(hi, target.at(y + 1, x)); }
        if (x > 0) { lo = std::min(lo, target.at(y, x - 1)); hi = std::max(hi, target.at(y, x - 1)); }
        if (x + 1 < n) { lo = std::min(lo, target.at(y, x + 1)); hi = std::max(hi, target.at(y, x + 1)); }
        if (hi > 0.0 && lo < 1.0 && hi != lo)
          state.loss_weights.at(y, x) = 1.0 + config_.edge_weight;
      }
    }
  }
  return state;
}

void IltEngine::step(IltState& state, const GridF& target) const {
  IltScratch scratch;
  step(state, target, scratch);
}

void IltEngine::step(IltState& state, const GridF& target,
                     IltScratch& s) const {
  const litho::LithoConfig& litho_cfg = simulator_.config();
  const litho::AerialSimulator& aerial = simulator_.aerial();
  const kernels::KernelTable& kt = kernels::table();
  const std::size_t k = state.p.size();
  require(k == static_cast<std::size_t>(mask_count_),
          "IltEngine::step: state mask count does not match the engine");

  // Forward pass, one mask after another, retaining per-kernel fields for
  // the adjoint. Every intermediate lands in caller scratch — at steady
  // state (shapes warm after the first iteration) nothing below allocates.
  s.masks.resize(k);
  s.fields.resize(k);
  s.responses.resize(k);
  s.grads.resize(k);
  for (std::size_t m = 0; m < k; ++m) {
    mask_of_into(state.p[m], state.current_theta_m, s.masks[m]);
    aerial.intensity_with_fields(s.masks[m], s.fields[m]);
    litho::resist_response_into(s.fields[m].intensity, litho_cfg,
                                s.responses[m]);
  }
  litho::combine_exposures_n_into(s.responses, s.t);

  // Loss and dL/dT = 2 w (T - T') with optional per-pixel edge weights.
  const bool weighted = !state.loss_weights.empty();
  s.dldt.resize(s.t.height(), s.t.width());
  state.last_loss = kt.loss_grad_f64(
      s.t.data(), target.data(),
      weighted ? state.loss_weights.data() : nullptr, s.dldt.data(),
      s.t.size());

  // Through the min(): gradient flows only where sum_m T_m < 1, which is
  // exactly where the combined print T = min(sum_m T_m, 1) is below 1.
  for (std::size_t i = 0; i < s.t.size(); ++i)
    s.dldt[i] *= s.t[i] < 1.0 ? 1.0 : 0.0;

  // Per mask: through the resist sigmoid (dT_m/dI_m = theta_z T_m (1 -
  // T_m)), the optics (adjoint convolution) and the mask sigmoid.
  double g_max = 0.0;
  s.dldi.resize(s.t.height(), s.t.width());
  for (std::size_t m = 0; m < k; ++m) {
    litho::resist_derivative_into(s.responses[m], litho_cfg, s.dt);
    for (std::size_t i = 0; i < s.t.size(); ++i)
      s.dldi[i] = s.dldt[i] * s.dt[i];
    aerial.backpropagate(s.dldi, s.fields[m], s.grads[m]);
    kt.sigmoid_chain_f64(s.grads[m].data(), s.masks[m].data(),
                         state.current_theta_m, s.grads[m].size());
    const double g = kt.max_abs_f64(s.grads[m].data(), s.grads[m].size());
    g_max = m == 0 ? g : std::max(g_max, g);
  }

  // Max-normalized descent, jointly over all masks so their relative
  // scaling is kept: the largest parameter moves exactly current_step,
  // which keeps the update scale-free w.r.t. the loss magnitude and decays
  // geometrically for convergence.
  if (g_max > 1e-300) {
    const double scale = state.current_step / g_max;
    for (std::size_t m = 0; m < k; ++m)
      kt.descend_f64(state.p[m].data(), s.grads[m].data(), scale,
                     state.p[m].size());
  }
  state.current_step *= config_.step_decay;
  state.current_theta_m *= config_.theta_m_anneal;
  ++state.iteration;
}

litho::PrintabilityReport IltEngine::evaluate(
    const IltState& state, const layout::Layout& layout) const {
  std::vector<GridF> masks;
  masks.reserve(state.p.size());
  for (const GridF& p : state.p) masks.push_back(binarize_parameters(p));
  return simulator_.evaluate(simulator_.print_masks(masks), layout);
}

namespace {

// The two-mask view of a k = 2 run: masks 0 and 1 move into mask1/mask2.
IltResult two_mask_result(MplIltResult&& r) {
  IltResult out;
  if (r.masks.size() == 2) {
    out.mask1 = std::move(r.masks[0]);
    out.mask2 = std::move(r.masks[1]);
  }
  out.response = std::move(r.response);
  out.report = std::move(r.report);
  out.trajectory = std::move(r.trajectory);
  out.iterations_run = r.iterations_run;
  out.aborted_on_violation = r.aborted_on_violation;
  out.cancelled = r.cancelled;
  return out;
}

}  // namespace

IltResult IltEngine::optimize(const layout::Layout& layout,
                              const layout::Assignment& assignment,
                              bool abort_on_violation,
                              bool record_trajectory,
                              runtime::CancellationToken token) const {
  require_two_masks("optimize");
  return two_mask_result(run(layout, assignment, nullptr,
                             config_.max_iterations, abort_on_violation,
                             record_trajectory, token));
}

IltResult IltEngine::optimize_seeded(const layout::Layout& layout,
                                     const layout::Assignment& assignment,
                                     const std::vector<GridF>& seeds,
                                     int max_iterations,
                                     bool abort_on_violation,
                                     bool record_trajectory,
                                     runtime::CancellationToken token) const {
  require_two_masks("optimize_seeded");
  const int n = simulator_.grid_size();
  require(seeds.size() == static_cast<std::size_t>(mask_count_),
          "IltEngine::optimize_seeded: need one seed per mask");
  for (const GridF& seed : seeds)
    require(seed.height() == n && seed.width() == n,
            "IltEngine::optimize_seeded: seed grid does not match simulator");
  require(max_iterations >= 1,
          "IltEngine::optimize_seeded: need >= 1 iteration");
  return two_mask_result(run(layout, assignment, &seeds, max_iterations,
                             abort_on_violation, record_trajectory, token));
}

MplIltResult IltEngine::optimize_masks(const layout::Layout& layout,
                                       const layout::Assignment& assignment,
                                       bool abort_on_violation,
                                       bool record_trajectory,
                                       runtime::CancellationToken token) const {
  return run(layout, assignment, nullptr, config_.max_iterations,
             abort_on_violation, record_trajectory, token);
}

MplIltResult IltEngine::run(const layout::Layout& layout,
                            const layout::Assignment& assignment,
                            const std::vector<GridF>* seeds,
                            int max_iterations, bool abort_on_violation,
                            bool record_trajectory,
                            runtime::CancellationToken token) const {
  static obs::Counter& runs_counter = obs::counter("ilt.runs");
  static obs::Counter& iter_counter = obs::counter("ilt.iterations");
  static obs::Counter& check_counter = obs::counter("ilt.violation_checks");
  static obs::Counter& check_hit_counter =
      obs::counter("ilt.violation_checks_failed");
  static obs::Counter& abort_counter = obs::counter("ilt.aborts");
  static obs::Counter& cancel_counter = obs::counter("ilt.cancellations");
  static obs::Histogram& iters_histogram =
      obs::histogram("ilt.iterations_run", {5, 10, 15, 20, 30, 40, 50});
  runs_counter.inc();
  fail::maybe_fail("opc.ilt.optimize", FlowStage::kIlt);

  obs::Span span("ilt.optimize");
  const GridF target =
      layout::rasterize_target(layout, simulator_.grid_size());
  IltState state = init_state(layout, assignment);
  if (seeds != nullptr) {
    // Warm start: keep init_state's schedule/loss-weight setup but replace
    // the +/- initial_p fields with the learned prediction.
    static obs::Counter& seeded_counter = obs::counter("ilt.seeded_runs");
    seeded_counter.inc();
    state.p = *seeds;
    span.attr("seeded", 1.0);
  }

  MplIltResult result;
  // Winds down without finalizing: the caller is discarding this run.
  const auto cancelled = [&] {
    result.cancelled = true;
    cancel_counter.inc();
    span.attr("cancelled", 1.0);
    span.attr("cancel_iteration", state.iteration);
    return std::move(result);
  };
  // One scratch for the whole run: iteration 1 warms every shape, the
  // remaining ~50 iterations run allocation-free through the pooled paths.
  IltScratch scratch;
  for (int iter = 0; iter < max_iterations; ++iter) {
    if (token.cancelled()) return cancelled();
    step(state, target, scratch);
    iter_counter.inc();

    const bool check_now =
        (iter + 1 > config_.violation_check_warmup &&
         (iter + 1) % config_.violation_check_interval == 0) ||
        iter + 1 == max_iterations;
    litho::ViolationReport violations;
    if (check_now || record_trajectory) {
      // The current continuous masks' print, through the run's scratch
      // (step() overwrites these buffers next iteration).
      for (std::size_t m = 0; m < state.p.size(); ++m)
        mask_of_into(state.p[m], state.current_theta_m, scratch.masks[m]);
      simulator_.print_masks_into(scratch.masks, scratch.responses,
                                  scratch.response);
      const GridF& response = scratch.response;
      violations = litho::detect_print_violations(
          litho::binarize(response), layout, simulator_.transform_for(layout));
      if (check_now) {
        check_counter.inc();
        if (violations.total() > 0) check_hit_counter.inc();
      }
      if (record_trajectory) {
        const litho::PrintabilityReport continuous =
            simulator_.evaluate(response, layout);
        result.trajectory.push_back({state.iteration, continuous.l2,
                                     continuous.epe.violation_count,
                                     violations.total()});
        span.row("trace", {{"iter", static_cast<double>(state.iteration)},
                           {"loss", state.last_loss},
                           {"l2", continuous.l2},
                           {"epe_violations",
                            static_cast<double>(
                                continuous.epe.violation_count)},
                           {"print_violations",
                            static_cast<double>(violations.total())}});
      } else {
        // Loss is free (already computed by step()); violation counts only
        // exist on check iterations.
        span.row("trace", {{"iter", static_cast<double>(state.iteration)},
                           {"loss", state.last_loss},
                           {"print_violations",
                            static_cast<double>(violations.total())}});
      }
    } else if (obs::tracing_enabled()) {
      span.row("trace", {{"iter", static_cast<double>(state.iteration)},
                         {"loss", state.last_loss}});
    }

    result.iterations_run = state.iteration;
    if (abort_on_violation && check_now && violations.total() > 0) {
      result.aborted_on_violation = true;
      abort_counter.inc();
      span.attr("abort_iteration", state.iteration);
      span.attr("abort_print_violations", violations.total());
      break;
    }
  }

  // Final poll before finalization: a token that fired on the last
  // iteration (typical for deadline tokens) skips the threshold sweep
  // whose result would be discarded anyway.
  if (token.cancelled()) return cancelled();

  MplIltResult finalized = sweep(state, layout);
  finalized.trajectory = std::move(result.trajectory);
  finalized.iterations_run = result.iterations_run;
  finalized.aborted_on_violation = result.aborted_on_violation;

  iters_histogram.observe(finalized.iterations_run);
  span.attr("iterations_run", finalized.iterations_run);
  span.attr("aborted", finalized.aborted_on_violation ? 1.0 : 0.0);
  span.attr("final_loss", state.last_loss);
  span.attr("final_l2", finalized.report.l2);
  span.attr("final_epe_violations", finalized.report.epe.violation_count);
  span.attr("final_print_violations", finalized.report.violations.total());
  span.attr("final_score", finalized.report.score());
  return finalized;
}

IltResult IltEngine::finalize(const IltState& state,
                              const layout::Layout& layout) const {
  require_two_masks("finalize");
  return two_mask_result(sweep(state, layout));
}

MplIltResult IltEngine::sweep(const IltState& state,
                              const layout::Layout& layout) const {
  // Final binarization: try the configured thresholds (a cheap mask-bias
  // retarget) and keep the best-scoring manufactured masks. Each threshold
  // is an independent print+evaluate, so they run as parallel tasks; the
  // winner is then picked serially in threshold order, which preserves the
  // serial loop's strict-less tie-breaking (first best threshold wins).
  MplIltResult result;
  result.iterations_run = state.iteration;
  struct Candidate {
    std::vector<GridF> masks;
    GridF response;
    litho::PrintabilityReport report;
  };
  const std::size_t count = config_.binarize_thresholds.size();
  std::vector<Candidate> candidates(count);
  runtime::parallel_for(count, [&](std::size_t t) {
    Candidate& c = candidates[t];
    const double threshold = config_.binarize_thresholds[t];
    c.masks.reserve(state.p.size());
    for (const GridF& p : state.p)
      c.masks.push_back(binarize_parameters(p, threshold));
    c.response = simulator_.print_masks(c.masks);
    c.report = simulator_.evaluate(c.response, layout);
  });
  bool first = true;
  double best_score = 0.0;
  for (Candidate& c : candidates) {
    const double score = c.report.score();
    if (first || score < best_score) {
      first = false;
      best_score = score;
      result.masks = std::move(c.masks);
      result.response = std::move(c.response);
      result.report = std::move(c.report);
    }
  }
  return result;
}

}  // namespace ldmo::opc
