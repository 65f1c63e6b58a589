// Gradient-descent inverse lithography (ILT) mask optimization for double
// patterning (Section II of the paper) and, as its k-mask generalization,
// multiple patterning.
//
// Masks are parameterized by unbounded fields P via M = sigmoid(theta_m * P)
// (Eq. 1, theta_m = 8); the loss ||T - T'||^2 is differentiated through the
// resist sigmoid (Eq. 2), the exposure combination T = min(sum_m T_m, 1)
// (Eq. 3; k = 2 is the paper's DPL) and the Hopkins/SOCS optics, and P
// descends the (per-iteration max-normalized) gradient. One loop serves
// every mask count: the LELE...LE wafer image is the saturated sum of all
// exposures, so the Eq. 1-3 machinery extends directly (DESIGN.md: the
// paper's title and references [1, 3, 4] frame the double-patterning flow
// inside general multiple patterning).
//
// The engine exposes a resumable IltState so callers can run partial
// optimizations: the paper's flow checks print violations every 3 iterations
// and aborts, and the ICCAD'17 greedy baseline prunes a candidate pool on
// intermediate printability.
#pragma once

#include <vector>

#include "layout/layout.h"
#include "litho/simulator.h"
#include "runtime/cancellation.h"

namespace ldmo::opc {

/// ILT hyperparameters. Defaults follow the paper where it pins them.
struct IltConfig {
  double theta_m = 8.0;       ///< mask sigmoid slope (Eq. 1)
  /// The paper's engine converges in 29 iterations; our from-scratch
  /// substrate needs a gentler annealing schedule and reaches the same
  /// quality plateau at 50 (measured in the hyperparameter sweep recorded
  /// in EXPERIMENTS.md). The violation-check cadence stays the paper's.
  int max_iterations = 50;
  int violation_check_interval = 3;  ///< paper: check prints every 3 iters
  /// Iterations before the first violation check. During the early anneal
  /// phase the continuous masks transiently bridge/pinch even for good
  /// decompositions; checking from iteration 1 (as a naive reading of the
  /// paper would) aborts candidates that converge fine. The final-quality
  /// check cadence is unchanged once past the warmup.
  int violation_check_warmup = 12;
  double step_size = 0.3;     ///< max |delta P| per iteration
  double step_decay = 1.0;    ///< geometric per-iteration step decay
  double initial_p = 0.25;    ///< +/- P init inside/outside patterns
  /// Progressive binarization: theta_m is multiplied by this factor each
  /// iteration, steepening the mask sigmoid so the continuous mask
  /// approaches the manufactured binary mask by the final iteration
  /// (removes the classic ILT continuous-to-binary quality gap).
  double theta_m_anneal = 1.045;
  /// Binarization thresholds (on P) tried at the end of optimize(); the one
  /// with the best Eq. 9 score wins. Mimics final mask-bias retargeting.
  std::vector<double> binarize_thresholds = {-0.1, -0.05, 0.0, 0.05, 0.1};
  /// Edge-weighted loss (extension, 0 = the paper's plain L2): pixels on
  /// target edges — where EPE is measured — get loss weight
  /// (1 + edge_weight); interiors stay at 1. Focuses the optimizer on the
  /// contour instead of bulk area.
  double edge_weight = 0.0;
};

/// Resumable optimization state: one parameter field per mask plus
/// bookkeeping.
struct IltState {
  std::vector<GridF> p;
  int iteration = 0;
  double current_step = 0.0;
  double current_theta_m = 0.0;
  double last_loss = 0.0;
  /// Per-pixel loss weights (empty unless edge weighting is enabled).
  GridF loss_weights;
};

/// Reusable scratch for step(): every intermediate grid of one gradient
/// iteration (masks, aerial fields, resist responses, adjoint buffers), one
/// slot per mask where a mask's value must outlive the next mask's pass.
/// optimize() owns one per run and threads it through all ~50 iterations,
/// so after the first iteration warms the shapes, the loop performs zero
/// heap allocations in the pooled paths. All members are plain outputs —
/// fully overwritten each step — so a default-constructed IltScratch is
/// always valid input.
struct IltScratch {
  std::vector<GridF> masks;                 ///< Eq. 1 continuous masks
  std::vector<litho::AerialFields> fields;  ///< per-kernel fields (adjoint)
  std::vector<GridF> responses;             ///< per-exposure resist responses
  std::vector<GridF> grads;                 ///< parameter gradients
  GridF t;                                  ///< combined print (Eq. 3)
  GridF dldt;                               ///< dL/dT through the min() gate
  GridF dt, dldi;                           ///< one mask's dT/dI and dL/dI
  GridF response;                           ///< violation-check print
};

/// Per-iteration metrology snapshot (drives Fig. 1(b) trajectories).
struct IltIterationStats {
  int iteration = 0;
  double l2 = 0.0;
  int epe_violations = 0;
  int print_violations = 0;
};

/// Final result of an optimize() run.
struct IltResult {
  GridF mask1;  ///< binarized final mask (0/1)
  GridF mask2;
  GridF response;  ///< combined resist response of the binarized masks
  litho::PrintabilityReport report;  ///< metrology of `response`
  std::vector<IltIterationStats> trajectory;
  int iterations_run = 0;
  bool aborted_on_violation = false;
  /// True when optimize() was cancelled through its token: the run wound
  /// down before finalization, so masks/report are NOT populated and the
  /// caller must discard the result.
  bool cancelled = false;
};

/// Final result of a k-mask run (optimize_masks()): IltResult with one
/// binarized mask per exposure.
struct MplIltResult {
  std::vector<GridF> masks;  ///< binarized final masks (0/1)
  GridF response;
  litho::PrintabilityReport report;
  std::vector<IltIterationStats> trajectory;
  int iterations_run = 0;
  bool aborted_on_violation = false;
  /// True when the run was cancelled through its token (no masks).
  bool cancelled = false;
};

/// ILT engine for `mask_count` exposures bound to one lithography
/// simulator. Every entry runs the same loop; finalize(), optimize() and
/// optimize_seeded() return the two-mask IltResult and need k = 2, while
/// optimize_masks() returns all k masks.
class IltEngine {
 public:
  /// Keeps a reference to `simulator`, which must outlive the engine.
  /// `mask_count` is k >= 2 (2 = the paper's double patterning).
  IltEngine(const litho::LithoSimulator& simulator, IltConfig config = {},
            int mask_count = 2);

  const IltConfig& config() const { return config_; }
  int mask_count() const { return mask_count_; }

  /// Initializes P fields from a decomposition (mask ids in [0, k)):
  /// +initial_p inside a mask's patterns, -initial_p elsewhere.
  IltState init_state(const layout::Layout& layout,
                      const layout::Assignment& assignment) const;

  /// One gradient-descent iteration (updates `state` in place; the loss
  /// before the update lands in state.last_loss).
  void step(IltState& state, const GridF& target) const;

  /// Scratch-reusing variant: identical arithmetic, but all intermediates
  /// live in `scratch` so repeated calls with the same shapes allocate
  /// nothing. The convenience overload above is a thin wrapper over this.
  void step(IltState& state, const GridF& target, IltScratch& scratch) const;

  /// Metrology of the current state using binarized masks.
  litho::PrintabilityReport evaluate(const IltState& state,
                                     const layout::Layout& layout) const;

  /// Final binarization of a state: tries the configured thresholds and
  /// returns the best-scoring manufactured masks with full metrology.
  /// trajectory/iteration fields of the result reflect `state` only. k = 2.
  IltResult finalize(const IltState& state,
                     const layout::Layout& layout) const;

  /// Full optimization loop.
  ///
  /// `abort_on_violation`: stop early when the periodic (every
  /// violation_check_interval iterations) print-violation check fires —
  /// the LDMO flow uses this to fall back to another decomposition.
  /// `record_trajectory`: capture per-iteration stats (costs one EPE
  /// measurement per iteration).
  /// `token`: cooperative cancellation, polled once per iteration — the
  /// speculative flow uses it to stop attempts a better-ranked candidate
  /// has already beaten. A cancelled result has `cancelled = true` and no
  /// finalized masks. k = 2.
  IltResult optimize(const layout::Layout& layout,
                     const layout::Assignment& assignment,
                     bool abort_on_violation = false,
                     bool record_trajectory = false,
                     runtime::CancellationToken token = {}) const;

  /// Warm-started optimization: identical loop, but the P fields start from
  /// caller-provided seeds, one per mask (e.g. the `warmstart` MaskNet
  /// prediction), instead of the +/- initial_p raster, and the iteration
  /// budget can be cut below config().max_iterations. Seeds must match the
  /// simulator grid. The annealing/step schedules and violation-check
  /// cadence are unchanged, so a seeded run with max_iterations ==
  /// config().max_iterations and +/-initial_p seeds is bit-identical to
  /// optimize(). k = 2.
  IltResult optimize_seeded(const layout::Layout& layout,
                            const layout::Assignment& assignment,
                            const std::vector<GridF>& seeds,
                            int max_iterations,
                            bool abort_on_violation = false,
                            bool record_trajectory = false,
                            runtime::CancellationToken token = {}) const;

  /// optimize() for any k: the same loop and threshold sweep, returning
  /// all k masks.
  MplIltResult optimize_masks(const layout::Layout& layout,
                              const layout::Assignment& assignment,
                              bool abort_on_violation = false,
                              bool record_trajectory = false,
                              runtime::CancellationToken token = {}) const;

  /// Binarizes a parameter field into a 0/1 mask grid (P >= threshold -> 1).
  GridF binarize_parameters(const GridF& p, double threshold = 0.0) const;

 private:
  /// The loop behind every optimize entry. `seeds` null for the
  /// paper-faithful cold init.
  MplIltResult run(const layout::Layout& layout,
                   const layout::Assignment& assignment,
                   const std::vector<GridF>* seeds, int max_iterations,
                   bool abort_on_violation, bool record_trajectory,
                   runtime::CancellationToken token) const;
  /// The threshold sweep behind finalize() and run().
  MplIltResult sweep(const IltState& state,
                     const layout::Layout& layout) const;
  /// Throws unless this is a two-mask engine (`entry` names the caller).
  void require_two_masks(const char* entry) const;
  /// Eq. 1 sigmoid: reshapes and fully overwrites `out`.
  void mask_of_into(const GridF& p, double theta_m, GridF& out) const;

  const litho::LithoSimulator& simulator_;
  IltConfig config_;
  int mask_count_;
};

}  // namespace ldmo::opc
