// High-level lithography facade tying optics, resist and metrology together.
//
// This is the component the rest of the framework talks to: it prints mask
// grids (or raw decompositions) and scores the result with the paper's
// combined printability score (Eq. 9):
//     score = alpha * L2 + beta * #EPE + gamma * #violations.
#pragma once

#include "layout/layout.h"
#include "layout/raster.h"
#include "litho/aerial.h"
#include "litho/config.h"
#include "litho/metrics.h"

namespace ldmo::litho {

/// Eq. 9 coefficients (alpha, beta, gamma) = (1, 3500, 8000) in the paper.
struct ScoreWeights {
  double alpha = 1.0;
  double beta = 3500.0;
  double gamma = 8000.0;
};

/// Full printability evaluation of one printed image.
struct PrintabilityReport {
  double l2 = 0.0;
  EpeReport epe;
  ViolationReport violations;

  /// Raw Eq. 9 score (z-scoring happens at training-set level).
  double score(const ScoreWeights& weights = {}) const {
    return weights.alpha * l2 + weights.beta * epe.violation_count +
           weights.gamma * violations.total();
  }
};

/// Lithography simulator for one optical configuration. Construction builds
/// (or fetches from the process cache) the SOCS kernels.
class LithoSimulator {
 public:
  explicit LithoSimulator(const LithoConfig& config = {});

  const LithoConfig& config() const { return config_; }
  const AerialSimulator& aerial() const { return aerial_; }
  int grid_size() const { return config_.grid_size; }

  /// Raster transform for a layout. The layout clip must match the
  /// simulator field size (grid_size * pixel_nm); throws otherwise.
  layout::RasterTransform transform_for(const layout::Layout& layout) const;

  /// Resist response of a single exposure given its mask grid.
  GridF expose(const GridF& mask) const;

  /// Out-param variant: aerial intensity streams through pooled workspace
  /// scratch (fields are never materialized) and `out` is reshaped and
  /// fully overwritten — allocation-free at steady state.
  void expose_into(const GridF& mask, GridF& out) const;

  /// Combined DPL response from two mask grids (Eq. 2 + Eq. 3).
  GridF print(const GridF& mask1, const GridF& mask2) const;

  /// Out-param variant of print (same reuse contract as expose_into).
  void print_into(const GridF& mask1, const GridF& mask2, GridF& out) const;

  /// N-exposure generalization (triple patterning and beyond).
  GridF print_masks(const std::vector<GridF>& masks) const;

  /// Out-param variant over caller scratch: `responses` is resized to
  /// masks.size() and holds the per-exposure resist responses after
  /// return; `out` gets the combined print. Reusing both across calls
  /// makes the k-mask print allocation-free at steady state. The masks
  /// are exposed one after another; at k = 2 the print has the same bits
  /// as print_into().
  void print_masks_into(const std::vector<GridF>& masks,
                        std::vector<GridF>& responses, GridF& out) const;

  /// Prints a decomposition using the raw (un-OPCed) pattern rasters —
  /// what the layout looks like before any mask optimization.
  GridF print_decomposition(const layout::Layout& layout,
                            const layout::Assignment& assignment) const;

  /// k-mask variant of print_decomposition (assignment values in
  /// [0, mask_count)).
  GridF print_decomposition_k(const layout::Layout& layout,
                              const layout::Assignment& assignment,
                              int mask_count) const;

  /// Full metrology against the layout target.
  PrintabilityReport evaluate(const GridF& response,
                              const layout::Layout& layout) const;

 private:
  LithoConfig config_;
  AerialSimulator aerial_;
};

}  // namespace ldmo::litho
