// Constant-threshold resist model and double-patterning image combination.
//
// Paper Eq. (2): T_i = sigmoid(theta_z * (I_i - I_th)) turns the aerial
// intensity of exposure i into a differentiable resist response, and
// Eq. (3): T = min(T_1 + T_2, 1) combines the two LELE exposures (the wafer
// pattern is the union of the two prints).
#pragma once

#include <vector>

#include "common/grid.h"
#include "litho/config.h"

namespace ldmo::litho {

/// Numerically stable logistic function.
double sigmoid(double x);

/// Resist response T = sigmoid(theta_z * (I - I_th)) per pixel.
GridF resist_response(const GridF& intensity, const LithoConfig& config);

/// Out-param variant: reshapes `out` if needed and fully overwrites it —
/// allocation-free at steady state. (Same contract for every _into / "out"
/// overload below; `out` must not alias the inputs.)
void resist_response_into(const GridF& intensity, const LithoConfig& config,
                          GridF& out);

/// Derivative dT/dI = theta_z * T * (1 - T) per pixel, given T.
GridF resist_derivative(const GridF& response, const LithoConfig& config);
void resist_derivative_into(const GridF& response, const LithoConfig& config,
                            GridF& out);

/// Double-patterning combination T = min(T1 + T2, 1) (Eq. 3).
GridF combine_exposures(const GridF& t1, const GridF& t2);
void combine_exposures_into(const GridF& t1, const GridF& t2, GridF& out);

/// N-exposure generalization for multiple patterning (LELE...LE):
/// T = min(sum_i T_i, 1). Requires at least one exposure.
GridF combine_exposures_n(const std::vector<GridF>& responses);
void combine_exposures_n_into(const std::vector<GridF>& responses, GridF& out);

/// Binary print: response thresholded at 0.5 (equivalently I at I_th).
GridU8 binarize(const GridF& response, double threshold = 0.5);

}  // namespace ldmo::litho
