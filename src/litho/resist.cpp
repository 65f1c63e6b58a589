#include "litho/resist.h"

#include <cmath>

#include "common/error.h"
#include "kernels/kernels.h"

namespace ldmo::litho {

double sigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

GridF resist_response(const GridF& intensity, const LithoConfig& config) {
  GridF t;
  resist_response_into(intensity, config, t);
  return t;
}

void resist_response_into(const GridF& intensity, const LithoConfig& config,
                          GridF& out) {
  out.resize(intensity.height(), intensity.width());
  kernels::table().sigmoid_affine_f64(intensity.data(), out.data(),
                                      intensity.size(), config.theta_z,
                                      config.intensity_threshold);
}

GridF resist_derivative(const GridF& response, const LithoConfig& config) {
  GridF d;
  resist_derivative_into(response, config, d);
  return d;
}

void resist_derivative_into(const GridF& response, const LithoConfig& config,
                            GridF& out) {
  out.resize(response.height(), response.width());
  kernels::table().resist_deriv_f64(response.data(), out.data(),
                                    response.size(), config.theta_z);
}

GridF combine_exposures(const GridF& t1, const GridF& t2) {
  GridF t;
  combine_exposures_into(t1, t2, t);
  return t;
}

void combine_exposures_into(const GridF& t1, const GridF& t2, GridF& out) {
  require(t1.same_shape(t2), "combine_exposures: shape mismatch");
  out.resize(t1.height(), t1.width());
  kernels::table().add_clamp1_f64(t1.data(), t2.data(), out.data(),
                                  out.size());
}

GridF combine_exposures_n(const std::vector<GridF>& responses) {
  GridF t;
  combine_exposures_n_into(responses, t);
  return t;
}

void combine_exposures_n_into(const std::vector<GridF>& responses,
                              GridF& out) {
  require(!responses.empty(), "combine_exposures_n: no exposures");
  const GridF& first = responses.front();
  out.resize(first.height(), first.width());
  const kernels::KernelTable& kt = kernels::table();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = first[i];
  for (std::size_t e = 1; e < responses.size(); ++e) {
    require(out.same_shape(responses[e]),
            "combine_exposures_n: shape mismatch");
    kt.add_f64(responses[e].data(), out.data(), out.size());
  }
  kt.clamp_max_f64(out.data(), out.size(), 1.0);
}

GridU8 binarize(const GridF& response, double threshold) {
  GridU8 b(response.height(), response.width());
  for (std::size_t i = 0; i < response.size(); ++i)
    b[i] = response[i] >= threshold ? 1 : 0;
  return b;
}

}  // namespace ldmo::litho
