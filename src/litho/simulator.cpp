#include "litho/simulator.h"

#include <cmath>

#include "common/error.h"
#include "common/failpoint.h"
#include "layout/raster.h"
#include "litho/resist.h"
#include "obs/metrics.h"
#include "runtime/workspace.h"

namespace ldmo::litho {

LithoSimulator::LithoSimulator(const LithoConfig& config)
    : config_(config), aerial_(cached_kernels(config)) {}

layout::RasterTransform LithoSimulator::transform_for(
    const layout::Layout& layout) const {
  const double field = config_.field_nm();
  require(std::abs(static_cast<double>(layout.clip.width()) - field) < 1e-6 &&
              std::abs(static_cast<double>(layout.clip.height()) - field) <
                  1e-6,
          "LithoSimulator: layout clip does not match the simulation field (" +
              std::to_string(field) + "nm)");
  return {layout.clip, config_.grid_size};
}

GridF LithoSimulator::expose(const GridF& mask) const {
  GridF out;
  expose_into(mask, out);
  return out;
}

void LithoSimulator::expose_into(const GridF& mask, GridF& out) const {
  // Every aerial+resist simulation of one mask counts here — the
  // denominator of the paper's "simulations the CNN avoided" economy.
  static obs::Counter& exposure_counter = obs::counter("litho.exposures");
  exposure_counter.inc();
  fail::maybe_fail("litho.expose", FlowStage::kLitho);
  runtime::PooledGrid<double> intensity =
      runtime::Workspace::this_thread().grid_f_uninit(config_.grid_size,
                                                      config_.grid_size);
  aerial_.intensity(mask, *intensity);  // fully overwrites the scratch
  resist_response_into(*intensity, config_, out);
}

GridF LithoSimulator::print(const GridF& mask1, const GridF& mask2) const {
  GridF out;
  print_into(mask1, mask2, out);
  return out;
}

void LithoSimulator::print_into(const GridF& mask1, const GridF& mask2,
                                GridF& out) const {
  static obs::Counter& print_counter = obs::counter("litho.prints");
  print_counter.inc();
  runtime::Workspace& ws = runtime::Workspace::this_thread();
  runtime::PooledGrid<double> t1 =
      ws.grid_f_uninit(config_.grid_size, config_.grid_size);
  runtime::PooledGrid<double> t2 =
      ws.grid_f_uninit(config_.grid_size, config_.grid_size);
  expose_into(mask1, *t1);  // fully overwrites
  expose_into(mask2, *t2);
  combine_exposures_into(*t1, *t2, out);
}

GridF LithoSimulator::print_masks(const std::vector<GridF>& masks) const {
  std::vector<GridF> responses;
  GridF out;
  print_masks_into(masks, responses, out);
  return out;
}

void LithoSimulator::print_masks_into(const std::vector<GridF>& masks,
                                      std::vector<GridF>& responses,
                                      GridF& out) const {
  require(!masks.empty(), "print_masks: no masks");
  static obs::Counter& print_counter = obs::counter("litho.prints");
  print_counter.inc();
  responses.resize(masks.size());
  for (std::size_t m = 0; m < masks.size(); ++m)
    expose_into(masks[m], responses[m]);
  combine_exposures_n_into(responses, out);
}

GridF LithoSimulator::print_decomposition(
    const layout::Layout& layout, const layout::Assignment& assignment) const {
  transform_for(layout);  // validates geometry compatibility
  const GridF m1 =
      layout::rasterize_mask(layout, assignment, 0, config_.grid_size);
  const GridF m2 =
      layout::rasterize_mask(layout, assignment, 1, config_.grid_size);
  return print(m1, m2);
}

GridF LithoSimulator::print_decomposition_k(
    const layout::Layout& layout, const layout::Assignment& assignment,
    int mask_count) const {
  require(mask_count >= 1, "print_decomposition_k: bad mask count");
  transform_for(layout);
  std::vector<GridF> masks;
  masks.reserve(static_cast<std::size_t>(mask_count));
  for (int m = 0; m < mask_count; ++m)
    masks.push_back(
        layout::rasterize_mask(layout, assignment, m, config_.grid_size));
  return print_masks(masks);
}

PrintabilityReport LithoSimulator::evaluate(
    const GridF& response, const layout::Layout& layout) const {
  static obs::Counter& evaluate_counter = obs::counter("litho.evaluations");
  evaluate_counter.inc();
  const layout::RasterTransform transform = transform_for(layout);
  PrintabilityReport report;
  report.l2 =
      l2_error(response, layout::rasterize_target(layout, config_.grid_size));
  report.epe = measure_epe(response, layout, transform, config_);
  report.violations =
      detect_print_violations(binarize(response), layout, transform);
  return report;
}

}  // namespace ldmo::litho
