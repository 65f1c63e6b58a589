#include "serve/cache_key.h"

#include "common/hash.h"
#include "kernels/kernels.h"
#include "layout/fingerprint.h"

namespace ldmo::serve {

std::uint64_t config_fingerprint(const core::FlowEngineConfig& config,
                                 const std::string& predictor_name,
                                 std::uint64_t predictor_digest,
                                 std::uint64_t warm_start_version) {
  common::Fnv1a h;
  // Version tag: bump when the flow's semantics change in a way the fields
  // below cannot express (e.g. a new phase, different score weights).
  h.str("ldmo.serve.config.v1");

  const litho::LithoConfig& l = config.litho;
  h.i64(l.grid_size).f64(l.pixel_nm);
  h.f64(l.wavelength_nm).f64(l.numerical_aperture);
  h.f64(l.sigma_inner).f64(l.sigma_outer).f64(l.defocus_nm);
  h.i64(l.kernel_count);
  h.f64(l.theta_z).f64(l.intensity_threshold).f64(l.calibration_feature_nm);
  h.f64(l.epe_threshold_nm).f64(l.epe_search_range_nm);

  const mpl::GenerationConfig& g = config.flow.generation;
  h.f64(g.classify.nmin_nm).f64(g.classify.nmax_nm);
  h.i64(g.strength_sp_vp).i64(g.strength_np);
  h.u64(g.seed).i64(g.max_candidates);

  const opc::IltConfig& i = config.flow.ilt;
  h.f64(i.theta_m).i64(i.max_iterations);
  h.i64(i.violation_check_interval).i64(i.violation_check_warmup);
  h.f64(i.step_size).f64(i.step_decay).f64(i.initial_p);
  h.f64(i.theta_m_anneal);
  h.u64(i.binarize_thresholds.size());
  for (double t : i.binarize_thresholds) h.f64(t);
  h.f64(i.edge_weight);

  h.i64(config.flow.max_fallbacks);
  h.str(predictor_name).u64(predictor_digest);
  h.str(kernels::to_string(kernels::active()));

  // Warm-start identity: the enabled flag and iteration cap change the
  // masks, and so does the seed model itself — its weight fingerprint
  // stands in for the weights. All three hash even when disabled so
  // toggling the flag always moves the key.
  const core::WarmStartConfig& w = config.flow.warm_start;
  h.u64(w.enabled ? 1 : 0).i64(w.max_iterations);
  h.u64(w.enabled ? warm_start_version : 0);
  return h.digest();
}

std::uint64_t result_cache_key(std::uint64_t config_fp,
                               const layout::Layout& layout) {
  common::Fnv1a h;
  h.str("ldmo.serve.result.v1");
  h.u64(config_fp).u64(layout::fingerprint(layout));
  return h.digest();
}

std::uint64_t score_cache_key(std::uint64_t config_fp,
                              std::uint64_t layout_fp,
                              const layout::Assignment& assignment) {
  common::Fnv1a h;
  h.str("ldmo.serve.score.v1");
  h.u64(config_fp).u64(layout_fp);
  h.u64(assignment.size());
  for (int mask : assignment) h.i64(mask);
  return h.digest();
}

std::size_t estimated_bytes(const core::LdmoResult& result) {
  std::size_t bytes = sizeof(core::LdmoResult);
  bytes += result.ilt.mask1.size() * sizeof(float);
  bytes += result.ilt.mask2.size() * sizeof(float);
  bytes += result.ilt.response.size() * sizeof(float);
  bytes += result.ilt.trajectory.capacity() *
           sizeof(opc::IltIterationStats);
  bytes += result.chosen.capacity() * sizeof(int);
  return bytes;
}

}  // namespace ldmo::serve
