// Content-address computation for the serving caches.
//
// A result-cache key must change whenever anything that could change the
// produced masks changes: the layout geometry OR any flow configuration
// knob (optics, resist, metrology, generation, ILT hyperparameters, the
// predictor that ranks candidates and its weights, the kernel backend).
// Two keys:
//
//   result key = H(version, config fingerprint, layout fingerprint)
//   score  key = H(version, config fingerprint, layout fingerprint,
//                  candidate assignment)
//
// Layout names are deliberately excluded (layout::fingerprint hashes
// geometry only): the same clip submitted under two names is the same
// work. Hashing the geometry is equivalent to hashing the raster the CNN
// and simulator consume, because rasterization is a pure function of
// geometry + config — and the config is already in the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/flow_engine.h"
#include "layout/layout.h"

namespace ldmo::serve {

/// Fingerprint of every configuration field that can affect a flow result.
/// `predictor_name` and `predictor_digest` (PrintabilityPredictor::
/// parameter_digest, 0 for a parameter-free predictor) fold the
/// candidate-ranking model in by name and by content: swap the predictor,
/// or restart on other weights under the same name, and the cache keys
/// move. `warm_start_version` is the MaskInitializer weight fingerprint (0
/// when no initializer is installed): with the warm-start flag on,
/// retraining the seed model changes the produced masks, so it must retire
/// every cached result. The active kernel backend is hashed too, because
/// results differ in their last bits between backends.
std::uint64_t config_fingerprint(const core::FlowEngineConfig& config,
                                 const std::string& predictor_name,
                                 std::uint64_t predictor_digest = 0,
                                 std::uint64_t warm_start_version = 0);

/// Result-tier key: one full LdmoResult per (config, layout geometry).
std::uint64_t result_cache_key(std::uint64_t config_fp,
                               const layout::Layout& layout);

/// Score-tier key: one predicted score per (config, layout geometry,
/// candidate assignment).
std::uint64_t score_cache_key(std::uint64_t config_fp,
                              std::uint64_t layout_fp,
                              const layout::Assignment& assignment);

/// Approximate resident footprint of a cached result, for the cache's byte
/// budget (grids dominate; trajectory rows and the report are counted too).
std::size_t estimated_bytes(const core::LdmoResult& result);

}  // namespace ldmo::serve
