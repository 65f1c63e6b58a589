#include "warmstart/warm_start.h"

#include "common/failpoint.h"
#include "common/hash.h"
#include "layout/raster.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ldmo::warmstart {

MaskWarmStart::MaskWarmStart(MaskNetConfig config) : net_(config) {
  refresh_version();
}

std::uint64_t MaskWarmStart::compute_version() const {
  common::Fnv1a h;
  h.str("ldmo.warmstart.masknet.v1");
  h.u64(static_cast<std::uint64_t>(net_.config().grid_size));
  h.u64(static_cast<std::uint64_t>(net_.config().base_width));
  for (nn::Parameter* p : net_.parameters())
    h.bytes(p->value.data(), p->value.size() * sizeof(float));
  return h.digest();
}

void MaskWarmStart::load(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  nn::load_parameters(net_.parameters(), path);
  version_ = compute_version();  // version_ must always describe net_
}

void MaskWarmStart::decode(const std::vector<std::uint8_t>& blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  nn::decode_parameters(net_.parameters(), blob);
  version_ = compute_version();
}

void MaskWarmStart::save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  nn::save_parameters(net_.parameters(), path);
}

void MaskWarmStart::refresh_version() {
  std::lock_guard<std::mutex> lock(mutex_);
  version_ = compute_version();
}

void MaskWarmStart::seed(const layout::Layout& layout,
                         const layout::Assignment& assignment, GridF& p1,
                         GridF& p2) const {
  static obs::Counter& seeds_counter = obs::counter("warmstart.seeds");
  fail::maybe_fail("warmstart.predict", FlowStage::kPredict);
  obs::Span span("warmstart.seed");
  span.attr("layout", layout.name);

  const int n = net_.config().grid_size;
  const GridF target = layout::rasterize_target(layout, n);
  const GridF r1 = layout::rasterize_mask(layout, assignment, 0, n);
  const GridF r2 = layout::rasterize_mask(layout, assignment, 1, n);

  nn::Tensor input({1, 3, n, n});
  const std::size_t plane = static_cast<std::size_t>(n) * n;
  for (std::size_t i = 0; i < plane; ++i) {
    input[i] = static_cast<float>(target[i]);
    input[plane + i] = static_cast<float>(r1[i]);
    input[2 * plane + i] = static_cast<float>(r2[i]);
  }

  nn::Tensor output;
  {
    // The conv layers cache activations per forward, so predictions are
    // serialized; the flow computes seeds serially anyway (bit-identity),
    // this guards cross-engine sharing in the serving layer.
    std::lock_guard<std::mutex> lock(mutex_);
    output = net_.forward(input, /*training=*/false);
  }

  p1.resize(n, n);
  p2.resize(n, n);
  for (std::size_t i = 0; i < plane; ++i) {
    p1[i] = static_cast<double>(output[i]);
    p2[i] = static_cast<double>(output[plane + i]);
  }
  seeds_counter.inc();
}

}  // namespace ldmo::warmstart
