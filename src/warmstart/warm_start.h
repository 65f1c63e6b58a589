// MaskWarmStart: the core::MaskInitializer implementation backed by a
// MaskNet. Owns the model, serializes concurrent predictions (the layer
// forward passes cache activations), and fingerprints the weights so the
// serve config fingerprint — and with it every cached result key —
// retires when the model is retrained or hot-swapped.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/mask_init.h"
#include "warmstart/masknet.h"

namespace ldmo::warmstart {

class MaskWarmStart : public core::MaskInitializer {
 public:
  explicit MaskWarmStart(MaskNetConfig config = {});

  /// Loads weights via nn::load_parameters (strict layout validation) and
  /// refreshes the version fingerprint. A rejected file changes nothing.
  void load(const std::string& path);

  /// load() from an in-memory blob (nn::encode_parameters format).
  void decode(const std::vector<std::uint8_t>& blob);

  /// Saves weights via nn::save_parameters (tmp-then-rename).
  void save(const std::string& path) const;

  /// Recomputes the weight fingerprint. Call after training in place.
  void refresh_version();

  /// Borrow the model for training. NOT safe while another thread calls
  /// seed(); train, then refresh_version(), before sharing.
  MaskNet& net() { return net_; }

  std::string name() const override { return "masknet"; }
  std::uint64_t version() const override { return version_; }
  int grid_size() const override { return net_.config().grid_size; }

  /// Rasterizes (target, decomposition) planes, runs the net in eval mode
  /// and writes the two predicted P fields. Thread-safe (internally
  /// serialized). Fires the `warmstart.predict` failpoint.
  void seed(const layout::Layout& layout,
            const layout::Assignment& assignment, GridF& p1,
            GridF& p2) const override;

 private:
  std::uint64_t compute_version() const;  ///< caller holds mutex_

  mutable std::mutex mutex_;  ///< guards net_ activation caches
  mutable MaskNet net_;
  std::uint64_t version_ = 0;
};

}  // namespace ldmo::warmstart
