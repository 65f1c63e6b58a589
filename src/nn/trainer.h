// Mini-batch training loop for the regression network.
#pragma once

#include <functional>
#include <vector>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/resnet.h"

namespace ldmo::nn {

/// One labeled example: a grayscale image and its (normalized) score.
struct Example {
  Tensor image;  ///< [1, S, S]
  float label = 0.0f;
};

struct TrainerConfig {
  int epochs = 8;
  int batch_size = 8;
  AdamConfig adam;
  /// Learning rate is multiplied by this factor after every epoch
  /// (1.0 = constant).
  double lr_decay_per_epoch = 1.0;
  std::uint64_t shuffle_seed = 77;
  /// Loss: true = MAE (paper Eq. 10), false = MSE.
  bool use_mae = true;
};

/// Per-epoch training diagnostics.
struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  /// Learning rate the epoch actually trained at (after decay). Lets
  /// callers — and the LR-schedule regression test — audit the schedule.
  double learning_rate = 0.0;
};

/// Trains `model` on `examples`; returns per-epoch mean training loss.
/// `on_epoch` (optional) is invoked after each epoch.
std::vector<EpochStats> train_regressor(
    ResNetRegressor& model, const std::vector<Example>& examples,
    const TrainerConfig& config = {},
    const std::function<void(const EpochStats&)>& on_epoch = nullptr);

/// Same loop over a caller-owned optimizer — the fine-tuning entry point:
/// a long-lived Adam keeps its moment estimates across rounds. The LR
/// schedule is computed from a per-call snapshot of the optimizer's base
/// learning rate and the base rate is restored on exit, so back-to-back
/// rounds see identical schedules (config.adam.learning_rate is ignored
/// here; the optimizer's own rate is the base).
std::vector<EpochStats> train_regressor(
    ResNetRegressor& model, const std::vector<Example>& examples,
    const TrainerConfig& config, Adam& optimizer,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr);

/// Mean absolute error of the model over a labeled set (eval mode).
double evaluate_mae(const ResNetRegressor& model,
                    const std::vector<Example>& examples);

}  // namespace ldmo::nn
