#include "nn/trainer.h"

#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ldmo::nn {
namespace {

// Stacks examples[indices[first..last)] into a [B, 1, S, S] batch plus
// [B, 1] targets.
std::pair<Tensor, Tensor> make_batch(const std::vector<Example>& examples,
                                     const std::vector<std::size_t>& order,
                                     std::size_t first, std::size_t last,
                                     int input_size) {
  const int batch = static_cast<int>(last - first);
  Tensor images({batch, 1, input_size, input_size});
  Tensor targets({batch, 1});
  const std::size_t stride =
      static_cast<std::size_t>(input_size) * input_size;
  for (int b = 0; b < batch; ++b) {
    const Example& ex = examples[order[first + static_cast<std::size_t>(b)]];
    require(ex.image.size() == stride, "make_batch: image size mismatch");
    for (std::size_t i = 0; i < stride; ++i)
      images[static_cast<std::size_t>(b) * stride + i] = ex.image[i];
    targets.at2(b, 0) = ex.label;
  }
  return {std::move(images), std::move(targets)};
}

}  // namespace

std::vector<EpochStats> train_regressor(
    ResNetRegressor& model, const std::vector<Example>& examples,
    const TrainerConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch) {
  Adam optimizer(model.parameters(), config.adam);
  return train_regressor(model, examples, config, optimizer, on_epoch);
}

std::vector<EpochStats> train_regressor(
    ResNetRegressor& model, const std::vector<Example>& examples,
    const TrainerConfig& config, Adam& optimizer,
    const std::function<void(const EpochStats&)>& on_epoch) {
  require(!examples.empty(), "train_regressor: no examples");
  require(config.epochs >= 1 && config.batch_size >= 1,
          "train_regressor: bad trainer config");

  static obs::Counter& epoch_counter = obs::counter("nn.train.epochs");
  static obs::Counter& batch_counter = obs::counter("nn.train.batches");
  static obs::Counter& example_counter = obs::counter("nn.train.examples");

  obs::Span span("nn.train");
  span.attr("examples", static_cast<double>(examples.size()));
  span.attr("epochs", config.epochs);
  span.attr("batch_size", config.batch_size);

  Rng rng(config.shuffle_seed);
  const int input_size = model.config().input_size;

  std::vector<std::size_t> order(examples.size());
  std::iota(order.begin(), order.end(), 0);

  // Decay is computed from a snapshot of the optimizer's base rate and the
  // base rate is restored before returning. The old in-place compounding
  // (learning_rate *= decay, never reset) made the second train() call on a
  // long-lived optimizer start at the first call's final decayed rate —
  // exactly the flywheel's repeated fine-tune rounds — so round N trained
  // at decay^(N*epochs) of the configured rate instead of the configured
  // schedule.
  const double base_lr = optimizer.config().learning_rate;
  double lr = base_lr;

  std::vector<EpochStats> history;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.config().learning_rate = lr;
    rng.shuffle(order);
    double loss_sum = 0.0;
    int batches = 0;
    for (std::size_t first = 0; first < order.size();
         first += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t last = std::min(
          order.size(), first + static_cast<std::size_t>(config.batch_size));
      auto [images, targets] =
          make_batch(examples, order, first, last, input_size);
      optimizer.zero_grad();
      const Tensor predictions = model.forward(images, /*training=*/true);
      const LossResult loss = config.use_mae
                                  ? mae_loss(predictions, targets)
                                  : mse_loss(predictions, targets);
      model.backward(loss.grad);
      optimizer.step();
      loss_sum += loss.value;
      ++batches;
    }
    EpochStats stats{epoch + 1, loss_sum / std::max(1, batches), lr};
    history.push_back(stats);
    epoch_counter.inc();
    batch_counter.inc(batches);
    example_counter.inc(static_cast<long long>(order.size()));
    span.row("epochs", {{"epoch", static_cast<double>(stats.epoch)},
                        {"mean_loss", stats.mean_loss},
                        {"learning_rate", stats.learning_rate}});
    if (on_epoch) on_epoch(stats);
    lr *= config.lr_decay_per_epoch;
  }
  optimizer.config().learning_rate = base_lr;
  span.attr("final_loss", history.empty() ? 0.0 : history.back().mean_loss);
  return history;
}

double evaluate_mae(const ResNetRegressor& model,
                    const std::vector<Example>& examples) {
  require(!examples.empty(), "evaluate_mae: no examples");
  double sum = 0.0;
  for (const Example& ex : examples)
    sum += std::abs(model.predict_one(ex.image) -
                    static_cast<double>(ex.label));
  return sum / static_cast<double>(examples.size());
}

}  // namespace ldmo::nn
