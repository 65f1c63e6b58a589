#include "flywheel/tuner.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/stats.h"
#include "core/predictor.h"
#include "flywheel/log.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace ldmo::flywheel {

FineTuner::FineTuner(TunerConfig config, PromoteFn promote)
    : config_(std::move(config)), promote_(std::move(promote)) {
  require(config_.holdout_every >= 2,
          "FineTuner: holdout_every must be >= 2");
  require(config_.min_new_records >= 1,
          "FineTuner: min_new_records must be >= 1");
  require(!config_.log_path.empty(), "FineTuner: log_path required");
}

FineTuner::~FineTuner() { stop(); }

void FineTuner::set_incumbent(const std::vector<std::uint8_t>& blob) {
  auto model = std::make_unique<nn::ResNetRegressor>(config_.network);
  nn::decode_parameters(model->parameters(), blob);
  std::lock_guard<std::mutex> lock(model_mu_);
  incumbent_ = std::move(model);
  has_incumbent_ = true;
}

double FineTuner::holdout_correlation(
    nn::ResNetRegressor& model, const std::vector<nn::Example>& holdout,
    const std::vector<double>& actual) {
  std::vector<double> predicted;
  predicted.reserve(holdout.size());
  for (const nn::Example& example : holdout)
    predicted.push_back(model.predict_one(example.image));
  return spearman_rank_correlation(predicted, actual);
}

TuneRound FineTuner::run_once() {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  TuneRound round;
  if (!std::filesystem::exists(config_.log_path)) {
    round.detail = "no training log yet";
    return round;
  }
  // A torn tail costs a pair; corruption before the tail throws out of
  // here — a rotten log must not train a model (log.h).
  const TrainingLog log = read_training_log(config_.log_path);
  require(log.image_size == config_.network.input_size,
          "FineTuner: log image size " + std::to_string(log.image_size) +
              " != network input size " +
              std::to_string(config_.network.input_size));
  round.records = log.pairs.size();

  std::lock_guard<std::mutex> model_lock(model_mu_);
  if (log.pairs.size() < consumed_ + config_.min_new_records) {
    round.detail = "waiting for data (" + std::to_string(log.pairs.size()) +
                   " of " +
                   std::to_string(consumed_ + config_.min_new_records) +
                   " pairs)";
    return round;
  }

  // Deterministic positional split: every holdout_every-th pair is judged,
  // never trained on, and both contenders see the identical slice.
  const int side = config_.network.input_size;
  std::vector<nn::Example> train;
  std::vector<nn::Example> holdout;
  std::vector<double> train_scores;
  std::vector<double> actual;
  for (std::size_t i = 0; i < log.pairs.size(); ++i) {
    const TrainingPair& pair = log.pairs[i];
    nn::Example example;
    example.image = nn::Tensor({1, side, side});
    std::copy(pair.image.begin(), pair.image.end(), example.image.data());
    if (static_cast<int>(i % static_cast<std::size_t>(
                                 config_.holdout_every)) ==
        config_.holdout_every - 1) {
      holdout.push_back(std::move(example));
      actual.push_back(pair.score);
    } else {
      train.push_back(std::move(example));
      train_scores.push_back(pair.score);
    }
  }
  if (holdout.size() < 2 || train.empty()) {
    round.detail = "split too small to judge";
    return round;
  }
  round.train_count = train.size();
  round.holdout_count = holdout.size();

  // Labels are z-normalized per round (the regression head trains best
  // near zero); the held-out gate compares RANK correlations against raw
  // scores, which normalization cannot move.
  double mean = 0.0;
  for (double s : train_scores) mean += s;
  mean /= static_cast<double>(train_scores.size());
  double var = 0.0;
  for (double s : train_scores) var += (s - mean) * (s - mean);
  const double stddev =
      std::sqrt(var / static_cast<double>(train_scores.size()));
  const double scale = stddev > 0.0 ? stddev : 1.0;
  for (std::size_t i = 0; i < train.size(); ++i)
    train[i].label = static_cast<float>((train_scores[i] - mean) / scale);

  round.attempted = true;
  rounds_.fetch_add(1);
  obs::counter("flywheel.rounds").inc();
  consumed_ = log.pairs.size();

  if (has_incumbent_)
    round.incumbent_corr = holdout_correlation(*incumbent_, holdout, actual);
  obs::gauge("flywheel.corr.incumbent").set(round.incumbent_corr);

  // Candidate = incumbent's weights (or a fresh init when bootstrapping),
  // fine-tuned on the train slice through the caller-owned-optimizer
  // entry point (trainer.h): the LR schedule restarts from the Adam base
  // rate every round instead of compounding.
  auto candidate = std::make_unique<nn::ResNetRegressor>(config_.network);
  if (has_incumbent_) {
    const std::vector<nn::Parameter*> src = incumbent_->parameters();
    const std::vector<nn::Parameter*> dst = candidate->parameters();
    require(src.size() == dst.size(),
            "FineTuner: incumbent/candidate parameter layout mismatch");
    for (std::size_t i = 0; i < src.size(); ++i)
      dst[i]->value = src[i]->value;
  }
  nn::Adam optimizer(candidate->parameters(), config_.trainer.adam);
  nn::train_regressor(*candidate, train, config_.trainer, optimizer);
  round.candidate_corr = holdout_correlation(*candidate, holdout, actual);
  obs::gauge("flywheel.corr.candidate").set(round.candidate_corr);

  if (round.candidate_corr > round.incumbent_corr + config_.min_gain) {
    // Weight encoding runs the "nn.save" failpoint; any fault in the
    // promotion path aborts THIS round only — the incumbent keeps serving
    // and the next round gets a fresh shot.
    try {
      const std::vector<std::uint8_t> blob =
          nn::encode_parameters(candidate->parameters());
      const std::uint64_t version = version_.fetch_add(1) + 1;
      if (promote_) promote_(version, blob);
      incumbent_ = std::move(candidate);
      has_incumbent_ = true;
      round.promoted = true;
      round.version = version;
      promotions_.fetch_add(1);
      obs::counter("flywheel.promotions").inc();
      round.detail = "promoted v" + std::to_string(version);
      log_info("flywheel: promoted candidate v", version,
               " (held-out rank corr ", round.candidate_corr, " > ",
               round.incumbent_corr, ")");
    } catch (const std::exception& e) {
      round.detail = std::string("promotion aborted: ") + e.what();
      log_warn("flywheel: promotion aborted, incumbent keeps serving: ",
               e.what());
    }
  } else {
    round.detail = "gate held (candidate " +
                   std::to_string(round.candidate_corr) + " vs incumbent " +
                   std::to_string(round.incumbent_corr) + ")";
    log_info("flywheel: ", round.detail);
  }
  return round;
}

void FineTuner::start() {
  require(!loop_.joinable(), "FineTuner: already started");
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = false;
  }
  loop_ = std::thread([this] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(stop_mu_);
        stop_cv_.wait_for(
            lock, std::chrono::milliseconds(config_.poll_interval_ms),
            [&] { return stopping_; });
        if (stopping_) return;
      }
      try {
        run_once();
      } catch (const std::exception& e) {
        log_warn("flywheel: background round failed: ", e.what());
      }
    }
  });
}

void FineTuner::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (loop_.joinable()) loop_.join();
}

PromoteFn local_promoter(serve::Server& server, nn::ResNetConfig network) {
  return [&server, network](std::uint64_t version,
                            const std::vector<std::uint8_t>& blob) {
    server.swap_backend(core::versioned_cnn(blob, version, network));
  };
}

}  // namespace ldmo::flywheel
