// Background fine-tuner with gated promotion: the flywheel's closing arc.
//
// A FineTuner watches the training log the serve-time sink grows
// (sink.h). Once enough NEW pairs have accumulated, a round fires:
//
//   1. read the whole log (tolerant reader; a torn tail costs one pair),
//   2. split it into a train slice and a deterministic held-out slice,
//   3. score the held-out pairs with the INCUMBENT predictor network and
//      compute the Spearman rank correlation of predicted vs actual —
//      rank correlation, because candidate ordering is all the flow uses
//      the predictor for,
//   4. clone the incumbent, fine-tune the clone on the train slice
//      (nn::train_regressor over a caller-owned Adam; labels z-normalized
//      per round — rank correlation is invariant to that),
//   5. re-score the held-out slice with the candidate and PROMOTE ONLY IF
//      the candidate's held-out rank correlation beats the incumbent's by
//      at least min_gain. A worse candidate is discarded and the
//      incumbent keeps serving — mistraining is contained by the gate.
//
// Promotion encodes the candidate's weights in memory (nn::encode_parameters
// and its "nn.save" failpoint — a fault here aborts the round, incumbent
// intact) and hands the blob to the PromoteFn with a fresh version number.
// The PromoteFn is the deployment edge: locally it decodes the blob into a
// core::VersionedPredictor and calls serve::Server::swap_backend
// (local_promoter below); in a daemon it calls ServeDaemon::swap_weights,
// and over the wire the net client's swap-weights verb — both of which end
// in swap_backend too. Either way the versioned name changes the config
// fingerprint, so every cached result and score from the old model is
// retired atomically with the swap (DESIGN.md §16). No weight byte touches
// the disk on the way.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/resnet.h"
#include "nn/trainer.h"

namespace ldmo::serve {
class Server;
}  // namespace ldmo::serve

namespace ldmo::flywheel {

struct TunerConfig {
  /// The training log the serve-time sink appends to.
  std::string log_path;
  /// Architecture of the predictor CNN being fine-tuned; input_size must
  /// match the log's image size.
  nn::ResNetConfig network;
  /// Fine-tune hyperparameters (epochs, batch size, LR schedule). The
  /// Adam base rate comes from trainer.adam.learning_rate.
  nn::TrainerConfig trainer;
  /// A round fires only once this many pairs arrived since the last round
  /// (or since start). Keeps rounds meaningful and bounds training churn.
  std::size_t min_new_records = 12;
  /// Every holdout_every-th pair is held out (never trained on); must be
  /// >= 2. Deterministic by position, so incumbent and candidate are
  /// always judged on the same slice.
  int holdout_every = 4;
  /// Candidate must beat the incumbent's held-out rank correlation by
  /// more than this to promote (0 = any strict improvement).
  double min_gain = 0.0;
  /// Background-thread poll cadence.
  int poll_interval_ms = 200;
};

/// What one run_once() observed and decided.
struct TuneRound {
  bool attempted = false;  ///< enough new data to train at all
  bool promoted = false;
  std::size_t records = 0;  ///< whole pairs in the log at round start
  std::size_t train_count = 0;
  std::size_t holdout_count = 0;
  /// Held-out Spearman rank correlation of predicted vs actual score.
  /// The incumbent reports -2.0 (below any real correlation) when no
  /// incumbent weights were ever set — the first trained candidate then
  /// always wins, bootstrapping the loop.
  double incumbent_corr = -2.0;
  double candidate_corr = -2.0;
  std::uint64_t version = 0;  ///< assigned on promotion, else 0
  std::string detail;         ///< human-readable outcome note
};

/// Deployment edge: receives a freshly assigned version number and the
/// serialized weight blob (nn::encode_parameters format) of the promoted
/// candidate. Must throw on failure — the tuner then keeps the incumbent.
using PromoteFn =
    std::function<void(std::uint64_t version,
                       const std::vector<std::uint8_t>& blob)>;

class FineTuner {
 public:
  FineTuner(TunerConfig config, PromoteFn promote);
  ~FineTuner();  ///< stop()s if running

  FineTuner(const FineTuner&) = delete;
  FineTuner& operator=(const FineTuner&) = delete;

  /// Installs incumbent weights (nn::encode_parameters blob, e.g. the
  /// bytes of the weight file the serve daemon booted with) so round one
  /// competes against the deployed model instead of a fresh init.
  void set_incumbent(const std::vector<std::uint8_t>& blob);

  /// One synchronous flywheel round; see the file comment for the arc.
  /// A missing/empty/insufficient log returns attempted=false. Throws
  /// only on unrecoverable trouble (corrupt log before the tail,
  /// architecture mismatch).
  TuneRound run_once();

  /// Starts/stops the background polling thread running run_once()
  /// per poll_interval_ms; exceptions are logged, the loop continues.
  void start();
  void stop();

  std::uint64_t version() const { return version_.load(); }
  long long rounds() const { return rounds_.load(); }
  long long promotions() const { return promotions_.load(); }
  const TunerConfig& config() const { return config_; }

 private:
  double holdout_correlation(nn::ResNetRegressor& model,
                             const std::vector<nn::Example>& holdout,
                             const std::vector<double>& actual);

  TunerConfig config_;
  PromoteFn promote_;

  std::mutex model_mu_;  ///< guards incumbent_ and consumed_
  std::unique_ptr<nn::ResNetRegressor> incumbent_;
  bool has_incumbent_ = false;
  std::size_t consumed_ = 0;  ///< pairs already seen by a fired round

  std::atomic<std::uint64_t> version_{0};
  std::atomic<long long> rounds_{0};
  std::atomic<long long> promotions_{0};

  std::mutex run_mu_;  ///< serializes run_once vs background loop
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread loop_;
};

/// PromoteFn for the in-process path: decodes the blob in memory into a
/// fresh CnnPredictor (architecture `network`), wraps it in
/// core::VersionedPredictor ("cnn@vN") and swap_backend()s it into
/// `server` — retiring all cached results/scores from the old model via
/// the fingerprint change. The server must outlive the returned function.
PromoteFn local_promoter(serve::Server& server, nn::ResNetConfig network);

}  // namespace ldmo::flywheel
