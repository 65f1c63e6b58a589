// Printability predictors: the learned CNN scorer and reference oracles.
//
// A predictor answers one question: "how printable will this decomposition
// be after mask optimization?" — lower score is better. The paper's
// contribution is answering it with a CNN in milliseconds instead of a
// lithography-simulation loop in seconds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layout/layout.h"
#include "litho/simulator.h"
#include "nn/resnet.h"
#include "opc/ilt.h"

namespace ldmo::core {

/// One request's scoring workload, for coalescing inference across
/// concurrent requests (serve::InferenceBatcher). Non-owning: the pointed-to
/// layout and candidate list must outlive the score_batch_multi call.
struct ScoringJob {
  const layout::Layout* layout = nullptr;
  const std::vector<layout::Assignment>* candidates = nullptr;
};

/// Interface: score a decomposition candidate (lower = better).
class PrintabilityPredictor {
 public:
  virtual ~PrintabilityPredictor() = default;
  virtual double score(const layout::Layout& layout,
                       const layout::Assignment& assignment) = 0;

  /// Scores every candidate of one layout. Equivalent to calling score()
  /// in order — and required to return bit-identical values to that loop —
  /// but implementations may batch (CNN) or parallelize (oracles) across
  /// the candidate axis. The flow's predict phase always enters here.
  virtual std::vector<double> score_batch(
      const layout::Layout& layout,
      const std::vector<layout::Assignment>& candidates);

  /// Scores several jobs at once — the cross-request batching hook. The
  /// result is index-aligned with `jobs`, each entry index-aligned with
  /// that job's candidates, and every score is REQUIRED to be bit-identical
  /// to a solo score_batch of the same job (the serving layer's determinism
  /// contract rests on it). The default runs the jobs in order; the CNN
  /// overrides it to run every job's candidates in one parallel inference.
  /// Implementations need not be thread-safe — the serve batcher serializes
  /// entry.
  virtual std::vector<std::vector<double>> score_batch_multi(
      const std::vector<ScoringJob>& jobs);

  virtual std::string name() const = 0;

  /// Digest of the model's parameter bits; 0 for a predictor without
  /// parameters. serve::config_fingerprint hashes it next to name(), so
  /// two weight sets under one name key apart. It walks every parameter:
  /// take it where a fingerprint is computed, not per request.
  virtual std::uint64_t parameter_digest() const { return 0; }
};

/// The paper's predictor: the trained ResNet regressor on the grayscale
/// decomposition image. Scores are in z-normalized units — fine for
/// ranking, which is all the flow needs.
class CnnPredictor : public PrintabilityPredictor {
 public:
  /// Takes ownership of a (typically trained) regressor.
  explicit CnnPredictor(std::unique_ptr<nn::ResNetRegressor> network);

  double score(const layout::Layout& layout,
               const layout::Assignment& assignment) override;
  /// Batched inference: candidates are rasterized in parallel, then
  /// ResNetRegressor::predict runs the whole network on each one as its
  /// own task. Eval-mode inference is sample-independent, so scores match
  /// score() bit for bit.
  std::vector<double> score_batch(
      const layout::Layout& layout,
      const std::vector<layout::Assignment>& candidates) override;
  /// Cross-request batching: flattens every job's (layout, candidate)
  /// pairs into one stream and scores it with one predict call, so the
  /// per-candidate tasks of concurrent requests share the thread pool.
  /// Each score is bit-identical to a solo run whatever the job mix.
  std::vector<std::vector<double>> score_batch_multi(
      const std::vector<ScoringJob>& jobs) override;
  std::string name() const override { return "cnn"; }
  /// Fnv1a over the network's architecture and parameter values, the way
  /// warmstart::MaskWarmStart fingerprints its net.
  std::uint64_t parameter_digest() const override;

  nn::ResNetRegressor& network() { return *network_; }

  /// Weight (de)serialization for reuse across runs.
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  std::unique_ptr<nn::ResNetRegressor> network_;
};

/// Decorator that folds a weight version into the predictor identity:
/// "cnn" becomes "cnn@v3". serve::config_fingerprint hashes the predictor
/// name and parameter digest, so every weight promotion
/// (serve::Server::swap_backend, reached from the daemon's wire swap and
/// the flywheel) changes every cache key and stale results become
/// unreachable rather than wrong.
class VersionedPredictor : public PrintabilityPredictor {
 public:
  VersionedPredictor(std::unique_ptr<PrintabilityPredictor> inner,
                     std::uint64_t version)
      : inner_(std::move(inner)),
        version_(version),
        name_(inner_->name() + "@v" + std::to_string(version)) {}

  double score(const layout::Layout& layout,
               const layout::Assignment& assignment) override {
    return inner_->score(layout, assignment);
  }
  std::vector<double> score_batch(
      const layout::Layout& layout,
      const std::vector<layout::Assignment>& candidates) override {
    return inner_->score_batch(layout, candidates);
  }
  std::vector<std::vector<double>> score_batch_multi(
      const std::vector<ScoringJob>& jobs) override {
    return inner_->score_batch_multi(jobs);
  }
  std::string name() const override { return name_; }
  std::uint64_t parameter_digest() const override {
    return inner_->parameter_digest();
  }
  std::uint64_t version() const { return version_; }

 private:
  std::unique_ptr<PrintabilityPredictor> inner_;
  std::uint64_t version_ = 0;
  std::string name_;
};

/// What a weight push installs: a CnnPredictor of architecture `network`
/// holding the weights decoded from `blob` (nn::encode_parameters format),
/// named "cnn@v<version>". Throws on a blob that does not fit `network`.
std::unique_ptr<PrintabilityPredictor> versioned_cnn(
    const std::vector<std::uint8_t>& blob, std::uint64_t version,
    const nn::ResNetConfig& network = {});

/// Oracle predictor: runs the full ILT optimization and returns the true
/// Eq. 9 score. Exact but as expensive as the thing the CNN replaces —
/// used for tests and the sampling-quality experiments.
class IltOraclePredictor : public PrintabilityPredictor {
 public:
  IltOraclePredictor(const opc::IltEngine& engine,
                     litho::ScoreWeights weights = {});

  double score(const layout::Layout& layout,
               const layout::Assignment& assignment) override;
  /// Parallelizes the (expensive, independent) per-candidate ILT runs.
  std::vector<double> score_batch(
      const layout::Layout& layout,
      const std::vector<layout::Assignment>& candidates) override;
  std::string name() const override { return "ilt-oracle"; }

 private:
  const opc::IltEngine& engine_;
  litho::ScoreWeights weights_;
};

/// Cheap analytic predictor: prints the *unoptimized* decomposition once
/// and scores it. No learning, one lithography forward pass — a sanity
/// baseline between the CNN and the oracle.
class RawPrintPredictor : public PrintabilityPredictor {
 public:
  explicit RawPrintPredictor(const litho::LithoSimulator& simulator,
                             litho::ScoreWeights weights = {});

  double score(const layout::Layout& layout,
               const layout::Assignment& assignment) override;
  /// Parallelizes the per-candidate print+evaluate passes.
  std::vector<double> score_batch(
      const layout::Layout& layout,
      const std::vector<layout::Assignment>& candidates) override;
  std::string name() const override { return "raw-print"; }

 private:
  const litho::LithoSimulator& simulator_;
  litho::ScoreWeights weights_;
};

}  // namespace ldmo::core
