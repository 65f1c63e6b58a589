#include "core/predictor.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"
#include "sampling/training_set.h"

namespace ldmo::core {

std::vector<double> PrintabilityPredictor::score_batch(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (const layout::Assignment& candidate : candidates)
    scores.push_back(score(layout, candidate));
  return scores;
}

std::vector<std::vector<double>> PrintabilityPredictor::score_batch_multi(
    const std::vector<ScoringJob>& jobs) {
  std::vector<std::vector<double>> results;
  results.reserve(jobs.size());
  for (const ScoringJob& job : jobs) {
    require(job.layout != nullptr && job.candidates != nullptr,
            "score_batch_multi: null job");
    results.push_back(score_batch(*job.layout, *job.candidates));
  }
  return results;
}

CnnPredictor::CnnPredictor(std::unique_ptr<nn::ResNetRegressor> network)
    : network_(std::move(network)) {
  require(network_ != nullptr, "CnnPredictor: null network");
}

double CnnPredictor::score(const layout::Layout& layout,
                           const layout::Assignment& assignment) {
  // The paper's headline economy: each CNN inference here replaces a full
  // ILT + lithography-simulation evaluation (compare against
  // "litho.exposures" in the run report).
  static obs::Counter& inference_counter =
      obs::counter("predictor.cnn.inferences");
  inference_counter.inc();
  const nn::Tensor image = sampling::decomposition_tensor(
      layout, assignment, network_->config().input_size);
  return network_->predict_one(image);
}

std::vector<double> CnnPredictor::score_batch(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  // One-job case of the multi path.
  return score_batch_multi({{&layout, &candidates}}).front();
}

std::vector<std::vector<double>> CnnPredictor::score_batch_multi(
    const std::vector<ScoringJob>& jobs) {
  static obs::Counter& inference_counter =
      obs::counter("predictor.cnn.inferences");
  fail::maybe_fail("predictor.score", FlowStage::kPredict);

  const int size = network_->config().input_size;
  const std::size_t pixels =
      static_cast<std::size_t>(size) * static_cast<std::size_t>(size);

  // Flatten every job's (layout, candidate) pairs into one stream.
  struct Item {
    const layout::Layout* layout;
    const layout::Assignment* candidate;
    double* slot;
  };
  std::vector<std::vector<double>> results(jobs.size());
  std::vector<Item> items;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    require(jobs[j].layout != nullptr && jobs[j].candidates != nullptr,
            "CnnPredictor::score_batch_multi: null job");
    results[j].resize(jobs[j].candidates->size());
    for (std::size_t c = 0; c < jobs[j].candidates->size(); ++c)
      items.push_back({jobs[j].layout, &(*jobs[j].candidates)[c],
                       &results[j][c]});
  }
  inference_counter.inc(static_cast<long long>(items.size()));
  if (items.empty()) return results;

  // Rasterizing the decomposition images is per-candidate independent.
  // Every image is fully written before predict reads it.
  runtime::PooledVector<float> images =
      runtime::Workspace::this_thread().vec_f32_uninit(items.size() * pixels);
  runtime::parallel_for(items.size(), [&](std::size_t i) {
    const nn::Tensor image = sampling::decomposition_tensor(
        *items[i].layout, *items[i].candidate, size);
    std::memcpy(images.data() + i * pixels, image.data(),
                pixels * sizeof(float));
  });
  // One whole-network task per candidate. Eval-mode inference is
  // sample-independent, so each score is bit-identical however requests
  // were coalesced and at any thread count (the serving determinism
  // contract).
  const std::vector<float> scores =
      network_->predict(images.data(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    *items[i].slot = static_cast<double>(scores[i]);
  return results;
}

std::uint64_t CnnPredictor::parameter_digest() const {
  const nn::ResNetConfig& net = network_->config();
  common::Fnv1a h;
  h.str("ldmo.core.cnn.v1");
  // The input size changes the scores but no parameter shape.
  h.i64(net.input_size).f64(net.width_multiplier);
  h.i64(net.blocks_per_stage).i64(net.fc_dim);
  for (const nn::Parameter* p : network_->parameters())
    h.bytes(p->value.data(), p->value.size() * sizeof(float));
  return h.digest();
}

void CnnPredictor::save(const std::string& path) {
  nn::save_parameters(network_->parameters(), path);
}

void CnnPredictor::load(const std::string& path) {
  nn::load_parameters(network_->parameters(), path);
}

std::unique_ptr<PrintabilityPredictor> versioned_cnn(
    const std::vector<std::uint8_t>& blob, std::uint64_t version,
    const nn::ResNetConfig& network) {
  auto net = std::make_unique<nn::ResNetRegressor>(network);
  nn::decode_parameters(net->parameters(), blob);
  return std::make_unique<VersionedPredictor>(
      std::make_unique<CnnPredictor>(std::move(net)), version);
}

IltOraclePredictor::IltOraclePredictor(const opc::IltEngine& engine,
                                       litho::ScoreWeights weights)
    : engine_(engine), weights_(weights) {}

double IltOraclePredictor::score(const layout::Layout& layout,
                                 const layout::Assignment& assignment) {
  static obs::Counter& oracle_counter =
      obs::counter("predictor.oracle.ilt_runs");
  oracle_counter.inc();
  return engine_.optimize(layout, assignment).report.score(weights_);
}

std::vector<double> IltOraclePredictor::score_batch(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  static obs::Counter& oracle_counter =
      obs::counter("predictor.oracle.ilt_runs");
  oracle_counter.inc(static_cast<long long>(candidates.size()));
  std::vector<double> scores(candidates.size());
  runtime::parallel_for(candidates.size(), [&](std::size_t i) {
    scores[i] =
        engine_.optimize(layout, candidates[i]).report.score(weights_);
  });
  return scores;
}

RawPrintPredictor::RawPrintPredictor(const litho::LithoSimulator& simulator,
                                     litho::ScoreWeights weights)
    : simulator_(simulator), weights_(weights) {}

double RawPrintPredictor::score(const layout::Layout& layout,
                                const layout::Assignment& assignment) {
  static obs::Counter& raw_counter =
      obs::counter("predictor.raw_print.evaluations");
  raw_counter.inc();
  const GridF response = simulator_.print_decomposition(layout, assignment);
  return simulator_.evaluate(response, layout).score(weights_);
}

std::vector<double> RawPrintPredictor::score_batch(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  static obs::Counter& raw_counter =
      obs::counter("predictor.raw_print.evaluations");
  raw_counter.inc(static_cast<long long>(candidates.size()));
  fail::maybe_fail("predictor.score", FlowStage::kPredict);
  std::vector<double> scores(candidates.size());
  runtime::parallel_for(candidates.size(), [&](std::size_t i) {
    const GridF response =
        simulator_.print_decomposition(layout, candidates[i]);
    scores[i] = simulator_.evaluate(response, layout).score(weights_);
  });
  return scores;
}

}  // namespace ldmo::core
