// The three benchmark workloads and the per-layer metric helpers they
// share.
//
//   flow_batch_128   offline batch: FlowEngine::run_many over distinct
//                    clips at the 128-px model, cold ILT on every clip.
//   serve_mixed_64   in-process serve::Server at the 64-px model, driven
//                    open-loop on a seeded Poisson schedule; a fixed share
//                    of requests repeats a hot set (result-cache reads).
//   cluster_warm_64  two ServeDaemon workers behind the consistent-hash
//                    Router, one closed-loop Client connection over a
//                    working set whose caches are filled during set-up.
#pragma once

#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "serve/request.h"

namespace perfbench {

Outcome run_flow_batch(const Options& options, Clock::time_point start);
Outcome run_serve_mixed(const Options& options, Clock::time_point start);
Outcome run_cluster_warm(const Options& options, Clock::time_point start);

/// Interval state for the per-layer metrics derived from program counters
/// (flow.*, ilt.*, litho.*, runtime.*, workspace.*, predictor.*), the
/// allocation probe and the global pool's busy time.
class LayerInterval {
 public:
  LayerInterval();
  /// Adds the counter-derived opc/litho/runtime/core/mpl/nn metrics for
  /// `units` clips or requests completed over the interval. `ilt_seconds`,
  /// `predict_seconds` and `flow_seconds` sum LdmoResult::timing over the
  /// freshly computed results; `winning_iterations` sums their
  /// ilt.iterations_run.
  void finish(Outcome& out, double units, double ilt_seconds,
              double predict_seconds, double flow_seconds,
              double winning_iterations) const;
  const CounterDelta& counters() const { return counters_; }

 private:
  CounterDelta counters_;
  Clock::time_point start_;
  unsigned long long allocs_ = 0;
  std::vector<double> busy_;
};

/// Per-request samples behind the serve.* metrics.
struct ServeSamples {
  std::vector<double> queue_wait;    ///< ServeResponse::queue_seconds
  std::vector<double> service;       ///< ServeResponse::service_seconds
  std::vector<double> hit_latency;   ///< end-to-end, kCached responses
  std::vector<double> miss_latency;  ///< end-to-end, kOk responses
  double queue_depth_max = 0.0;
  void add(const ldmo::serve::ServeResponse& r, double latency);
};

/// serve.* metrics from the samples plus the interval's counters.
void serve_layer_metrics(Outcome& out, const CounterDelta& counters,
                         const ServeSamples& samples);

/// Counts check failures and non-ok statuses into the outcome's failures
/// and sets the end-to-end ok_ratio.
void finish_counts(Outcome& out, long long attempted, long long failed);

}  // namespace perfbench
