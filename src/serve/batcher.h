// Cross-request inference batching.
//
// The flow's predict phase scores every candidate of one layout in one
// score_batch call, and the backend is entered one call at a time. Under
// concurrent serving, many dispatchers hit that phase at overlapping
// times. The InferenceBatcher coalesces: concurrent score() calls join an
// open batch, the first joiner (the leader) flushes it through the
// backend's score_batch_multi, and every joiner wakes with exactly its
// own scores.
//
// When to flush: the CNN runs one task per candidate, so a flush needs
// no minimum size to use the thread pool, and waiting only adds latency.
// The leader flushes as soon as the backend is free; requests that arrive
// while a flush holds the backend join the next batch, so coalescing
// still happens under load.
//
// Determinism: score_batch_multi is REQUIRED (predictor.h) to return
// bit-identical scores to a solo score_batch per job, so coalescing never
// changes a response — only its latency. The batcher serializes backend
// entry (one flush at a time; the direct path takes the same mutex), so
// backends need not be thread-safe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "common/flow_error.h"
#include "core/predictor.h"
#include "obs/metrics.h"
#include "serve/cache_key.h"
#include "serve/result_cache.h"

namespace ldmo::serve {

struct BatcherConfig {
  /// Disabled = every score() goes straight to the backend (still
  /// serialized); the serve-bench --no-batch baseline.
  bool enabled = true;
};

class InferenceBatcher {
 public:
  /// `backend` must outlive the batcher. All backend entry happens under
  /// the batcher's serialization, whatever `config.enabled` says.
  InferenceBatcher(core::PrintabilityPredictor& backend,
                   BatcherConfig config);

  /// Scores `candidates` for `layout`, possibly coalesced with concurrent
  /// callers. Blocks until this caller's scores are ready; rethrows any
  /// backend exception in every joined caller. The referenced layout and
  /// candidate list must stay alive for the duration of the call.
  std::vector<double> score(const layout::Layout& layout,
                            const std::vector<layout::Assignment>& candidates);

  /// Repoints the batcher at a new backend (Server::swap_backend). Waits
  /// out any in-flight flush under the batcher lock; the caller
  /// additionally quiesces the dispatchers, so no score() can be mid-join.
  /// The new backend must outlive the batcher or the next set_backend.
  void set_backend(core::PrintabilityPredictor& backend);

  const BatcherConfig& config() const { return config_; }
  core::PrintabilityPredictor& backend() { return *backend_; }

 private:
  /// One coalescing generation: jobs joined before its flush started.
  /// A backend failure is captured as a FlowError VALUE, not an
  /// exception_ptr: rethrowing one shared exception_ptr would hand every
  /// joiner thread the same underlying exception object, racing one
  /// thread's catch-cleanup against another's reads. Each joiner throws
  /// its own fresh exception built from the value instead.
  struct Batch {
    std::vector<core::ScoringJob> jobs;
    std::vector<std::vector<double>> results;  ///< aligned with jobs
    std::size_t candidates = 0;
    bool flushed = false;
    bool failed = false;
    bool stage_tagged = false;  ///< original exception was a FlowException
    FlowError error;
  };

  void flush(std::shared_ptr<Batch> batch,
             std::unique_lock<std::mutex>& lock);

  core::PrintabilityPredictor* backend_;  ///< never null; swaps under mu_
  const BatcherConfig config_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Batch> open_;     ///< batch accepting joiners (may be null)
  bool flush_in_progress_ = false;  ///< serializes backend entry

  obs::Counter& flush_counter_;
  obs::Counter& job_counter_;
  obs::Counter& candidate_counter_;
  obs::Counter& coalesced_flush_counter_;
};

/// Per-dispatcher predictor adapter: routes the flow's predict phase
/// through the score cache and the shared batcher. Each dispatcher's
/// FlowEngine owns one; they all reference the server's shared batcher and
/// cache, so inference coalesces and scores dedupe across dispatchers.
class BatchingPredictor : public core::PrintabilityPredictor {
 public:
  /// `batcher` (and its backend) must outlive this predictor;
  /// `score_cache` may be null to disable the score tier. `config_fp`
  /// namespaces cached scores by flow configuration.
  BatchingPredictor(InferenceBatcher& batcher,
                    ShardedLruCache<double>* score_cache,
                    std::uint64_t config_fp);

  double score(const layout::Layout& layout,
               const layout::Assignment& assignment) override;
  std::vector<double> score_batch(
      const layout::Layout& layout,
      const std::vector<layout::Assignment>& candidates) override;
  /// Backend's name: the adapter must not change the config fingerprint.
  std::string name() const override { return batcher_.backend().name(); }

  /// Re-namespaces cached scores after a backend swap (the new fingerprint
  /// embeds the new predictor name, so scores from the old model become
  /// unreachable). Called by Server::swap_backend while dispatchers are
  /// quiesced; atomic so a racing reader sees old or new, never torn.
  void set_config_fp(std::uint64_t config_fp) {
    config_fp_.store(config_fp, std::memory_order_relaxed);
  }

 private:
  InferenceBatcher& batcher_;
  ShardedLruCache<double>* score_cache_;
  std::atomic<std::uint64_t> config_fp_;
};

}  // namespace ldmo::serve
