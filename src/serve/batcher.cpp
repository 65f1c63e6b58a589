#include "serve/batcher.h"

#include <utility>

#include "common/error.h"
#include "layout/fingerprint.h"

namespace ldmo::serve {

InferenceBatcher::InferenceBatcher(core::PrintabilityPredictor& backend,
                                   BatcherConfig config)
    : backend_(&backend),
      config_(config),
      flush_counter_(obs::counter("serve.batch.flushes")),
      job_counter_(obs::counter("serve.batch.jobs")),
      candidate_counter_(obs::counter("serve.batch.candidates")),
      coalesced_flush_counter_(
          obs::counter("serve.batch.coalesced_flushes")) {}

void InferenceBatcher::set_backend(core::PrintabilityPredictor& backend) {
  std::unique_lock<std::mutex> lock(mu_);
  // A straggling flush still holds the old backend outside the lock; wait
  // it out so the swap never yanks a model mid-inference.
  cv_.wait(lock, [&] { return !flush_in_progress_; });
  backend_ = &backend;
}

std::vector<double> InferenceBatcher::score(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  if (candidates.empty()) return {};

  std::unique_lock<std::mutex> lock(mu_);

  if (!config_.enabled) {
    // Direct path, still one-caller-at-a-time through the backend.
    cv_.wait(lock, [&] { return !flush_in_progress_; });
    flush_in_progress_ = true;
    std::vector<double> scores;
    std::exception_ptr error;
    lock.unlock();
    try {
      scores = backend_->score_batch(layout, candidates);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    flush_in_progress_ = false;
    cv_.notify_all();
    if (error) std::rethrow_exception(error);
    return scores;
  }

  // Join (or open) the coalescing batch.
  if (!open_) open_ = std::make_shared<Batch>();
  std::shared_ptr<Batch> batch = open_;
  const std::size_t my_index = batch->jobs.size();
  batch->jobs.push_back({&layout, &candidates});
  batch->candidates += candidates.size();

  if (my_index == 0) {
    // The leader flushes as soon as no other flush holds the backend;
    // callers arriving meanwhile join its batch.
    cv_.wait(lock, [&] { return !flush_in_progress_; });
    flush(batch, lock);
  } else {
    cv_.wait(lock, [&] { return batch->flushed; });
  }

  if (batch->failed) {
    // Fresh exception per joiner; see the Batch comment in batcher.h.
    if (batch->stage_tagged)
      throw FlowException(batch->error.stage, batch->error.message);
    throw Error(batch->error.message);
  }
  return std::move(batch->results[my_index]);
}

void InferenceBatcher::flush(std::shared_ptr<Batch> batch,
                             std::unique_lock<std::mutex>& lock) {
  // Close the generation: late arrivals open a fresh batch and their
  // leader queues behind flush_in_progress_.
  if (open_ == batch) open_.reset();
  flush_in_progress_ = true;
  flush_counter_.inc();
  job_counter_.inc(static_cast<long long>(batch->jobs.size()));
  candidate_counter_.inc(static_cast<long long>(batch->candidates));
  if (batch->jobs.size() > 1) coalesced_flush_counter_.inc();

  std::vector<core::ScoringJob> jobs = batch->jobs;  // stable copy
  lock.unlock();
  std::vector<std::vector<double>> results;
  bool failed = false, tagged = false;
  FlowError error;
  try {
    results = backend_->score_batch_multi(jobs);
  } catch (const FlowException& e) {
    failed = true;
    tagged = true;
    error = e.error();
  } catch (const std::exception& e) {
    failed = true;
    error = {FlowStage::kUnknown, e.what()};
  } catch (...) {
    failed = true;
    error = {FlowStage::kUnknown, "unknown scoring backend exception"};
  }
  lock.lock();
  batch->results = std::move(results);
  batch->failed = failed;
  batch->stage_tagged = tagged;
  batch->error = std::move(error);
  batch->flushed = true;
  flush_in_progress_ = false;
  cv_.notify_all();
}

BatchingPredictor::BatchingPredictor(InferenceBatcher& batcher,
                                     ShardedLruCache<double>* score_cache,
                                     std::uint64_t config_fp)
    : batcher_(batcher), score_cache_(score_cache), config_fp_(config_fp) {}

double BatchingPredictor::score(const layout::Layout& layout,
                                const layout::Assignment& assignment) {
  return score_batch(layout, {assignment}).front();
}

std::vector<double> BatchingPredictor::score_batch(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  if (score_cache_ == nullptr || !score_cache_->enabled())
    return batcher_.score(layout, candidates);

  // Score tier: cached doubles are the exact values a cold run computed,
  // so mixing hits with fresh inference preserves bit-identity.
  const std::uint64_t layout_fp = layout::fingerprint(layout);
  const std::uint64_t config_fp = config_fp_.load(std::memory_order_relaxed);
  std::vector<double> scores(candidates.size());
  std::vector<std::uint64_t> keys(candidates.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    keys[i] = score_cache_key(config_fp, layout_fp, candidates[i]);
    if (std::optional<double> hit = score_cache_->get(keys[i]))
      scores[i] = *hit;
    else
      missing.push_back(i);
  }
  if (!missing.empty()) {
    std::vector<layout::Assignment> fresh;
    fresh.reserve(missing.size());
    for (std::size_t i : missing) fresh.push_back(candidates[i]);
    const std::vector<double> fresh_scores = batcher_.score(layout, fresh);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      scores[missing[j]] = fresh_scores[j];
      score_cache_->put(keys[missing[j]], fresh_scores[j]);
    }
  }
  return scores;
}

}  // namespace ldmo::serve
