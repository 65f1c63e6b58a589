// Per-layer metric bookkeeping shared by the workloads.
#include <algorithm>

#include "alloc_probe.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace ldmo;

LayerInterval::LayerInterval()
    : start_(Clock::now()),
      allocs_(allocations()),
      busy_(runtime::global_pool().worker_busy_seconds()) {}

void LayerInterval::finish(Outcome& out, double units, double ilt_seconds,
                           double predict_seconds, double flow_seconds,
                           double winning_iterations) const {
  const double wall = seconds_since(start_);
  const CounterDelta& c = counters_;
  const auto per_unit = [&](const char* counter) {
    return safe_ratio(c.counter(counter), units);
  };
  out.per_layer.set("opc.iterations_per_clip", per_unit("ilt.iterations"),
                    "count");
  out.per_layer.set("opc.violation_checks_per_clip",
                    per_unit("ilt.violation_checks"), "count");
  out.per_layer.set("opc.aborts_per_clip", per_unit("ilt.aborts"), "count");
  out.per_layer.set("litho.prints_per_clip", per_unit("litho.prints"),
                    "count");
  out.per_layer.set("litho.evaluations_per_clip",
                    per_unit("litho.evaluations"), "count");

  const std::vector<double> busy_now =
      runtime::global_pool().worker_busy_seconds();
  double busy = 0.0;
  for (std::size_t i = 0; i < busy_now.size(); ++i)
    busy += busy_now[i] - (i < busy_.size() ? busy_[i] : 0.0);
  out.per_layer.set(
      "runtime.busy_ratio",
      safe_ratio(busy, static_cast<double>(runtime::thread_count()) * wall),
      "ratio");
  const double inline_tasks = c.counter("runtime.tasks_inline");
  out.per_layer.set(
      "runtime.inline_ratio",
      safe_ratio(inline_tasks,
                 inline_tasks + c.counter("runtime.tasks_executed")),
      "ratio");
  out.per_layer.set(
      "runtime.allocs_per_clip",
      safe_ratio(static_cast<double>(allocations() - allocs_), units),
      "count");
  const double misses = c.counter("workspace.misses");
  out.per_layer.set("workspace.miss_ratio",
                    safe_ratio(misses, misses + c.counter("workspace.hits")),
                    "ratio");

  out.per_layer.set("core.ilt_share", safe_ratio(ilt_seconds, flow_seconds),
                    "ratio");
  out.per_layer.set("core.predict_share",
                    safe_ratio(predict_seconds, flow_seconds), "ratio");
  const double runs = c.counter("flow.runs");
  out.per_layer.set("core.attempts_per_clip",
                    safe_ratio(c.counter("ilt.runs"), runs), "count");
  out.per_layer.set("core.fallbacks_per_clip",
                    safe_ratio(c.counter("flow.fallbacks"), runs), "count");
  out.per_layer.set(
      "core.useful_iteration_ratio",
      safe_ratio(winning_iterations, c.counter("ilt.iterations")), "ratio");
  out.per_layer.set("mpl.candidates_per_clip",
                    safe_ratio(c.counter("flow.candidates_generated"), runs),
                    "count");
  out.per_layer.set("nn.inferences_per_clip",
                    per_unit("predictor.cnn.inferences"), "count");
  out.note("layer_units", units);
  out.note("layer_flow_runs", runs);
}

void ServeSamples::add(const serve::ServeResponse& r, double latency) {
  queue_wait.push_back(r.queue_seconds);
  service.push_back(r.service_seconds);
  (r.status == serve::ServeStatus::kCached ? hit_latency : miss_latency)
      .push_back(latency);
}

void serve_layer_metrics(Outcome& out, const CounterDelta& c,
                         const ServeSamples& samples) {
  const LatencySummary q = summarize(samples.queue_wait);
  out.per_layer.set("serve.queue_wait_p50_s", q.p50, "s");
  out.per_layer.set("serve.queue_wait_tail_s", q.tail, "s");
  out.per_layer.set("serve.service_p50_s", percentile(samples.service, 0.5),
                    "s");
  out.per_layer.set("serve.hit_latency_p50_s",
                    percentile(samples.hit_latency, 0.5), "s");
  out.per_layer.set("serve.miss_latency_p50_s",
                    percentile(samples.miss_latency, 0.5), "s");
  const double hits = c.counter("serve.cache.hits");
  out.per_layer.set(
      "serve.cache_hit_ratio",
      safe_ratio(hits, hits + c.counter("serve.cache.misses")), "ratio");
  const double score_hits = c.counter("serve.score_cache.hits");
  out.per_layer.set(
      "serve.score_cache_hit_ratio",
      safe_ratio(score_hits,
                 score_hits + c.counter("serve.score_cache.misses")),
      "ratio");
  const double flushes = c.counter("serve.batch.flushes");
  out.per_layer.set("serve.batch_jobs_per_flush",
                    safe_ratio(c.counter("serve.batch.jobs"), flushes),
                    "count");
  out.per_layer.set(
      "serve.batch_coalesced_ratio",
      safe_ratio(c.counter("serve.batch.coalesced_flushes"), flushes),
      "ratio");
  out.per_layer.set("serve.queue_depth_max", samples.queue_depth_max,
                    "count");
  out.note("serve_hits", static_cast<double>(samples.hit_latency.size()));
  out.note("serve_misses", static_cast<double>(samples.miss_latency.size()));
}

void finish_counts(Outcome& out, long long attempted, long long failed) {
  out.attempted = attempted;
  out.failed = failed;
  out.end_to_end.set(
      "ok_ratio",
      attempted > 0
          ? static_cast<double>(attempted - failed) /
                static_cast<double>(attempted)
          : 0.0,
      "ratio");
  out.note("failed_ratio",
           attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0);
}

}  // namespace perfbench
