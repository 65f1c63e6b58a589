#include "core/flow_engine.h"

#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/workspace.h"

namespace ldmo::core {

FlowEngine::FlowEngine(FlowEngineConfig config)
    : FlowEngine(std::move(config), nullptr) {}

FlowEngine::FlowEngine(FlowEngineConfig config,
                       std::unique_ptr<PrintabilityPredictor> predictor)
    : config_(std::move(config)),
      simulator_(config_.litho),
      engine_(simulator_, config_.flow.ilt),
      predictor_(std::move(predictor)) {
  if (!predictor_)
    predictor_ = std::make_unique<RawPrintPredictor>(simulator_);
}

void FlowEngine::set_warm_start(
    std::shared_ptr<const MaskInitializer> warm_start) {
  if (warm_start) {
    require(warm_start->grid_size() == simulator_.grid_size(),
            "FlowEngine::set_warm_start: initializer grid does not match "
            "the simulator");
    config_.flow.warm_start.enabled = true;
  }
  warm_start_ = std::move(warm_start);
}

LdmoResult FlowEngine::run(const layout::Layout& layout,
                           runtime::CancellationToken token) {
  LdmoResult result = run_ldmo_flow(engine_, *predictor_, config_.flow,
                                    layout, token, warm_start_.get());
  if (result.cancelled) {
    session_.cancelled_runs += 1;
    return result;
  }
  if (result.failed) {
    session_.failed_runs += 1;
    return result;
  }
  if (result.degraded) session_.degraded_runs += 1;
  if (result.warm_started) session_.warm_started_runs += 1;
  session_.runs += 1;
  session_.total_seconds += result.total_seconds;
  session_.candidates_generated += result.candidates_generated;
  session_.candidates_tried += result.candidates_tried;
  session_.history.push_back({layout.name, result.ilt.report.score(),
                              result.total_seconds,
                              result.candidates_tried});
  return result;
}

std::vector<LdmoResult> FlowEngine::run_many(
    const std::vector<layout::Layout>& layouts,
    runtime::CancellationToken token) {
  obs::Span span("flow_engine.run_many");
  span.attr("layouts", static_cast<double>(layouts.size()));
  std::vector<LdmoResult> results;
  results.reserve(layouts.size());
  // Serial over layouts: each run saturates the pool with its own
  // speculative ILT attempts, and the session history stays in input
  // order. Thread workspaces warmed by run i serve run i+1 for free.
  // Cancellation stops the batch between runs; a run cancelled in flight
  // is dropped so every returned result carries finalized masks. Failed
  // runs stay in the batch (failed = true, no masks) so one broken layout
  // neither shifts index alignment nor blocks the layouts after it.
  for (const layout::Layout& layout : layouts) {
    if (token.cancelled()) break;
    LdmoResult result = run(layout, token);
    if (result.cancelled) break;
    results.push_back(std::move(result));
  }
  span.attr("completed", static_cast<double>(results.size()));
  span.attr("cancelled", results.size() < layouts.size() ? 1.0 : 0.0);
  return results;
}

void FlowEngine::warmup() {
  const int n = simulator_.grid_size();
  const GridF blank(n, n);
  (void)simulator_.print(blank, blank);
}

obs::RunReport FlowEngine::session_report() const {
  runtime::publish_workspace_metrics();
  obs::RunReport report("flow_engine");
  report.meta("predictor", predictor_->name());
  report.meta("grid_size", std::to_string(simulator_.grid_size()));
  // Copy the stats into the closure: RunReport renders lazily and may
  // outlive this engine.
  report.section("session", [stats = session_](obs::JsonWriter& w) {
    w.begin_object();
    w.kv("runs", stats.runs);
    w.kv("cancelled_runs", stats.cancelled_runs);
    w.kv("failed_runs", stats.failed_runs);
    w.kv("degraded_runs", stats.degraded_runs);
    w.kv("warm_started_runs", stats.warm_started_runs);
    w.kv("total_seconds", stats.total_seconds);
    w.kv("candidates_generated", stats.candidates_generated);
    w.kv("candidates_tried", stats.candidates_tried);
    w.key("history");
    w.begin_array();
    for (const RunRecord& r : stats.history) {
      w.begin_object();
      w.kv("layout", r.layout);
      w.kv("score", r.score);
      w.kv("seconds", r.seconds);
      w.kv("candidates_tried", r.candidates_tried);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
  return report;
}

void FlowEngine::write_session_report(const std::string& path) const {
  session_report().write(path);
}

}  // namespace ldmo::core
