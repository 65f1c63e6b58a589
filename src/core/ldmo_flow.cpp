#include "core/ldmo_flow.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/cancellation.h"
#include "runtime/thread_pool.h"

namespace ldmo::core {

LdmoFlow::LdmoFlow(const litho::LithoSimulator& simulator,
                   PrintabilityPredictor& predictor, LdmoConfig config)
    : simulator_(simulator), predictor_(predictor), config_(config) {
  require(config_.max_fallbacks >= 0, "LdmoFlow: negative fallback budget");
}

LdmoResult LdmoFlow::run(const layout::Layout& layout) const {
  return run_ldmo_flow(opc::IltEngine(simulator_, config_.ilt), predictor_,
                       config_, layout);
}

LdmoResult run_ldmo_flow(const opc::IltEngine& engine,
                         PrintabilityPredictor& predictor,
                         const LdmoConfig& config,
                         const layout::Layout& layout,
                         runtime::CancellationToken token,
                         const MaskInitializer* warm_start) {
  static obs::Counter& runs_counter = obs::counter("flow.runs");
  static obs::Counter& generated_counter =
      obs::counter("flow.candidates_generated");
  static obs::Counter& predicted_counter =
      obs::counter("flow.candidates_predicted");
  static obs::Counter& tried_counter = obs::counter("flow.candidates_tried");
  static obs::Counter& fallback_counter = obs::counter("flow.fallbacks");
  static obs::Counter& exhausted_counter =
      obs::counter("flow.fallback_budget_exhausted");
  static obs::Counter& cancelled_counter = obs::counter("flow.cancelled");
  static obs::Counter& degraded_counter = obs::counter("flow.degraded");
  runs_counter.inc();

  obs::Span run_span("ldmo.run");
  run_span.attr("layout", layout.name);
  run_span.attr("predictor", predictor.name());

  Timer total_timer;
  LdmoResult result;
  const auto cancelled_result = [&]() -> LdmoResult& {
    result.cancelled = true;
    result.total_seconds = total_timer.seconds();
    cancelled_counter.inc();
    run_span.attr("cancelled", 1.0);
    return result;
  };
  // A stage that throws becomes a per-run outcome: the error is recorded
  // with its stage (FlowException tags from deep components win over the
  // phase that observed the throw) and the run returns failed, not
  // std::terminate — the serving layer's whole fault model rests on this.
  const auto failed_result = [&](FlowError error) -> LdmoResult& {
    result.failed = true;
    result.error = std::move(error);
    result.total_seconds = total_timer.seconds();
    obs::counter(std::string("flow.errors.") + stage_name(result.error.stage))
        .inc();
    run_span.attr("error", result.error.message);
    run_span.attr("error_stage", stage_name(result.error.stage));
    log_warn("LdmoFlow: run failed in stage ",
             stage_name(result.error.stage), ": ", result.error.message);
    return result;
  };
  const auto stage_error = [](const std::exception& e,
                              FlowStage observed_stage) -> FlowError {
    if (const auto* tagged = dynamic_cast<const FlowException*>(&e))
      return tagged->error();
    return {observed_stage, e.what()};
  };

  if (token.cancelled()) return cancelled_result();

  // 1. Decomposition generation.
  mpl::GenerationResult generated;
  try {
    generated = timed_phase(result.timing, "generate", [&] {
      return mpl::generate_decompositions(layout, config.generation);
    });
  } catch (const std::exception& e) {
    return failed_result(stage_error(e, FlowStage::kDecompose));
  }
  result.candidates_generated =
      static_cast<int>(generated.candidates.size());
  generated_counter.inc(result.candidates_generated);
  if (token.cancelled()) return cancelled_result();

  // 2. Printability prediction: rank every candidate, best (lowest) first.
  // score_batch lets the predictor batch (CNN) or parallelize (oracles)
  // across candidates; its contract is bit-identical scores to a serial
  // score() loop, so the ranking is thread-count independent.
  //
  // A throwing predictor degrades (by default) to the generation order of
  // Algorithm 1 — the ranking a no-predictor baseline walks — so a scoring
  // fault costs ranking quality, not the request. The ILT violation
  // fallback chain below still guards the final masks either way.
  std::vector<double> scores;
  std::vector<std::size_t> order;
  try {
    order = timed_phase(result.timing, "predict", [&] {
      scores = predictor.score_batch(layout, generated.candidates);
      predicted_counter.inc(static_cast<long long>(scores.size()));
      std::vector<std::size_t> idx(generated.candidates.size());
      std::iota(idx.begin(), idx.end(), 0);
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a,
                                                   std::size_t b) {
        return scores[a] < scores[b];
      });
      return idx;
    });
  } catch (const std::exception& e) {
    if (!config.degrade_on_predict_failure)
      return failed_result(stage_error(e, FlowStage::kPredict));
    const FlowError error = stage_error(e, FlowStage::kPredict);
    result.degraded = true;
    degraded_counter.inc();
    obs::counter(std::string("flow.errors.") + stage_name(error.stage))
        .inc();
    run_span.attr("degraded", 1.0);
    run_span.attr("degraded_reason", error.message);
    log_warn("LdmoFlow: predict stage failed (", error.message,
             "), degrading to generation-order candidate ranking");
    scores.assign(generated.candidates.size(), 0.0);
    order.resize(generated.candidates.size());
    std::iota(order.begin(), order.end(), 0);
  }
  if (token.cancelled()) return cancelled_result();

  // 3. ILT with violation fallback, run speculatively: every attempt the
  // serial fallback chain *could* reach is launched as a task, and the
  // winner is the best-ranked attempt that finished without aborting —
  // exactly the candidate the serial chain would have settled on, so
  // masks and scores are identical at any thread count. Attempts ranked
  // below an established winner are cancelled (if running) or skipped
  // (if unstarted); with --threads 1 the tasks execute inline in rank
  // order and the chain degenerates to the serial walk, speculating on
  // nothing. The final attempt runs without the violation abort so the
  // flow always produces masks.
  const int attempts = std::min<int>(
      config.max_fallbacks + 1, static_cast<int>(order.size()));

  // 3a. Learned warm-start seeds (ROADMAP item 2): one MaskNet prediction
  // per speculative attempt, computed serially before the attempts launch —
  // the model forward caches activations and is guarded by a mutex, so
  // predicting inside the attempt tasks would serialize them anyway, and
  // the serial order keeps results bit-identical at any thread count. A
  // prediction that throws (model fault, warmstart.predict failpoint)
  // degrades that attempt to the paper's cold init.
  const bool want_warm = config.warm_start.enabled && warm_start != nullptr;
  std::vector<std::vector<GridF>> seeds;  // one P field per mask
  std::vector<char> seeded(static_cast<std::size_t>(attempts), 0);
  if (want_warm) {
    static obs::Counter& predictions_counter =
        obs::counter("warmstart.predictions");
    static obs::Counter& predict_error_counter =
        obs::counter("warmstart.predict_errors");
    seeds.assign(static_cast<std::size_t>(attempts), std::vector<GridF>(2));
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const std::size_t rank = static_cast<std::size_t>(attempt);
      try {
        warm_start->seed(layout, generated.candidates[order[rank]],
                         seeds[rank][0], seeds[rank][1]);
        predictions_counter.inc();
        seeded[rank] = 1;
      } catch (const std::exception& e) {
        predict_error_counter.inc();
        log_warn("LdmoFlow: warm-start prediction failed for attempt ",
                 attempt, " (", e.what(), "), using cold init");
      }
    }
    obs::counter("warmstart.seeded_attempts")
        .inc(static_cast<long long>(
            std::count(seeded.begin(), seeded.end(), 1)));
  }

  try {
    timed_phase(result.timing, "ilt", [&] {
      std::vector<opc::IltResult> slots(static_cast<std::size_t>(attempts));
      // Per-attempt sources linked to the run token: a fired run deadline (or
      // explicit cancel) stops every attempt at its next iteration poll,
      // while winner-driven cancellation stays per-attempt.
      std::vector<runtime::CancellationSource> cancels;
      cancels.reserve(static_cast<std::size_t>(attempts));
      for (int i = 0; i < attempts; ++i) cancels.emplace_back(token);
      std::atomic<int> winner{attempts};
      runtime::TaskGroup group;
      for (int attempt = 0; attempt < attempts; ++attempt) {
        group.run([&, attempt] {
          if (winner.load(std::memory_order_acquire) < attempt) return;
          const std::size_t rank = static_cast<std::size_t>(attempt);
          const layout::Assignment& candidate =
              generated.candidates[order[rank]];
          const bool last_attempt = attempt + 1 == attempts;
          obs::Span attempt_span("ilt.attempt");
          attempt_span.attr("attempt", attempt);
          attempt_span.attr("candidate_rank", attempt);
          attempt_span.attr("predicted_score", scores[order[rank]]);
          attempt_span.attr("abort_enabled", last_attempt ? 0.0 : 1.0);
          attempt_span.attr("warm_started", seeded[rank] ? 1.0 : 0.0);
          opc::IltResult ilt =
              seeded[rank]
                  ? engine.optimize_seeded(
                        layout, candidate, seeds[rank],
                        config.warm_start.max_iterations,
                        /*abort_on_violation=*/!last_attempt,
                        /*record_trajectory=*/false, cancels[rank].token())
                  : engine.optimize(
                        layout, candidate, /*abort_on_violation=*/!last_attempt,
                        /*record_trajectory=*/false, cancels[rank].token());
          attempt_span.attr("iterations_run", ilt.iterations_run);
          attempt_span.attr("aborted", ilt.aborted_on_violation ? 1.0 : 0.0);
          if (ilt.cancelled) {
            // A better-ranked candidate already won; this speculative run
            // wound down early and its result is discarded.
            attempt_span.attr("cancelled", 1.0);
            return;
          }
          if (ilt.aborted_on_violation) {
            attempt_span.attr("fallback_reason",
                              std::string("print_violation"));
            log_debug("LdmoFlow: candidate ", attempt,
                      " aborted on print violation, falling back");
            return;
          }
          attempt_span.attr("actual_score", ilt.report.score());
          slots[rank] = std::move(ilt);
          int current = winner.load(std::memory_order_acquire);
          while (attempt < current &&
                 !winner.compare_exchange_weak(current, attempt,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          }
          // Stop every attempt ranked below the (possibly just-lowered)
          // winner; cancelling finished attempts is a no-op.
          const int best = winner.load(std::memory_order_acquire);
          for (int r = best + 1; r < attempts; ++r)
            cancels[static_cast<std::size_t>(r)].cancel();
        });
      }
      group.wait();
      const int best = winner.load(std::memory_order_acquire);
      if (best >= attempts) {
        // Only reachable when the run token fired: the final attempt never
        // aborts on violations, so without external cancellation some
        // attempt always wins.
        LDMO_ASSERT(token.cancelled());
        result.cancelled = true;
        return;
      }
      // Account attempts the way the serial chain would have experienced
      // them: ranks above the winner either aborted (fallbacks) or were
      // pure speculation the serial walk never reaches.
      result.candidates_tried = best + 1;
      tried_counter.inc(best + 1);
      fallback_counter.inc(best);
      if (best > 0 && best + 1 == attempts) exhausted_counter.inc();
      result.chosen = generated.candidates[order[static_cast<std::size_t>(best)]];
      result.ilt = std::move(slots[static_cast<std::size_t>(best)]);
      result.warm_started = seeded[static_cast<std::size_t>(best)] != 0;
      if (result.warm_started) {
        // Iterations the warm seed saved versus the cold budget the serial
        // chain would have spent on this winning candidate.
        static obs::Counter& wins_counter = obs::counter("warmstart.seeded_wins");
        static obs::Counter& saved_counter =
            obs::counter("warmstart.iterations_saved_total");
        static obs::Gauge& saved_gauge =
            obs::gauge("warmstart.iterations_saved");
        wins_counter.inc();
        const int saved =
            config.ilt.max_iterations - result.ilt.iterations_run;
        if (saved > 0) saved_counter.inc(saved);
        saved_gauge.set(saved);
        run_span.attr("warm_started", 1.0);
        run_span.attr("warmstart_iterations_saved", saved);
      }
    });
  } catch (const std::exception& e) {
    // TaskGroup::wait rethrows the first attempt's exception here; a
    // litho-level FlowException keeps its own stage tag.
    return failed_result(stage_error(e, FlowStage::kIlt));
  }

  if (result.cancelled) {
    result.total_seconds = total_timer.seconds();
    cancelled_counter.inc();
    run_span.attr("cancelled", 1.0);
    return result;
  }

  result.total_seconds = total_timer.seconds();
  run_span.attr("candidates_generated", result.candidates_generated);
  run_span.attr("candidates_tried", result.candidates_tried);
  run_span.attr("fallbacks", result.candidates_tried - 1);
  run_span.attr("final_score", result.ilt.report.score());
  run_span.attr("final_epe_violations", result.ilt.report.epe.violation_count);
  return result;
}

}  // namespace ldmo::core
