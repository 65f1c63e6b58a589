// flow_batch_128: offline batch through core::FlowEngine::run_many at the
// experiment-grade 128-px model. Every clip is distinct, so every clip
// pays cold generation, CNN ranking and ILT (with violation fallbacks):
// the opc / litho / fft / kernels / runtime layers do almost all the work.
#include <cstdio>

#include "core/flow_engine.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

using namespace ldmo;

namespace {

constexpr int kBatch = 4;             ///< clips per run_many call
constexpr int kClipPool = 512;        ///< upper bound on clips per run
constexpr std::uint64_t kStream = 1;  ///< input stream of this workload

struct Pass {
  std::vector<std::size_t> clip_index;  ///< into the clip pool
  std::vector<core::LdmoResult> results;
  double wall = 0.0;
  double ilt = 0.0, predict = 0.0, flow = 0.0, winning_iterations = 0.0;
};

/// Runs batches from `clips` (starting at `first`) until `seconds` elapse,
/// or exactly the clips in `replay` when it is non-empty.
Pass run_pass(core::FlowEngine& engine,
              const std::vector<layout::Layout>& clips, std::size_t first,
              double seconds, const std::vector<std::size_t>& replay) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  std::size_t next = first;
  std::size_t replayed = 0;
  for (;;) {
    std::vector<std::size_t> batch_index;
    if (!replay.empty()) {
      if (replayed >= replay.size()) break;
      for (int k = 0; k < kBatch && replayed < replay.size(); ++k)
        batch_index.push_back(replay[replayed++]);
    } else {
      if (seconds_since(t0) >= seconds || next >= clips.size()) break;
      for (int k = 0; k < kBatch && next < clips.size(); ++k)
        batch_index.push_back(next++);
    }
    std::vector<layout::Layout> batch;
    for (std::size_t i : batch_index) batch.push_back(clips[i]);
    const Clock::time_point b0 = Clock::now();
    std::vector<core::LdmoResult> results = engine.run_many(batch);
    const Clock::time_point b1 = Clock::now();
    if (recorder().enabled()) {
      std::string ids;
      for (const layout::Layout& l : batch) ids += (ids.empty() ? "" : ",") + l.name;
      recorder().span("core.FlowEngine.run_many", "core", b0, b1, 0,
                      {{"clips", ids}});
      // Program phase timers of each clip, laid out in run order.
      Clock::time_point at = b0;
      for (std::size_t k = 0; k < results.size(); ++k) {
        const core::LdmoResult& r = results[k];
        const auto dur = [](double s) {
          return std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(s));
        };
        const Clock::time_point end = at + dur(r.total_seconds);
        recorder().span("clip", "core", at, end, 1,
                        {{"clip", batch[k].name},
                         {"attempts", std::to_string(r.candidates_tried)}});
        Clock::time_point phase = at;
        for (const char* name : {"generate", "predict", "ilt"}) {
          const Clock::time_point phase_end = phase + dur(r.timing.get(name));
          recorder().span(std::string("flow.") + name, "core", phase,
                          phase_end, 2, {{"clip", batch[k].name}});
          phase = phase_end;
        }
        at = end;
      }
    }
    for (std::size_t k = 0; k < results.size(); ++k) {
      core::LdmoResult& r = results[k];
      if (!r.failed && !r.cancelled) {
        pass.ilt += r.timing.get("ilt");
        pass.predict += r.timing.get("predict");
        pass.flow += r.total_seconds;
        pass.winning_iterations += r.ilt.iterations_run;
      }
      pass.clip_index.push_back(batch_index[k]);
      pass.results.push_back(std::move(r));
    }
  }
  pass.wall = seconds_since(t0);
  return pass;
}

}  // namespace

Outcome run_flow_batch(const Options& options, Clock::time_point start) {
  Outcome out;
  const std::string weights = options.work_dir + "/predictor.weights";
  const TrainedPredictor trained = train_predictor(weights);
  core::FlowEngineConfig config;
  config.litho = litho_128();
  core::FlowEngine engine(config, load_predictor(weights));
  engine.warmup();
  const std::vector<layout::Layout> clips =
      with_quality_clips(make_clips(options.seed, kStream, kClipPool));
  out.setup_seconds = seconds_since(start);
  out.weights_digest = trained.digest;
  if (options.setup_only) return out;

  Pass pass;
  if (!options.trace) {
    pass = run_pass(engine, clips, 0, options.seconds, {});
  } else {
    // Untraced half, then the same clips again with spans recorded: the
    // wall ratio is the tracing overhead, and the per-layer counters come
    // from the traced pass.
    const Pass untraced = run_pass(engine, clips, 0, options.seconds / 2, {});
    recorder().enable(options.workload);
    const LayerInterval interval;
    pass = run_pass(engine, clips, 0, 0.0, untraced.clip_index);
    interval.finish(out, static_cast<double>(pass.results.size()), pass.ilt,
                    pass.predict, pass.flow, pass.winning_iterations);
    out.per_layer.set("obs.trace_overhead_ratio",
                      safe_ratio(pass.wall, untraced.wall), "ratio");
  }

  // Output checks, outside the timed interval.
  if (options.corrupt && !pass.results.empty())
    corrupt_result(pass.results.front());
  std::vector<double> latencies, scores;
  long long failed = 0;
  for (std::size_t k = 0; k < pass.results.size(); ++k) {
    const core::LdmoResult& r = pass.results[k];
    const layout::Layout& clip = clips[pass.clip_index[k]];
    if (!check_printed_result(engine.simulator(), clip, r, clip.name)) {
      ++failed;
      continue;
    }
    latencies.push_back(r.total_seconds);
    if (pass.clip_index[k] < kQualityClips)
      scores.push_back(r.ilt.report.score());
  }
  const double completed = static_cast<double>(pass.results.size() - failed);
  out.end_to_end.set("throughput", safe_ratio(completed, pass.wall), "1/s");
  report_latency(out, latencies);
  out.end_to_end.set("mean_score", mean_of(scores), "score");
  finish_counts(out, static_cast<long long>(pass.results.size()), failed);
  out.note("clips", static_cast<double>(pass.results.size()));
  out.note("quality_clips_scored", static_cast<double>(scores.size()));
  out.note("batch_clips", static_cast<double>(kBatch));

  if (options.trace) {
    ProbeInputs probes;
    probes.engine = config;
    probes.weights_path = weights;
    probes.clips.assign(clips.begin(), clips.begin() + 3);
    run_layer_probes(probes, out);
  }
  return out;
}

}  // namespace perfbench
