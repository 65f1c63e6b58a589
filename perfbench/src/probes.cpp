#include "probes.h"

#include <cmath>
#include <functional>
#include <random>

#include "fft/fft.h"
#include "kernels/kernels.h"
#include "layout/raster.h"
#include "mpl/decomposition_generator.h"
#include "net/wire.h"
#include "nn/gemm.h"
#include "opc/ilt.h"
#include "runtime/thread_pool.h"

namespace perfbench {

using namespace ldmo;

namespace {

/// Median wall time of `fn` over at least `min_reps` calls, continuing
/// until `budget_s` of calls have run (capped at `max_reps`). Each call is
/// one span in the trace, tagged with `clip` (the input it works on).
double median_time(const std::string& name, const std::string& category,
                   const std::string& clip, const std::function<void()>& fn,
                   int min_reps, double budget_s, int max_reps = 400) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(times.size()) < max_reps &&
         (static_cast<int>(times.size()) < min_reps ||
          seconds_since(start) < budget_s)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    times.push_back(seconds_between(t0, t1));
    recorder().span(name, category, t0, t1, 0,
                    {{"clip", clip}, {"rep", std::to_string(times.size())}});
  }
  return percentile(times, 0.5);
}

/// Wall time of running `clips` once through a fresh engine at `threads`.
double flow_wall(const core::FlowEngineConfig& config,
                 const std::string& weights_path,
                 const std::vector<layout::Layout>& clips, int threads) {
  runtime::set_thread_count(threads);
  core::FlowEngine engine(config, load_predictor(weights_path));
  engine.warmup();
  const Clock::time_point t0 = Clock::now();
  for (const layout::Layout& clip : clips) {
    const Clock::time_point r0 = Clock::now();
    const core::LdmoResult r = engine.run(clip);
    if (r.failed) throw std::runtime_error("speedup probe run failed");
    recorder().span("core.FlowEngine.run", "runtime", r0, Clock::now(), 0,
                    {{"clip", clip.name}, {"threads", std::to_string(threads)}});
  }
  return seconds_since(t0);
}

}  // namespace

void run_layer_probes(const ProbeInputs& in, Outcome& out) {
  const litho::LithoSimulator simulator(in.engine.litho);
  const opc::IltEngine engine(simulator, in.engine.flow.ilt);
  const int n = simulator.grid_size();
  const layout::Layout& clip = in.clips.front();
  const std::vector<layout::Assignment> candidates =
      mpl::generate_decompositions(clip, in.engine.flow.generation).candidates;
  const layout::Assignment& candidate = candidates.front();

  // --- opc: one ILT step, a full optimize, the final binarization sweep.
  const GridF target = layout::rasterize_target(clip, n);
  opc::IltState state = engine.init_state(clip, candidate);
  opc::IltScratch scratch;
  engine.step(state, target, scratch);  // warm the scratch shapes
  out.per_layer.set("opc.step_s",
                    median_time("opc.IltEngine.step", "opc", clip.name,
                                [&] { engine.step(state, target, scratch); },
                                10, 0.3, 60),
                    "s");
  out.per_layer.set(
      "opc.finalize_s",
      median_time("opc.IltEngine.finalize", "opc", clip.name,
                  [&] { (void)engine.finalize(state, clip); }, 3, 0.2, 20),
      "s");
  std::size_t next_clip = 0;
  out.per_layer.set(
      "opc.optimize_s",
      median_time("opc.IltEngine.optimize", "opc", "workload clips",
                  [&] {
                    const layout::Layout& c =
                        in.clips[next_clip++ % in.clips.size()];
                    const layout::Assignment first =
                        mpl::generate_decompositions(c,
                                                     in.engine.flow.generation)
                            .candidates.front();
                    (void)engine.optimize(c, first);
                  },
                  3, 0.5, 12),
      "s");

  // --- litho: one two-mask print and one metrology pass.
  const opc::IltResult finished = engine.finalize(state, clip);
  GridF response;
  simulator.print_into(finished.mask1, finished.mask2, response);
  out.per_layer.set(
      "litho.print_s",
      median_time("litho.LithoSimulator.print_into", "litho", clip.name,
                  [&] {
                    simulator.print_into(finished.mask1, finished.mask2,
                                         response);
                  },
                  10, 0.2, 200),
      "s");
  out.per_layer.set(
      "litho.evaluate_s",
      median_time("litho.LithoSimulator.evaluate", "litho", clip.name,
                  [&] { (void)simulator.evaluate(response, clip); }, 10, 0.2,
                  200),
      "s");

  // --- fft + kernels: 2-D transforms at the model size, and a GEMM shaped
  // like the CNN's im2col convolutions.
  const fft::Fft2DPlan& plan = fft::plan_for(n, n);
  fft::GridC spectrum = fft::to_complex(target);
  const double fwd = median_time("fft.Fft2DPlan.forward", "fft", clip.name,
                                 [&] { plan.forward(spectrum); }, 20, 0.2,
                                 400);
  fft::GridC real_out;
  const double fwd_real = median_time(
      "fft.Fft2DPlan.forward_real", "fft", clip.name,
      [&] { plan.forward_real(target, real_out); }, 20, 0.2, 400);
  const double points = static_cast<double>(n) * n;
  out.per_layer.set("fft.forward2d_s", fwd, "s");
  out.per_layer.set("fft.forward_real_s", fwd_real, "s");
  out.per_layer.set("fft.gflops",
                    safe_ratio(5.0 * points * std::log2(points), fwd) / 1e9,
                    "GFLOP/s");

  constexpr int kM = 64, kK = 576, kN = 1024;
  std::vector<float> a(static_cast<std::size_t>(kM) * kK);
  std::vector<float> b(static_cast<std::size_t>(kK) * kN);
  std::vector<float> c(static_cast<std::size_t>(kM) * kN);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : a) v = dist(rng);
  for (float& v : b) v = dist(rng);
  const double gemm_s = median_time(
      "nn.gemm", "kernels", "-",
      [&] { nn::gemm(a.data(), b.data(), c.data(), kM, kK, kN); }, 10, 0.2,
      200);
  out.per_layer.set("nn.gemm_gflops",
                    safe_ratio(2.0 * kM * kN * kK, gemm_s) / 1e9, "GFLOP/s");
  out.per_layer.set("kernels.backend_id",
                    static_cast<double>(kernels::active()), "id");
  out.note("kernel_backend", kernels::to_string(kernels::active()));

  // --- mpl + nn: candidate generation and CNN scoring of one clip.
  next_clip = 0;
  out.per_layer.set(
      "mpl.generate_s",
      median_time("mpl.generate_decompositions", "mpl", "workload clips",
                  [&] {
                    (void)mpl::generate_decompositions(
                        in.clips[next_clip++ % in.clips.size()],
                        in.engine.flow.generation);
                  },
                  10, 0.1, 200),
      "s");
  const std::unique_ptr<core::CnnPredictor> cnn =
      load_predictor(in.weights_path);
  out.per_layer.set(
      "nn.score_batch_s",
      median_time("nn.CnnPredictor.score_batch", "nn", clip.name,
                  [&] { (void)cnn->score_batch(clip, candidates); }, 5, 0.2,
                  100),
      "s");

  // --- net: wire encode/decode of one full response.
  if (in.sample.ok()) {
    net::WireWriter probe;
    net::write_response(probe, in.sample);
    out.per_layer.set(
        "net.encode_response_s",
        median_time("net.write_response", "net", "sample response",
                    [&] {
                      net::WireWriter w;
                      net::write_response(w, in.sample);
                    },
                    20, 0.1, 400),
        "s");
    out.per_layer.set(
        "net.decode_response_s",
        median_time("net.read_response", "net", "sample response",
                    [&] {
                      net::WireReader r(probe.bytes(), "probe");
                      (void)net::read_response(r);
                    },
                    20, 0.1, 400),
        "s");
  }

  // --- runtime: the same clips at one thread and at nproc threads.
  const int nproc = runtime::hardware_threads();
  const std::vector<layout::Layout> speed_clips(
      in.clips.begin(),
      in.clips.begin() + std::min<std::size_t>(2, in.clips.size()));
  const double serial = flow_wall(in.engine, in.weights_path, speed_clips, 1);
  const double parallel =
      flow_wall(in.engine, in.weights_path, speed_clips, nproc);
  runtime::set_thread_count(nproc);
  out.per_layer.set("runtime.speedup_4t", safe_ratio(serial, parallel), "x");
  out.note("speedup_threads", static_cast<double>(nproc));
}

}  // namespace perfbench
