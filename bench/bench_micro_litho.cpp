// Microbenchmarks of the lithography/ILT hot path: 2-D FFT, SOCS forward
// pass, full ILT gradient step, EPE metrology.
#include <benchmark/benchmark.h>

#include "alloc_probe.h"
#include "kernels/kernels.h"
#include "runtime/thread_pool.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "layout/generator.h"
#include "layout/raster.h"
#include "litho/metrics.h"
#include "litho/simulator.h"
#include "opc/ilt.h"

namespace {

using namespace ldmo;

litho::LithoConfig litho_config(int grid) {
  litho::LithoConfig cfg;
  cfg.grid_size = grid;
  cfg.pixel_nm = 1024.0 / grid;
  return cfg;
}

void BM_Fft2D(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  fft::Fft2DPlan plan(n, n);
  Rng rng(1);
  fft::GridC grid(n, n);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = {rng.normal(), rng.normal()};
  bench_alloc::PoolProbe probe;
  for (auto _ : state) {
    plan.forward(grid);
    plan.inverse(grid);
    benchmark::DoNotOptimize(grid.data());
  }
  probe.finish(state);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Fft2D)->Arg(64)->Arg(128)->Arg(256);

void BM_AerialForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const litho::LithoSimulator sim(litho_config(n));
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(1);
  const GridF mask = layout::rasterize_target(l, n);
  // Warm out-param, as the simulator's expose path holds one.
  GridF intensity;
  sim.aerial().intensity(mask, intensity);
  bench_alloc::PoolProbe probe;
  for (auto _ : state) {
    sim.aerial().intensity(mask, intensity);
    benchmark::DoNotOptimize(intensity.data());
  }
  probe.finish(state);
}
BENCHMARK(BM_AerialForward)->Arg(64)->Arg(128);

void BM_IltStep(benchmark::State& state, int mask_count) {
  const int n = static_cast<int>(state.range(0));
  const litho::LithoSimulator sim(litho_config(n));
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(2);
  layout::Assignment assignment(
      static_cast<std::size_t>(l.pattern_count()), 0);
  for (int i = 0; i < l.pattern_count(); ++i)
    assignment[static_cast<std::size_t>(i)] = i % mask_count;
  opc::IltEngine engine(sim, {}, mask_count);
  const GridF target = layout::rasterize_target(l, n);
  opc::IltState ilt_state = engine.init_state(l, assignment);
  // One scratch across iterations — exactly how optimize() runs the loop;
  // after the first iteration warms it, steps are allocation-free.
  opc::IltScratch scratch;
  engine.step(ilt_state, target, scratch);
  bench_alloc::PoolProbe probe;
  for (auto _ : state) {
    engine.step(ilt_state, target, scratch);
    benchmark::DoNotOptimize(ilt_state.p.front().data());
  }
  probe.finish(state);
}
void BM_IltStep(benchmark::State& state) { BM_IltStep(state, 2); }
BENCHMARK(BM_IltStep)->Arg(64)->Arg(128);
// Triple patterning: the same step over three masks.
BENCHMARK_CAPTURE(BM_IltStep, k3, 3)->Arg(64);

void BM_EpeMeasurement(benchmark::State& state) {
  const int n = 128;
  const litho::LithoSimulator sim(litho_config(n));
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(3);
  layout::Assignment assignment(
      static_cast<std::size_t>(l.pattern_count()), 0);
  const GridF response = sim.print_decomposition(l, assignment);
  const layout::RasterTransform transform = sim.transform_for(l);
  for (auto _ : state) {
    const litho::EpeReport report =
        litho::measure_epe(response, l, transform, sim.config());
    benchmark::DoNotOptimize(report.violation_count);
  }
}
BENCHMARK(BM_EpeMeasurement);

void BM_KernelConstruction(benchmark::State& state) {
  // Full TCC + Jacobi + calibration (one-time setup cost per config).
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const litho::SocsKernels kernels =
        litho::build_socs_kernels(litho_config(n));
    benchmark::DoNotOptimize(kernels.weights.data());
  }
}
BENCHMARK(BM_KernelConstruction)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() equivalent, with our --threads flag stripped out of
// argv before google-benchmark sees (and rejects) it.
int main(int argc, char** argv) {
  ldmo::runtime::apply_threads_flag(argc, argv);
  ldmo::kernels::apply_backend_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
