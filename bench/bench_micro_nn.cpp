// Microbenchmarks of the CNN substrate: GEMM, conv forward/backward,
// ResNet regressor inference, one clip's candidate scoring and a training
// step.
#include <benchmark/benchmark.h>

#include <string>

#include "alloc_probe.h"
#include "core/predictor.h"
#include "kernels/kernels.h"
#include "layout/generator.h"
#include "mpl/decomposition_generator.h"
#include "runtime/thread_pool.h"
#include "common/rng.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/resnet.h"

namespace {

using namespace ldmo;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  std::vector<float> b(a.size()), c(a.size());
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2d conv(16, 16, 3, 1, 1, false, rng);
  nn::Tensor x = nn::Tensor::randn({1, 16, 32, 32}, rng, 1.0f);
  bench_alloc::PoolProbe probe;
  for (auto _ : state) {
    nn::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  probe.finish(state);
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(16, 16, 3, 1, 1, false, rng);
  nn::Tensor x = nn::Tensor::randn({1, 16, 32, 32}, rng, 1.0f);
  nn::Tensor y = conv.forward(x, true);
  bench_alloc::PoolProbe probe;
  for (auto _ : state) {
    nn::Tensor g = conv.backward(y);
    benchmark::DoNotOptimize(g.data());
  }
  probe.finish(state);
}
BENCHMARK(BM_ConvBackward);

void BM_ResNetInference(benchmark::State& state) {
  // The predictor cost that replaces a full ILT run in the LDMO flow.
  nn::ResNetConfig cfg;
  cfg.input_size = 64;
  cfg.width_multiplier = 0.25;
  nn::ResNetRegressor net(cfg);
  Rng rng(4);
  nn::Tensor image = nn::Tensor::randn({1, 64, 64}, rng, 0.3f);
  bench_alloc::PoolProbe probe;
  for (auto _ : state) {
    const double score = net.predict_one(image);
    benchmark::DoNotOptimize(score);
  }
  probe.finish(state);
  state.SetLabel("slim-resnet18@64px");
}
BENCHMARK(BM_ResNetInference)->Unit(benchmark::kMillisecond);

void BM_CnnScoreBatch(benchmark::State& state) {
  // The flow's whole predict phase for one clip: rasterize every generated
  // candidate and score it with the 64-px network.
  core::CnnPredictor predictor(std::make_unique<nn::ResNetRegressor>());
  layout::LayoutGenerator gen;
  const layout::Layout clip = gen.generate(32);
  const std::vector<layout::Assignment> candidates =
      mpl::generate_decompositions(clip).candidates;
  bench_alloc::PoolProbe probe;
  for (auto _ : state) {
    const std::vector<double> scores =
        predictor.score_batch(clip, candidates);
    benchmark::DoNotOptimize(scores.data());
  }
  probe.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(candidates.size()));
  state.SetLabel("seed-32 clip, candidates=" +
                 std::to_string(candidates.size()));
}
BENCHMARK(BM_CnnScoreBatch)->Unit(benchmark::kMillisecond);

void BM_ResNetTrainStep(benchmark::State& state) {
  nn::ResNetConfig cfg;
  cfg.input_size = 64;
  cfg.width_multiplier = 0.25;
  nn::ResNetRegressor net(cfg);
  nn::Adam adam(net.parameters());
  Rng rng(5);
  nn::Tensor batch = nn::Tensor::randn({4, 1, 64, 64}, rng, 0.3f);
  nn::Tensor targets({4, 1});
  for (auto _ : state) {
    adam.zero_grad();
    const nn::Tensor pred = net.forward(batch, true);
    const nn::LossResult loss = nn::mae_loss(pred, targets);
    net.backward(loss.grad);
    adam.step();
    benchmark::DoNotOptimize(loss.value);
  }
  state.SetLabel("batch=4");
}
BENCHMARK(BM_ResNetTrainStep)->Unit(benchmark::kMillisecond);

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
