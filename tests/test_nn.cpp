// Tests for the CNN substrate. Every layer's backward pass is validated
// against central finite differences, both for input gradients and
// parameter gradients; the ResNet regressor is checked end-to-end and shown
// to actually fit data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "kernels/kernels.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/deconv.h"
#include "nn/gemm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/resnet.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "nn/upsample.h"

#include "backend_sweep.h"

namespace ldmo::nn {
namespace {

// Scalar loss L = sum 0.5 * y_i^2 used by all gradient checks.
double half_square_sum(const Tensor& t) {
  double l = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i)
    l += 0.5 * static_cast<double>(t[i]) * t[i];
  return l;
}

Tensor loss_grad(const Tensor& t) {
  Tensor g(t.shape());
  for (std::size_t i = 0; i < t.size(); ++i) g[i] = t[i];
  return g;
}

// Checks d(half_square_sum(layer(x)))/dx against finite differences at a
// few probe positions, and likewise for every parameter.
void check_layer_gradients(Layer& layer, Tensor input, double tol = 2e-2,
                           bool training = true) {
  Tensor out = layer.forward(input, training);
  for (Parameter* p : layer.parameters()) p->zero_grad();
  const Tensor grad_input = layer.backward(loss_grad(out));

  const float eps = 1e-2f;  // float32 forward: bigger eps, central diff
  auto loss_with_input = [&](const Tensor& x) {
    return half_square_sum(layer.forward(x, training));
  };

  // Probe a handful of input positions.
  const std::size_t stride = std::max<std::size_t>(1, input.size() / 7);
  for (std::size_t i = 0; i < input.size(); i += stride) {
    Tensor plus = input;
    plus[i] += eps;
    Tensor minus = input;
    minus[i] -= eps;
    const double numeric =
        (loss_with_input(plus) - loss_with_input(minus)) / (2.0 * eps);
    EXPECT_NEAR(grad_input[i], numeric, tol * (1.0 + std::abs(numeric)))
        << "input position " << i;
  }

  // Probe each parameter tensor.
  int param_index = 0;
  for (Parameter* p : layer.parameters()) {
    const std::size_t pstride = std::max<std::size_t>(1, p->value.size() / 5);
    for (std::size_t i = 0; i < p->value.size(); i += pstride) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const double lp = loss_with_input(input);
      p->value[i] = saved - eps;
      const double lm = loss_with_input(input);
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol * (1.0 + std::abs(numeric)))
          << "parameter " << param_index << " position " << i;
    }
    ++param_index;
  }
}

// ------------------------------------------------------------------ gemm --

TEST(Gemm, MatchesNaiveReference) {
  Rng rng(1);
  const int m = 9, k = 7, n = 11;
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p)
      for (int j = 0; j < n; ++j) ref[i * n + j] += a[i * k + p] * b[p * n + j];
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Gemm, TransposedVariantsMatch) {
  Rng rng(2);
  const int m = 6, k = 8, n = 5;
  std::vector<float> at(k * m), a(m * k), b(k * n), bt(n * k);
  for (int p = 0; p < k; ++p)
    for (int i = 0; i < m; ++i) {
      const float v = static_cast<float>(rng.normal());
      at[p * m + i] = v;
      a[i * k + p] = v;
    }
  for (int p = 0; p < k; ++p)
    for (int j = 0; j < n; ++j) {
      const float v = static_cast<float>(rng.normal());
      b[p * n + j] = v;
      bt[j * k + p] = v;
    }
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f), c3(m * n, 0.0f);
  gemm(a.data(), b.data(), c1.data(), m, k, n);
  gemm_at_b_accumulate(at.data(), b.data(), c2.data(), m, k, n);
  gemm_a_bt_accumulate(a.data(), bt.data(), c3.data(), m, k, n);
  for (int i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-4);
    EXPECT_NEAR(c1[i], c3[i], 1e-4);
  }
}

TEST(Gemm, LargeBlockedMatchesSmallPath) {
  Rng rng(3);
  const int m = 130, k = 70, n = 90;  // exceeds the 64 block size
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      for (int j = 0; j < n; ++j) ref[i * n + j] += av * b[p * n + j];
    }
  double max_err = 0.0;
  for (int i = 0; i < m * n; ++i)
    max_err = std::max(max_err, std::abs(static_cast<double>(c[i]) - ref[i]));
  EXPECT_LT(max_err, 1e-3);
}

// ---------------------------------------------------------------- tensor --

TEST(TensorTest, ShapeAndAccessors) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.size(), 120u);
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_FLOAT_EQ(t[119], 7.0f);
  Tensor flat = t.reshaped({2, 60});
  EXPECT_FLOAT_EQ(flat.at2(1, 59), 7.0f);
}

TEST(TensorTest, ReshapeRejectsCountMismatch) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshaped({4, 2}), ldmo::Error);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(4);
  Tensor t = Tensor::randn({1, 1, 64, 64}, rng, 0.5f);
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += static_cast<double>(t[i]) * t[i];
  }
  EXPECT_NEAR(sum / static_cast<double>(t.size()), 0.0, 0.05);
  EXPECT_NEAR(sq / static_cast<double>(t.size()), 0.25, 0.05);
}

// ---------------------------------------------------------------- layers --

TEST(ReluLayer, ForwardAndGradient) {
  ReLU relu;
  Tensor x({1, 1, 2, 2});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.0f;
  x[3] = 3.0f;
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  const Tensor g = relu.backward(loss_grad(y));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 2.0f);
}

TEST(ConvLayer, KnownConvolution) {
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 1, false, rng);
  conv.weight().value.fill(1.0f);  // 3x3 box filter
  Tensor x({1, 1, 3, 3});
  x.fill(1.0f);
  const Tensor y = conv.forward(x, true);
  // Center sees all 9 ones, corner sees 4.
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 4.0f);
}

TEST(ConvLayer, StrideAndPaddingShapes) {
  Rng rng(6);
  Conv2d conv(2, 4, 3, 2, 1, true, rng);
  Tensor x = Tensor::randn({2, 2, 8, 8}, rng);
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 4, 4, 4}));
}

TEST(ConvLayer, GradientsMatchFiniteDifference) {
  Rng rng(7);
  Conv2d conv(2, 3, 3, 1, 1, true, rng);
  check_layer_gradients(conv, Tensor::randn({2, 2, 5, 5}, rng, 0.5f));
}

TEST(ConvLayer, StridedGradientsMatchFiniteDifference) {
  Rng rng(8);
  Conv2d conv(1, 2, 3, 2, 1, false, rng);
  check_layer_gradients(conv, Tensor::randn({1, 1, 6, 6}, rng, 0.5f));
}

TEST(BatchNormLayer, NormalizesBatchInTraining) {
  BatchNorm2d bn(2);
  Rng rng(9);
  Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 2.0f);
  const Tensor y = bn.forward(x, true);
  for (int c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int n = 0; n < 4; ++n)
      for (int h = 0; h < 3; ++h)
        for (int w = 0; w < 3; ++w) {
          sum += y.at4(n, c, h, w);
          sq += static_cast<double>(y.at4(n, c, h, w)) * y.at4(n, c, h, w);
        }
    EXPECT_NEAR(sum / 36.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 36.0, 1.0, 1e-2);
  }
}

TEST(BatchNormLayer, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  Rng rng(10);
  // Train on a few batches to move the running stats.
  for (int i = 0; i < 20; ++i) {
    Tensor x = Tensor::randn({4, 1, 4, 4}, rng, 3.0f);
    for (std::size_t j = 0; j < x.size(); ++j) x[j] += 5.0f;
    bn.forward(x, true);
  }
  Tensor probe({1, 1, 1, 1});
  probe[0] = 5.0f;  // at the running mean -> normalized to ~0
  const Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

TEST(BatchNormLayer, GradientsMatchFiniteDifference) {
  Rng rng(11);
  BatchNorm2d bn(2);
  check_layer_gradients(bn, Tensor::randn({3, 2, 3, 3}, rng, 1.0f), 3e-2);
}

TEST(MaxPoolLayer, ForwardPicksMaxAndRoutesGradient) {
  MaxPool2d pool(2, 2, 0);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = 3.0f;
  x[3] = 2.0f;
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1});
  g[0] = 1.0f;
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
}

TEST(MaxPoolLayer, GradientsMatchFiniteDifference) {
  Rng rng(12);
  MaxPool2d pool(3, 2, 1);
  check_layer_gradients(pool, Tensor::randn({2, 2, 6, 6}, rng, 1.0f));
}

TEST(GapLayer, AveragesAndBackpropagates) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2});
  for (int i = 0; i < 4; ++i) x[static_cast<std::size_t>(i)] = i + 1.0f;
  for (int i = 0; i < 4; ++i) x[static_cast<std::size_t>(4 + i)] = 10.0f;
  const Tensor y = gap.forward(x, true);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 10.0f);
  Tensor g({1, 2});
  g[0] = 4.0f;
  g[1] = 8.0f;
  const Tensor gx = gap.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 1.0f);
  EXPECT_FLOAT_EQ(gx[5], 2.0f);
}

TEST(LinearLayer, KnownAffineTransform) {
  Rng rng(13);
  Linear fc(2, 1, rng);
  fc.weight().value[0] = 2.0f;
  fc.weight().value[1] = -1.0f;
  fc.bias().value[0] = 0.5f;
  Tensor x({1, 2});
  x[0] = 3.0f;
  x[1] = 4.0f;
  const Tensor y = fc.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(LinearLayer, GradientsMatchFiniteDifference) {
  Rng rng(14);
  Linear fc(6, 4, rng);
  check_layer_gradients(fc, Tensor::randn({3, 6}, rng, 1.0f));
}

TEST(BasicBlockLayer, IdentityShortcutGradients) {
  Rng rng(15);
  BasicBlock block(4, 4, 1, rng);
  check_layer_gradients(block, Tensor::randn({2, 4, 4, 4}, rng, 0.5f), 4e-2);
}

TEST(BasicBlockLayer, ProjectionShortcutGradients) {
  Rng rng(16);
  BasicBlock block(3, 6, 2, rng);
  // Composite block in float32 with batch-norm statistics: finite
  // differences are noisier than for single layers, hence the wider band
  // (each constituent layer is tightly checked above).
  check_layer_gradients(block, Tensor::randn({2, 3, 6, 6}, rng, 0.5f), 7e-2);
}

// --------------------------------------------------------------- decoder --

TEST(DeconvLayer, AdjointOfConvolution) {
  // ConvTranspose2d forward must equal Conv2d backward-through-input with
  // the same (transposed) kernel: <conv(x), y> == <x, deconv(y)>.
  Rng rng(40);
  const int in_c = 2, out_c = 3, k = 3, stride = 2, pad = 1;
  Conv2d conv(out_c, in_c, k, stride, pad, false, rng);
  ConvTranspose2d deconv(in_c, out_c, k, stride, pad, false, rng);
  // Share weights: conv.weight is [in_c, out_c*k*k] viewed as gathering
  // out_c planes; deconv.weight is [in_c, out_c*k*k] scattering them.
  deconv.weight().value = conv.weight().value;

  Tensor y = Tensor::randn({1, out_c, 7, 7}, rng, 0.7f);  // conv input
  Tensor x = Tensor::randn({1, in_c, 4, 4}, rng, 0.7f);   // deconv input
  const Tensor conv_y = conv.forward(y, false);    // [1, in_c, 4, 4]
  const Tensor deconv_x = deconv.forward(x, false);  // [1, out_c, 7, 7]
  ASSERT_EQ(conv_y.shape(), x.shape());
  ASSERT_EQ(deconv_x.shape(), y.shape());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    lhs += static_cast<double>(conv_y[i]) * x[i];
  for (std::size_t i = 0; i < y.size(); ++i)
    rhs += static_cast<double>(deconv_x[i]) * y[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
}

TEST(DeconvLayer, DoublesSpatialSizeAtK2S2) {
  Rng rng(41);
  ConvTranspose2d deconv(4, 2, 2, 2, 0, true, rng);
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng);
  const Tensor y = deconv.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 2, 16, 16}));
}

TEST(DeconvLayer, GradientsMatchFiniteDifference) {
  Rng rng(42);
  ConvTranspose2d deconv(2, 3, 2, 2, 0, true, rng);
  check_layer_gradients(deconv, Tensor::randn({2, 2, 4, 4}, rng, 0.5f));
}

TEST(DeconvLayer, StridedPaddedGradientsMatchFiniteDifference) {
  Rng rng(43);
  ConvTranspose2d deconv(3, 2, 3, 2, 1, false, rng);
  check_layer_gradients(deconv, Tensor::randn({1, 3, 5, 5}, rng, 0.5f));
}

TEST(UpsampleLayer, ReplicatesPixels) {
  Upsample2x up;
  Tensor x({1, 1, 2, 2});
  for (int i = 0; i < 4; ++i) x[static_cast<std::size_t>(i)] = i + 1.0f;
  const Tensor y = up.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 3, 3), 4.0f);
}

TEST(UpsampleLayer, GradientsMatchFiniteDifference) {
  Rng rng(44);
  Upsample2x up;
  check_layer_gradients(up, Tensor::randn({2, 3, 3, 3}, rng, 1.0f));
}

TEST(ConcatChannels, RoundTripAndAdjoint) {
  Rng rng(45);
  Tensor a = Tensor::randn({2, 3, 4, 4}, rng);
  Tensor b = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor cat = concat_channels(a, b);
  ASSERT_EQ(cat.shape(), (std::vector<int>{2, 5, 4, 4}));
  EXPECT_FLOAT_EQ(cat.at4(1, 0, 2, 3), a.at4(1, 0, 2, 3));
  EXPECT_FLOAT_EQ(cat.at4(1, 4, 2, 3), b.at4(1, 1, 2, 3));

  // split(concat(a, b)) is the identity — which, because concat is a pure
  // copy, is exactly the finite-difference adjoint check.
  Tensor ga, gb;
  split_channels(cat, 3, ga, gb);
  EXPECT_EQ(ga, a);
  EXPECT_EQ(gb, b);
}

TEST(ConcatChannels, ShapeMismatchThrows) {
  Tensor a({1, 2, 4, 4}), b({1, 2, 3, 4});
  EXPECT_THROW(concat_channels(a, b), ldmo::Error);
  Tensor g({1, 4, 4, 4}), ga, gb;
  EXPECT_THROW(split_channels(g, 4, ga, gb), ldmo::Error);
}

// ------------------------------------------------------------------ loss --

TEST(Loss, MaeValueAndGradient) {
  Tensor pred({2, 1}), target({2, 1});
  pred[0] = 1.0f;
  pred[1] = -2.0f;
  target[0] = 0.0f;
  target[1] = 0.0f;
  const LossResult r = mae_loss(pred, target);
  EXPECT_DOUBLE_EQ(r.value, 1.5);
  EXPECT_FLOAT_EQ(r.grad[0], 0.5f);
  EXPECT_FLOAT_EQ(r.grad[1], -0.5f);
}

TEST(Loss, MseValueAndGradient) {
  Tensor pred({1, 1}), target({1, 1});
  pred[0] = 3.0f;
  target[0] = 1.0f;
  const LossResult r = mse_loss(pred, target);
  EXPECT_DOUBLE_EQ(r.value, 4.0);
  EXPECT_FLOAT_EQ(r.grad[0], 4.0f);
}

TEST(Loss, ShapeMismatchThrows) {
  EXPECT_THROW(mae_loss(Tensor({1, 2}), Tensor({2, 1})), ldmo::Error);
}

// ------------------------------------------------------------------ adam --

TEST(AdamOptimizer, DrivesQuadraticToMinimum) {
  // Minimize (w - 3)^2 with Adam: w must approach 3.
  Parameter w({1});
  w.value[0] = 0.0f;
  AdamConfig cfg;
  cfg.learning_rate = 0.1;
  Adam adam({&w}, cfg);
  for (int i = 0; i < 200; ++i) {
    w.grad[0] = 2.0f * (w.value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 0.05f);
}

TEST(AdamOptimizer, StepClearsGradients) {
  Parameter w({2});
  Adam adam({&w});
  w.grad[0] = 1.0f;
  adam.step();
  EXPECT_FLOAT_EQ(w.grad[0], 0.0f);
}

// ---------------------------------------------------------------- resnet --

ResNetConfig tiny_config() {
  ResNetConfig cfg;
  cfg.input_size = 32;
  cfg.width_multiplier = 0.125;
  return cfg;
}

TEST(ResNet, ForwardShapeAndDeterminism) {
  ResNetRegressor net(tiny_config());
  Rng rng(17);
  Tensor x = Tensor::randn({2, 1, 32, 32}, rng, 1.0f);
  const Tensor y1 = net.forward(x, false);
  const Tensor y2 = net.forward(x, false);
  EXPECT_EQ(y1.shape(), (std::vector<int>{2, 1}));
  EXPECT_EQ(y1, y2);
}

TEST(ResNet, RejectsWrongInputSize) {
  ResNetRegressor net(tiny_config());
  Rng rng(18);
  Tensor bad = Tensor::randn({1, 1, 16, 16}, rng);
  EXPECT_THROW(net.forward(bad, false), ldmo::Error);
}

TEST(ResNet, ParameterCountScalesWithWidth) {
  ResNetConfig slim = tiny_config();
  ResNetConfig wide = tiny_config();
  wide.width_multiplier = 0.25;
  ResNetRegressor a(slim), b(wide);
  EXPECT_GT(b.parameter_count(), 2 * a.parameter_count());
}

TEST(ResNet, PaperConfigBuilds) {
  // Full ResNet18 at 224x224: construct + one forward (no training here,
  // it is the paper's architecture but too slow to train in unit tests).
  ResNetRegressor net(ResNetConfig::paper_resnet18());
  EXPECT_GT(net.parameter_count(), 10'000'000u);  // ~11M like ResNet18
}

TEST(ResNet, OverfitsTinyDataset) {
  // Four distinguishable images with distinct labels: a working training
  // stack must drive training MAE well below the label spread.
  ResNetRegressor net(tiny_config());
  Rng rng(19);
  std::vector<Example> data;
  for (int i = 0; i < 4; ++i) {
    Tensor img({1, 32, 32});
    for (int h = 0; h < 32; ++h)
      for (int w = 0; w < 32; ++w)
        img[static_cast<std::size_t>(h) * 32 + w] =
            (h / 8 == i || w / 8 == i) ? 1.0f : 0.0f;
    data.push_back({std::move(img), static_cast<float>(i) - 1.5f});
  }
  TrainerConfig tcfg;
  tcfg.epochs = 60;
  tcfg.batch_size = 4;
  tcfg.adam.learning_rate = 3e-3;
  const auto history = train_regressor(net, data, tcfg);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
  EXPECT_LT(evaluate_mae(net, data), 0.5);
}

TEST(Trainer, LrDecayReducesStepSizes) {
  // With aggressive decay the parameters barely move in late epochs.
  ResNetRegressor net_a(tiny_config());
  ResNetRegressor net_b(tiny_config());
  Rng rng(21);
  std::vector<Example> data;
  for (int i = 0; i < 4; ++i)
    data.push_back({Tensor::randn({1, 32, 32}, rng, 0.3f),
                    static_cast<float>(i)});
  TrainerConfig slow;
  slow.epochs = 6;
  slow.lr_decay_per_epoch = 0.1;  // effectively stops after 2 epochs
  TrainerConfig steady;
  steady.epochs = 6;
  steady.lr_decay_per_epoch = 1.0;
  const auto ha = train_regressor(net_a, data, slow);
  const auto hb = train_regressor(net_b, data, steady);
  ASSERT_EQ(ha.size(), 6u);
  // Decayed training changes less between the last two epochs.
  const double delta_a = std::abs(ha[5].mean_loss - ha[4].mean_loss);
  const double delta_b = std::abs(hb[5].mean_loss - hb[4].mean_loss);
  EXPECT_LE(delta_a, delta_b + 1e-6);
}

TEST(Trainer, BackToBackRoundsSeeIdenticalLrSchedules) {
  // Regression test for the LR-decay compounding bug: train() used to
  // decay the optimizer's learning rate IN PLACE, so a second round on the
  // same Adam started from decay^epochs of the base rate instead of the
  // base rate. Two identical rounds over one caller-owned optimizer must
  // now report bit-identical schedules, each starting at the base rate.
  ResNetRegressor net(tiny_config());
  Rng rng(23);
  std::vector<Example> data;
  for (int i = 0; i < 4; ++i)
    data.push_back({Tensor::randn({1, 32, 32}, rng, 0.3f),
                    static_cast<float>(i) * 0.5f});
  TrainerConfig cfg;
  cfg.epochs = 3;
  cfg.lr_decay_per_epoch = 0.5;
  const double base_lr = 2e-3;
  AdamConfig acfg;
  acfg.learning_rate = base_lr;
  Adam optimizer(net.parameters(), acfg);

  const auto round1 = train_regressor(net, data, cfg, optimizer);
  const auto round2 = train_regressor(net, data, cfg, optimizer);
  ASSERT_EQ(round1.size(), 3u);
  ASSERT_EQ(round2.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    // Schedule is a pure function of the base rate and the epoch index.
    EXPECT_DOUBLE_EQ(round1[e].learning_rate,
                     base_lr * std::pow(0.5, static_cast<double>(e)));
    EXPECT_DOUBLE_EQ(round2[e].learning_rate, round1[e].learning_rate);
  }
  // And the base rate itself survived both rounds un-decayed.
  EXPECT_DOUBLE_EQ(optimizer.config().learning_rate, base_lr);
}

TEST(Trainer, ShortRunMatchesPinnedWeightDigests) {
  // FNV-1a over every parameter's bytes after two epochs of batch-4
  // training, per backend, recorded with the at4-indexed training loops.
  // The training forward and backward must reproduce every bit. The
  // dot-product reduction is lane-parallel on SIMD backends, so each
  // backend has its own digest.
  testutil::BackendGuard guard;
  struct Pin {
    kernels::Backend backend;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {kernels::Backend::kGeneric, 0xfbc0ce6e1b3911f2ull},
      {kernels::Backend::kAvx2, 0xb32f7f0e9cf30401ull},
      {kernels::Backend::kAvx512, 0xf2721f71de295d0bull},
  };
  for (kernels::Backend backend : testutil::usable_backends()) {
    kernels::select(backend);
    ResNetRegressor net(tiny_config());
    Rng rng(29);
    std::vector<Example> data;
    for (int i = 0; i < 8; ++i)
      data.push_back({Tensor::randn({1, 32, 32}, rng, 0.5f),
                      0.25f * static_cast<float>(i) - 1.0f});
    TrainerConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 4;
    (void)train_regressor(net, data, cfg);
    common::Fnv1a hash;
    for (const Parameter* p : net.parameters())
      hash.bytes(p->value.data(), p->value.size() * sizeof(float));
    const Pin* pin = nullptr;
    for (const Pin& p : pins)
      if (p.backend == backend) pin = &p;
    if (pin == nullptr) continue;  // no digest recorded for this backend
    EXPECT_EQ(hash.digest(), pin->digest)
        << kernels::to_string(backend) << " 0x" << std::hex << hash.digest();
  }
}

TEST(SequentialContainer, AggregatesParametersInOrder) {
  Rng rng(22);
  Sequential seq;
  auto* conv = seq.emplace<Conv2d>(1, 2, 3, 1, 1, true, rng);
  seq.emplace<ReLU>();
  auto* fc = seq.emplace<Linear>(2, 1, rng);
  const auto params = seq.parameters();
  ASSERT_EQ(params.size(), 4u);  // conv w+b, linear w+b
  EXPECT_EQ(params[0], &conv->weight());
  EXPECT_EQ(params[1], &conv->bias());
  EXPECT_EQ(params[2], &fc->weight());
  EXPECT_EQ(params[3], &fc->bias());
}

// ------------------------------------------------------------- serialize --

TEST(Serialize, RoundTripRestoresPredictions) {
  const std::string path = "test_nn_weights.bin";
  ResNetRegressor a(tiny_config());
  Rng rng(20);
  Tensor x = Tensor::randn({1, 1, 32, 32}, rng);
  // Perturb a's weights so it differs from a fresh net with the same seed.
  for (Parameter* p : a.parameters())
    for (std::size_t i = 0; i < p->value.size(); i += 3) p->value[i] += 0.1f;
  const Tensor ya = a.forward(x, false);
  save_parameters(a.parameters(), path);

  ResNetRegressor b(tiny_config());
  const Tensor yb_before = b.forward(x, false);
  EXPECT_NE(ya[0], yb_before[0]);
  load_parameters(b.parameters(), path);
  const Tensor yb = b.forward(x, false);
  EXPECT_FLOAT_EQ(ya[0], yb[0]);
  std::remove(path.c_str());
}

TEST(Serialize, ArchitectureMismatchThrows) {
  const std::string path = "test_nn_mismatch.bin";
  ResNetRegressor a(tiny_config());
  save_parameters(a.parameters(), path);
  ResNetConfig other = tiny_config();
  other.width_multiplier = 0.25;
  ResNetRegressor b(other);
  EXPECT_THROW(load_parameters(b.parameters(), path), ldmo::Error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  ResNetRegressor a(tiny_config());
  EXPECT_THROW(load_parameters(a.parameters(), "/nonexistent/weights.bin"),
               ldmo::Error);
}

namespace {

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

// Corrupt-file corpus: every malformed variant of a valid weight file must
// be rejected up front, never partially loaded into a live network.
TEST(Serialize, CorruptFileCorpusRejected) {
  const std::string good_path = "test_nn_corpus_good.bin";
  const std::string bad_path = "test_nn_corpus_bad.bin";
  ResNetRegressor net(tiny_config());
  save_parameters(net.parameters(), good_path);
  const std::vector<char> good = read_file(good_path);
  ASSERT_GT(good.size(), 16u);

  const auto expect_rejected = [&](std::vector<char> bytes) {
    write_file(bad_path, bytes);
    ResNetRegressor victim(tiny_config());
    EXPECT_THROW(load_parameters(victim.parameters(), bad_path),
                 ldmo::Error);
  };

  // Bad magic: first byte flipped.
  std::vector<char> bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5A);
  expect_rejected(bad_magic);

  // Truncated header: shorter than magic + count.
  expect_rejected(std::vector<char>(good.begin(), good.begin() + 7));

  // Truncated payload: last tensor loses its tail.
  expect_rejected(std::vector<char>(good.begin(), good.end() - 9));

  // Oversized count: header promises far more tensors than the file (or
  // the network) holds.
  std::vector<char> oversized = good;
  oversized[4] = static_cast<char>(0xFF);
  oversized[5] = static_cast<char>(0xFF);
  expect_rejected(oversized);

  // Trailing bytes after the last tensor.
  std::vector<char> trailing = good;
  trailing.insert(trailing.end(), {1, 2, 3, 4});
  expect_rejected(trailing);

  // The pristine file still loads: the corpus rejected structure, not the
  // loader.
  ResNetRegressor ok(tiny_config());
  load_parameters(ok.parameters(), good_path);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

// Every check runs before the first write: a source whose SECOND tensor
// announces the wrong element count (total size unchanged) must leave
// parameter 0 exactly as it was, whether it arrives as a blob or a file.
TEST(Serialize, RejectedBlobLeavesNetworkUntouched) {
  ResNetRegressor source(tiny_config());
  for (Parameter* p : source.parameters())
    for (std::size_t i = 0; i < p->value.size(); ++i) p->value[i] += 0.5f;
  std::vector<std::uint8_t> blob = encode_parameters(source.parameters());
  // Magic (4) + count (8), then parameter 0's element count and payload.
  const std::size_t second_count =
      12 + 8 + source.parameters()[0]->value.size() * sizeof(float);
  blob[second_count] ^= 0x01;

  ResNetRegressor victim(tiny_config());
  const Tensor pristine = victim.parameters()[0]->value;
  EXPECT_THROW(decode_parameters(victim.parameters(), blob), ldmo::Error);
  EXPECT_EQ(victim.parameters()[0]->value, pristine);

  const std::string path = "test_nn_rejected.bin";
  write_file(path, std::vector<char>(blob.begin(), blob.end()));
  EXPECT_THROW(load_parameters(victim.parameters(), path), ldmo::Error);
  EXPECT_EQ(victim.parameters()[0]->value, pristine);
  std::remove(path.c_str());
}

// The blob path and the file path are one format: encode_parameters
// yields the bytes save_parameters writes, and each loads the other's.
TEST(Serialize, BlobAndFileAreTheSameBytes) {
  const std::string path = "test_nn_blob_file.bin";
  ResNetRegressor a(tiny_config());
  for (Parameter* p : a.parameters())
    for (std::size_t i = 0; i < p->value.size(); i += 2) p->value[i] -= 0.25f;
  save_parameters(a.parameters(), path);
  const std::vector<std::uint8_t> blob = encode_parameters(a.parameters());
  const std::vector<char> file = read_file(path);
  EXPECT_EQ(std::vector<char>(blob.begin(), blob.end()), file);

  ResNetRegressor b(tiny_config());
  decode_parameters(b.parameters(), blob);
  for (std::size_t i = 0; i < a.parameters().size(); ++i)
    EXPECT_EQ(b.parameters()[i]->value, a.parameters()[i]->value);
  std::remove(path.c_str());
}

// Atomic save: a fault mid-write must leave the previously saved weights
// untouched (write-to-tmp-then-rename), with no stray .tmp file behind.
TEST(Serialize, FailedSaveLeavesPreviousWeightsIntact) {
  const std::string path = "test_nn_atomic.bin";
  fail::disarm_all();
  ResNetRegressor a(tiny_config());
  save_parameters(a.parameters(), path);
  const std::vector<char> original = read_file(path);

  ResNetRegressor b(tiny_config());
  for (Parameter* p : b.parameters())
    for (std::size_t i = 0; i < p->value.size(); i += 2) p->value[i] += 1.0f;
  fail::arm("nn.save", fail::once());
  EXPECT_THROW(save_parameters(b.parameters(), path), ldmo::Error);
  fail::disarm_all();

  EXPECT_EQ(read_file(path), original);  // previous weights survive
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());  // tmp cleaned up

  // The next save (no fault) replaces the file normally.
  save_parameters(b.parameters(), path);
  EXPECT_NE(read_file(path), original);
  std::remove(path.c_str());
}

TEST(Serialize, LoadFailpointThrowsTagged) {
  const std::string path = "test_nn_loadfp.bin";
  fail::disarm_all();
  ResNetRegressor net(tiny_config());
  save_parameters(net.parameters(), path);
  fail::arm("nn.load", fail::once());
  EXPECT_THROW(load_parameters(net.parameters(), path), FlowException);
  fail::disarm_all();
  load_parameters(net.parameters(), path);  // site clean again
  std::remove(path.c_str());
}

TEST(ResNet, ForwardFailpointThrowsTagged) {
  fail::disarm_all();
  ResNetRegressor net(tiny_config());
  Rng rng(7);
  const Tensor x = Tensor::randn({1, 1, 32, 32}, rng);
  fail::arm("nn.forward", fail::once());
  try {
    (void)net.forward(x, false);
    FAIL() << "forward did not throw";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kPredict);
  }
  fail::disarm_all();
  (void)net.forward(x, false);  // network unharmed
}

// predict() over an [N, 1, S, S] batch.
std::vector<float> predict(const ResNetRegressor& net, const Tensor& images) {
  return net.predict(images.data(), static_cast<std::size_t>(images.dim(0)));
}

TEST(ResNet, PredictFailpointThrowsTaggedAndLeavesNetworkIntact) {
  fail::disarm_all();
  const ResNetRegressor net(tiny_config());
  Rng rng(8);
  const Tensor x = Tensor::randn({3, 1, 32, 32}, rng);
  const std::vector<float> before = predict(net, x);
  fail::arm("nn.forward", fail::once());
  try {
    (void)predict(net, x);
    FAIL() << "predict did not throw";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kPredict);
  }
  fail::disarm_all();
  EXPECT_EQ(predict(net, x), before);
}

// ------------------------------------------------------------ inference --

// tiny_config() with parameters nudged off their initialization and
// BatchNorm running statistics moved by training-mode forwards, so every
// term of the eval arithmetic is nontrivial.
ResNetRegressor perturbed_tiny_network() {
  ResNetRegressor net(tiny_config());
  std::size_t k = 0;
  for (Parameter* p : net.parameters())
    for (std::size_t i = 0; i < p->value.size(); ++i, ++k)
      p->value[i] += 0.01f * static_cast<float>(static_cast<int>(k % 13) - 6);
  Rng rng(31);
  const Tensor batch = Tensor::randn({4, 1, 32, 32}, rng, 0.5f);
  for (int i = 0; i < 3; ++i) (void)net.forward(batch, /*training=*/true);
  return net;
}

TEST(ResNet, PredictMatchesEvalForwardAndPredictOne) {
  // forward(x, false), predict(x) and predict_one run the same per-sample
  // kernels, so every score agrees bit for bit.
  const ResNetRegressor net = perturbed_tiny_network();
  ResNetRegressor same = perturbed_tiny_network();
  Rng rng(32);
  const Tensor x = Tensor::randn({5, 1, 32, 32}, rng, 0.5f);
  const std::vector<float> scores = predict(net, x);
  const Tensor y = same.forward(x, /*training=*/false);
  ASSERT_EQ(scores.size(), 5u);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], y[i]) << "sample " << i;
    Tensor image({1, 32, 32});
    std::copy(x.data() + i * image.size(), x.data() + (i + 1) * image.size(),
              image.data());
    EXPECT_EQ(static_cast<double>(scores[i]), net.predict_one(image))
        << "sample " << i;
  }
}

TEST(ResNet, ConcurrentPredictOnOneNetworkMatchesSerial) {
  // predict is const and keeps its activations in per-thread workspace
  // buffers, so two threads may score on one network at once.
  const ResNetRegressor net = perturbed_tiny_network();
  Rng rng(33);
  const Tensor a = Tensor::randn({6, 1, 32, 32}, rng, 0.5f);
  const Tensor b = Tensor::randn({9, 1, 32, 32}, rng, 0.5f);
  const std::vector<float> expect_a = predict(net, a);
  const std::vector<float> expect_b = predict(net, b);
  std::vector<float> got_a, got_b;
  bool mismatch = false;
  std::thread other([&] {
    for (int round = 0; round < 5; ++round) {
      got_b = predict(net, b);
      if (got_b != expect_b) mismatch = true;
    }
  });
  for (int round = 0; round < 5; ++round) {
    got_a = predict(net, a);
    EXPECT_EQ(got_a, expect_a) << "round " << round;
  }
  other.join();
  EXPECT_FALSE(mismatch);
  EXPECT_EQ(got_b, expect_b);
}

TEST(ResNet, EvalForwardBetweenTrainingForwardAndBackwardChangesNothing) {
  // Eval kernels write no layer state: an eval forward on another input
  // between a training forward and its backward leaves the gradients and
  // the BatchNorm running statistics exactly as without it.
  Rng rng(34);
  const Tensor x = Tensor::randn({3, 1, 32, 32}, rng, 0.5f);
  const Tensor other = Tensor::randn({2, 1, 32, 32}, rng, 0.5f);
  Tensor grad({3, 1});
  for (std::size_t i = 0; i < grad.size(); ++i)
    grad[i] = 0.5f - static_cast<float>(i);

  const auto gradients = [&](bool eval_in_between) {
    ResNetRegressor net = perturbed_tiny_network();
    for (Parameter* p : net.parameters()) p->zero_grad();
    (void)net.forward(x, /*training=*/true);
    if (eval_in_between) {
      (void)net.forward(other, /*training=*/false);
      (void)predict(net, other);
    }
    const Tensor grad_input = net.backward(grad);
    std::vector<Tensor> out{grad_input};
    for (Parameter* p : net.parameters()) out.push_back(p->grad);
    // A second eval forward exposes the running statistics.
    out.push_back(net.forward(other, /*training=*/false));
    return out;
  };
  EXPECT_EQ(gradients(true), gradients(false));
}

}  // namespace
}  // namespace ldmo::nn
