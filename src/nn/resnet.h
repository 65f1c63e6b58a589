// ResNet-18-style regression network (paper Section IV-C / Fig. 5).
//
// The paper regresses the post-ILT printability score from a grayscale
// decomposition image with a ResNet18 backbone ("identity mapping between
// each block... after average pooling, there is a 1000 dimensions layer, and
// a fully connected layer is added to output the score").
//
// The architecture here is exactly that, parameterized by a width
// multiplier and input size: width 1.0 at 224x224 is the paper's network;
// the default slim configuration (0.25 at 64x64) delivers the same
// inductive structure at a cost a single CPU core can train in a bench run.
#pragma once

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace ldmo::nn {

/// Residual basic block: two 3x3 conv+BN with an identity (or projection)
/// shortcut, ReLU after the sum.
class BasicBlock : public Layer {
 public:
  BasicBlock(int in_channels, int out_channels, int stride, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "basic_block"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  /// The main path's intermediate, the shortcut's output (projection
  /// blocks only) and the largest conv scratch.
  std::size_t eval_scratch(const SampleShape& in) const override;
  /// ReLU(bn2(conv2(ReLU(bn1(conv1(x))))) + shortcut(x)), with BatchNorm,
  /// ReLU and the residual add run in place on `out`.
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  // Projection shortcut when shape changes; null for identity.
  std::unique_ptr<Conv2d> shortcut_conv_;
  std::unique_ptr<BatchNorm2d> shortcut_bn_;
  ReLU relu_out_;
};

/// Network hyperparameters.
struct ResNetConfig {
  int input_size = 64;          ///< square grayscale input side
  double width_multiplier = 0.25;  ///< 1.0 = full ResNet18 widths
  int blocks_per_stage = 2;     ///< ResNet18 uses 2 everywhere
  int fc_dim = 1000;            ///< penultimate layer (scaled by width)
  std::uint64_t seed = 1234;    ///< weight initialization seed

  /// The paper's full-size network.
  static ResNetConfig paper_resnet18() {
    ResNetConfig cfg;
    cfg.input_size = 224;
    cfg.width_multiplier = 1.0;
    return cfg;
  }
};

/// Full regression network: conv stem, four residual stages, global average
/// pooling, a hidden FC layer and a scalar output head.
class ResNetRegressor {
 public:
  explicit ResNetRegressor(ResNetConfig config = {});

  const ResNetConfig& config() const { return config_; }

  /// [N, 1, S, S] images -> [N, 1] scores. Eval mode runs the same
  /// per-sample kernels as predict().
  Tensor forward(const Tensor& images, bool training);

  /// Backpropagates d(loss)/d(scores) of the last training-mode forward;
  /// accumulates parameter gradients.
  Tensor backward(const Tensor& grad_scores);

  std::vector<Parameter*> parameters() { return net_.parameters(); }

  /// Eval-mode scores of `count` S x S images stored back to back
  /// (count * S * S floats at `images`): the whole network runs on each
  /// image inside one task (eval_batch), on buffers from the task thread's
  /// workspace. Const and allocation-free apart from the returned vector;
  /// safe to call from several threads at once. Each score is independent
  /// of `count`, of the other images and of the thread count.
  std::vector<float> predict(const float* images, std::size_t count) const;

  /// Scalar score of one [1, S, S] (or [S, S]) image through predict().
  double predict_one(const Tensor& image) const;

  /// Total trainable scalar count (diagnostic).
  std::size_t parameter_count();

 private:
  ResNetConfig config_;
  Sequential net_;
};

}  // namespace ldmo::nn
