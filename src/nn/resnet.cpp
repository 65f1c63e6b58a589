#include "nn/resnet.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/failpoint.h"

namespace ldmo::nn {

BasicBlock::BasicBlock(int in_channels, int out_channels, int stride,
                       Rng& rng)
    : conv1_(in_channels, out_channels, 3, stride, 1, false, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, false, rng),
      bn2_(out_channels) {
  if (stride != 1 || in_channels != out_channels) {
    shortcut_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1,
                                              stride, 0, false, rng);
    shortcut_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

Tensor BasicBlock::forward(const Tensor& input, bool training) {
  if (!training) return forward_eval(input);
  Tensor main = bn1_.forward(conv1_.forward(input, training), training);
  main = relu1_.forward(main, training);
  main = bn2_.forward(conv2_.forward(main, training), training);

  Tensor shortcut =
      shortcut_conv_
          ? shortcut_bn_->forward(shortcut_conv_->forward(input, training),
                                  training)
          : input;
  require(main.same_shape(shortcut), "BasicBlock: path shape mismatch");
  Tensor sum(main.shape());
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = main[i] + shortcut[i];
  return relu_out_.forward(sum, training);
}

SampleShape BasicBlock::eval_shape(const SampleShape& in) const {
  const SampleShape main =
      bn2_.eval_shape(conv2_.eval_shape(bn1_.eval_shape(conv1_.eval_shape(in))));
  const SampleShape shortcut =
      shortcut_conv_
          ? shortcut_bn_->eval_shape(shortcut_conv_->eval_shape(in))
          : in;
  require(main == shortcut, "BasicBlock: path shape mismatch");
  return main;
}

std::size_t BasicBlock::eval_scratch(const SampleShape& in) const {
  const SampleShape mid = conv1_.eval_shape(in);
  std::size_t conv = std::max(conv1_.eval_scratch(in),
                              conv2_.eval_scratch(mid));
  std::size_t buffers = mid.size();
  if (shortcut_conv_) {
    conv = std::max(conv, shortcut_conv_->eval_scratch(in));
    buffers += mid.size();
  }
  return buffers + conv;
}

void BasicBlock::eval_sample(const float* in, const SampleShape& in_shape,
                             float* out, float* scratch) const {
  const SampleShape mid = conv1_.eval_shape(in_shape);
  const std::size_t n = mid.size();
  float* main = scratch;
  float* conv_scratch = scratch + (shortcut_conv_ ? 2 * n : n);

  conv1_.eval_sample(in, in_shape, main, conv_scratch);
  bn1_.eval_sample(main, mid, main, nullptr);
  relu1_.eval_sample(main, mid, main, nullptr);
  conv2_.eval_sample(main, mid, out, conv_scratch);
  bn2_.eval_sample(out, mid, out, nullptr);
  const float* shortcut = in;
  if (shortcut_conv_) {
    float* projected = scratch + n;
    shortcut_conv_->eval_sample(in, in_shape, projected, conv_scratch);
    shortcut_bn_->eval_sample(projected, mid, projected, nullptr);
    shortcut = projected;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = out[i] + shortcut[i];
  relu_out_.eval_sample(out, mid, out, nullptr);
}

Tensor BasicBlock::backward(const Tensor& grad_output) {
  const Tensor grad_sum = relu_out_.backward(grad_output);
  // Main path.
  Tensor grad = bn2_.backward(grad_sum);
  grad = conv2_.backward(grad);
  grad = relu1_.backward(grad);
  grad = bn1_.backward(grad);
  Tensor grad_input = conv1_.backward(grad);
  // Shortcut path adds into the same input gradient.
  if (shortcut_conv_) {
    Tensor grad_shortcut = shortcut_bn_->backward(grad_sum);
    grad_shortcut = shortcut_conv_->backward(grad_shortcut);
    for (std::size_t i = 0; i < grad_input.size(); ++i)
      grad_input[i] += grad_shortcut[i];
  } else {
    for (std::size_t i = 0; i < grad_input.size(); ++i)
      grad_input[i] += grad_sum[i];
  }
  return grad_input;
}

std::vector<Parameter*> BasicBlock::parameters() {
  std::vector<Parameter*> params;
  for (Layer* layer :
       std::initializer_list<Layer*>{&conv1_, &bn1_, &conv2_, &bn2_})
    for (Parameter* p : layer->parameters()) params.push_back(p);
  if (shortcut_conv_) {
    for (Parameter* p : shortcut_conv_->parameters()) params.push_back(p);
    for (Parameter* p : shortcut_bn_->parameters()) params.push_back(p);
  }
  return params;
}

ResNetRegressor::ResNetRegressor(ResNetConfig config) : config_(config) {
  require(config_.input_size >= 16, "ResNetRegressor: input too small");
  require(config_.width_multiplier > 0.0,
          "ResNetRegressor: width multiplier must be positive");
  require(config_.blocks_per_stage >= 1,
          "ResNetRegressor: need at least one block per stage");
  Rng rng(config_.seed);

  auto width = [&](int base) {
    return std::max(4, static_cast<int>(std::lround(
                           base * config_.width_multiplier)));
  };
  const int c1 = width(64), c2 = width(128), c3 = width(256),
            c4 = width(512);
  const int fc = std::max(8, static_cast<int>(std::lround(
                                 config_.fc_dim * config_.width_multiplier)));

  // Stem: 7x7/2 conv + BN + ReLU + 3x3/2 max pool (ResNet18 stem).
  net_.emplace<Conv2d>(1, c1, 7, 2, 3, false, rng);
  net_.emplace<BatchNorm2d>(c1);
  net_.emplace<ReLU>();
  net_.emplace<MaxPool2d>(3, 2, 1);
  // Four stages of residual blocks.
  int in_c = c1;
  for (const auto& [out_c, stride] :
       std::initializer_list<std::pair<int, int>>{
           {c1, 1}, {c2, 2}, {c3, 2}, {c4, 2}}) {
    for (int b = 0; b < config_.blocks_per_stage; ++b) {
      net_.emplace<BasicBlock>(in_c, out_c, b == 0 ? stride : 1, rng);
      in_c = out_c;
    }
  }
  // Head: GAP -> FC(fc) -> ReLU -> FC(1).
  net_.emplace<GlobalAvgPool>();
  net_.emplace<Linear>(c4, fc, rng);
  net_.emplace<ReLU>();
  net_.emplace<Linear>(fc, 1, rng);
}

namespace {

// Throws unless `images` is an [N, 1, size, size] batch.
void require_images(const Tensor& images, int size) {
  if (images.rank() == 4 && images.dim(1) == 1 && images.dim(2) == size &&
      images.dim(3) == size)
    return;
  const std::string side = std::to_string(size);
  require(false,
          "ResNetRegressor: expected [N, 1, " + side + ", " + side + "] input");
}

}  // namespace

Tensor ResNetRegressor::forward(const Tensor& images, bool training) {
  require_images(images, config_.input_size);
  fail::maybe_fail("nn.forward", FlowStage::kPredict);
  return net_.forward(images, training);
}

Tensor ResNetRegressor::backward(const Tensor& grad_scores) {
  return net_.backward(grad_scores);
}

std::vector<float> ResNetRegressor::predict(const float* images,
                                            std::size_t count) const {
  fail::maybe_fail("nn.forward", FlowStage::kPredict);
  std::vector<float> scores(count);
  eval_batch(net_, images, {1, config_.input_size, config_.input_size},
             count, scores.data());
  return scores;
}

double ResNetRegressor::predict_one(const Tensor& image) const {
  const std::size_t side = static_cast<std::size_t>(config_.input_size);
  require(image.size() == side * side,
          "ResNetRegressor::predict_one: image size mismatch");
  return static_cast<double>(predict(image.data(), 1).front());
}

std::size_t ResNetRegressor::parameter_count() {
  std::size_t count = 0;
  for (Parameter* p : parameters()) count += p->value.size();
  return count;
}

}  // namespace ldmo::nn
