#include "nn/pooling.h"

#include <limits>

#include "common/error.h"

namespace ldmo::nn {

MaxPool2d::MaxPool2d(int kernel_size, int stride, int padding)
    : kernel_size_(kernel_size), stride_(stride), padding_(padding) {
  require(kernel_size > 0 && stride > 0 && padding >= 0,
          "MaxPool2d: invalid configuration");
}

void MaxPool2d::pool_plane(const float* in, int height, int width, int out_h,
                           int out_w, float* out, int* argmax,
                           int base) const {
  for (int oy = 0; oy < out_h; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      float best = -std::numeric_limits<float>::infinity();
      int best_idx = -1;
      for (int ky = 0; ky < kernel_size_; ++ky) {
        const int iy = oy * stride_ - padding_ + ky;
        if (iy < 0 || iy >= height) continue;
        for (int kx = 0; kx < kernel_size_; ++kx) {
          const int ix = ox * stride_ - padding_ + kx;
          if (ix < 0 || ix >= width) continue;
          const float v = in[iy * width + ix];
          if (v > best) {
            best = v;
            best_idx = iy * width + ix;
          }
        }
      }
      // A window fully in padding can only happen with absurd configs;
      // guard anyway.
      const int o = oy * out_w + ox;
      out[o] = best_idx >= 0 ? best : 0.0f;
      if (argmax != nullptr) argmax[o] = best_idx >= 0 ? base + best_idx : -1;
    }
  }
}

SampleShape MaxPool2d::eval_shape(const SampleShape& in) const {
  require(!in.flat, "MaxPool2d: need NCHW input");
  const SampleShape out{in.c, output_size(in.h), output_size(in.w)};
  require(out.h > 0 && out.w > 0, "MaxPool2d: output collapsed");
  return out;
}

void MaxPool2d::eval_sample(const float* in, const SampleShape& in_shape,
                            float* out, float* /*scratch*/) const {
  const int out_h = output_size(in_shape.h);
  const int out_w = output_size(in_shape.w);
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  for (int c = 0; c < in_shape.c; ++c)
    pool_plane(in + c * in_shape.plane(), in_shape.h, in_shape.w, out_h,
               out_w, out + c * out_plane, nullptr, 0);
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  if (!training) return forward_eval(input);
  const SampleShape in = SampleShape::of(input);
  const SampleShape out = eval_shape(in);
  const int planes = input.dim(0) * in.c;
  Tensor output(out.batch_shape(input.dim(0)));
  argmax_.assign(output.size(), -1);
  input_shape_ = input.shape();
  for (int p = 0; p < planes; ++p)
    pool_plane(input.data() + p * in.plane(), in.h, in.w, out.h, out.w,
               output.data() + p * out.plane(), argmax_.data() + p * out.plane(),
               p * static_cast<int>(in.plane()));
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  require(grad_output.size() == argmax_.size(),
          "MaxPool2d::backward: shape mismatch");
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    if (argmax_[i] >= 0)
      grad_input[static_cast<std::size_t>(argmax_[i])] += grad_output[i];
  return grad_input;
}

SampleShape GlobalAvgPool::eval_shape(const SampleShape& in) const {
  require(!in.flat, "GlobalAvgPool: need NCHW input");
  return {in.c, 1, 1, true};
}

void GlobalAvgPool::eval_sample(const float* in, const SampleShape& in_shape,
                                float* out, float* /*scratch*/) const {
  const std::size_t plane = in_shape.plane();
  const float scale = 1.0f / static_cast<float>(in_shape.h * in_shape.w);
  for (int c = 0; c < in_shape.c; ++c) {
    const float* x = in + c * plane;
    float acc = 0.0f;
    for (std::size_t i = 0; i < plane; ++i) acc += x[i];
    out[c] = acc * scale;
  }
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  Tensor output = forward_eval(input);
  if (training) input_shape_ = input.shape();
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  require(input_shape_.size() == 4,
          "GlobalAvgPool::backward: no training-mode forward");
  const int N = input_shape_[0], C = input_shape_[1];
  require(grad_output.rank() == 2 && grad_output.dim(0) == N &&
              grad_output.dim(1) == C,
          "GlobalAvgPool::backward: shape mismatch");
  Tensor grad_input(input_shape_);
  const std::size_t plane =
      static_cast<std::size_t>(input_shape_[2]) * input_shape_[3];
  const float scale = 1.0f / static_cast<float>(plane);
  for (std::size_t p = 0; p < static_cast<std::size_t>(N) * C; ++p) {
    const float g = grad_output[p] * scale;
    float* dx = grad_input.data() + p * plane;
    for (std::size_t i = 0; i < plane; ++i) dx[i] = g;
  }
  return grad_input;
}

}  // namespace ldmo::nn
