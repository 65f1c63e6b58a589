#include "nn/upsample.h"

#include <algorithm>

#include "common/error.h"

namespace ldmo::nn {

SampleShape Upsample2x::eval_shape(const SampleShape& in) const {
  require(!in.flat, "Upsample2x::forward: expects NCHW input");
  return {in.c, 2 * in.h, 2 * in.w};
}

void Upsample2x::eval_sample(const float* in, const SampleShape& in_shape,
                             float* out, float* /*scratch*/) const {
  const int W = in_shape.w;
  const std::size_t rows = static_cast<std::size_t>(in_shape.c) * in_shape.h;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* src = in + r * W;
    float* top = out + 2 * r * (2 * W);
    float* bottom = top + 2 * W;
    for (int x = 0; x < W; ++x) {
      top[2 * x] = top[2 * x + 1] = src[x];
      bottom[2 * x] = bottom[2 * x + 1] = src[x];
    }
  }
}

Tensor Upsample2x::forward(const Tensor& input, bool training) {
  Tensor output = forward_eval(input);
  if (training) input_shape_ = input.shape();
  return output;
}

Tensor Upsample2x::backward(const Tensor& grad_output) {
  require(!input_shape_.empty(), "Upsample2x::backward before forward");
  const int N = input_shape_[0];
  const int C = input_shape_[1];
  const int H = input_shape_[2];
  const int W = input_shape_[3];
  require(grad_output.rank() == 4 && grad_output.dim(0) == N &&
              grad_output.dim(1) == C && grad_output.dim(2) == 2 * H &&
              grad_output.dim(3) == 2 * W,
          "Upsample2x::backward: bad gradient shape");
  Tensor grad_input(input_shape_);
  for (int n = 0; n < N; ++n) {
    for (int c = 0; c < C; ++c) {
      for (int y = 0; y < H; ++y) {
        for (int x = 0; x < W; ++x) {
          grad_input.at4(n, c, y, x) =
              grad_output.at4(n, c, 2 * y, 2 * x) +
              grad_output.at4(n, c, 2 * y, 2 * x + 1) +
              grad_output.at4(n, c, 2 * y + 1, 2 * x) +
              grad_output.at4(n, c, 2 * y + 1, 2 * x + 1);
        }
      }
    }
  }
  return grad_input;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  require(a.rank() == 4 && b.rank() == 4 && a.dim(0) == b.dim(0) &&
              a.dim(2) == b.dim(2) && a.dim(3) == b.dim(3),
          "concat_channels: incompatible shapes");
  const int N = a.dim(0);
  const int Ca = a.dim(1);
  const int Cb = b.dim(1);
  const std::size_t plane = static_cast<std::size_t>(a.dim(2)) * a.dim(3);
  Tensor out({N, Ca + Cb, a.dim(2), a.dim(3)});
  for (int n = 0; n < N; ++n) {
    float* dst = out.data() + static_cast<std::size_t>(n) * (Ca + Cb) * plane;
    const float* pa = a.data() + static_cast<std::size_t>(n) * Ca * plane;
    const float* pb = b.data() + static_cast<std::size_t>(n) * Cb * plane;
    std::copy(pa, pa + static_cast<std::size_t>(Ca) * plane, dst);
    std::copy(pb, pb + static_cast<std::size_t>(Cb) * plane,
              dst + static_cast<std::size_t>(Ca) * plane);
  }
  return out;
}

void split_channels(const Tensor& grad, int a_channels, Tensor& grad_a,
                    Tensor& grad_b) {
  require(grad.rank() == 4 && a_channels > 0 && a_channels < grad.dim(1),
          "split_channels: bad channel split");
  const int N = grad.dim(0);
  const int Ca = a_channels;
  const int Cb = grad.dim(1) - a_channels;
  const std::size_t plane =
      static_cast<std::size_t>(grad.dim(2)) * grad.dim(3);
  grad_a = Tensor({N, Ca, grad.dim(2), grad.dim(3)});
  grad_b = Tensor({N, Cb, grad.dim(2), grad.dim(3)});
  for (int n = 0; n < N; ++n) {
    const float* src =
        grad.data() + static_cast<std::size_t>(n) * (Ca + Cb) * plane;
    std::copy(src, src + static_cast<std::size_t>(Ca) * plane,
              grad_a.data() + static_cast<std::size_t>(n) * Ca * plane);
    std::copy(src + static_cast<std::size_t>(Ca) * plane,
              src + static_cast<std::size_t>(Ca + Cb) * plane,
              grad_b.data() + static_cast<std::size_t>(n) * Cb * plane);
  }
}

}  // namespace ldmo::nn
