#include "nn/deconv.h"

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "nn/gemm.h"
#include "runtime/workspace.h"

namespace ldmo::nn {

ConvTranspose2d::ConvTranspose2d(int in_channels, int out_channels,
                                 int kernel_size, int stride, int padding,
                                 bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      has_bias_(bias) {
  require(in_channels > 0 && out_channels > 0 && kernel_size > 0 &&
              stride > 0 && padding >= 0 &&
              kernel_size > 2 * padding,
          "ConvTranspose2d: invalid configuration");
  const int fan_out = out_channels * kernel_size * kernel_size;
  weight_ = Parameter({in_channels, fan_out});
  const int fan_in = in_channels * kernel_size * kernel_size;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (std::size_t i = 0; i < weight_.value.size(); ++i)
    weight_.value[i] = static_cast<float>(rng.normal(0.0, stddev));
  if (has_bias_) bias_ = Parameter({out_channels});
}

void ConvTranspose2d::scatter_columns(const float* columns, int in_h,
                                      int in_w, int out_h, int out_w,
                                      float* planes) const {
  const int cols = in_h * in_w;
  for (int oc = 0; oc < out_channels_; ++oc) {
    float* plane =
        planes + static_cast<std::size_t>(oc) * out_h * out_w;
    for (int ky = 0; ky < kernel_size_; ++ky) {
      for (int kx = 0; kx < kernel_size_; ++kx) {
        const float* row = columns +
                           static_cast<std::size_t>((oc * kernel_size_ + ky) *
                                                    kernel_size_ + kx) * cols;
        for (int iy = 0; iy < in_h; ++iy) {
          const int oy = iy * stride_ - padding_ + ky;
          if (oy < 0 || oy >= out_h) continue;
          for (int ix = 0; ix < in_w; ++ix) {
            const int ox = ix * stride_ - padding_ + kx;
            if (ox >= 0 && ox < out_w)
              plane[static_cast<std::size_t>(oy) * out_w + ox] +=
                  row[static_cast<std::size_t>(iy) * in_w + ix];
          }
        }
      }
    }
  }
}

void ConvTranspose2d::gather_columns(const float* planes, int in_h,
                                     int in_w, int out_h, int out_w,
                                     float* columns) const {
  const int cols = in_h * in_w;
  for (int oc = 0; oc < out_channels_; ++oc) {
    const float* plane =
        planes + static_cast<std::size_t>(oc) * out_h * out_w;
    for (int ky = 0; ky < kernel_size_; ++ky) {
      for (int kx = 0; kx < kernel_size_; ++kx) {
        float* row = columns +
                     static_cast<std::size_t>((oc * kernel_size_ + ky) *
                                              kernel_size_ + kx) * cols;
        for (int iy = 0; iy < in_h; ++iy) {
          const int oy = iy * stride_ - padding_ + ky;
          if (oy < 0 || oy >= out_h) {
            std::memset(row + static_cast<std::size_t>(iy) * in_w, 0,
                        static_cast<std::size_t>(in_w) * sizeof(float));
            continue;
          }
          for (int ix = 0; ix < in_w; ++ix) {
            const int ox = ix * stride_ - padding_ + kx;
            row[static_cast<std::size_t>(iy) * in_w + ix] =
                (ox >= 0 && ox < out_w)
                    ? plane[static_cast<std::size_t>(oy) * out_w + ox]
                    : 0.0f;
          }
        }
      }
    }
  }
}

SampleShape ConvTranspose2d::eval_shape(const SampleShape& in) const {
  require(!in.flat && in.c == in_channels_,
          "ConvTranspose2d::forward: bad input shape");
  const SampleShape out{out_channels_, output_size(in.h), output_size(in.w)};
  require(out.h > 0 && out.w > 0,
          "ConvTranspose2d::forward: output collapsed");
  return out;
}

std::size_t ConvTranspose2d::eval_scratch(const SampleShape& in) const {
  return static_cast<std::size_t>(out_channels_) * kernel_size_ *
         kernel_size_ * in.plane();
}

void ConvTranspose2d::eval_sample(const float* in,
                                  const SampleShape& in_shape, float* out,
                                  float* scratch) const {
  const int fan_out = out_channels_ * kernel_size_ * kernel_size_;
  const int cols = in_shape.h * in_shape.w;
  const int out_h = output_size(in_shape.h);
  const int out_w = output_size(in_shape.w);
  const int out_cols = out_h * out_w;
  // col = W^T * x   (W is [in_c, fan_out], x is [in_c, cols])
  std::memset(scratch, 0,
              static_cast<std::size_t>(fan_out) * cols * sizeof(float));
  gemm_at_b_accumulate(weight_.value.data(), in, scratch, fan_out,
                       in_channels_, cols);
  if (has_bias_) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float b = bias_.value[static_cast<std::size_t>(oc)];
      float* channel = out + static_cast<std::size_t>(oc) * out_cols;
      for (int i = 0; i < out_cols; ++i) channel[i] = b;
    }
  } else {
    std::memset(out, 0,
                static_cast<std::size_t>(out_channels_) * out_cols *
                    sizeof(float));
  }
  scatter_columns(scratch, in_shape.h, in_shape.w, out_h, out_w, out);
}

Tensor ConvTranspose2d::forward(const Tensor& input, bool training) {
  Tensor output = forward_eval(input);
  if (training) cached_input_ = input;
  return output;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  require(cached_input_.rank() == 4,
          "ConvTranspose2d::backward: no training-mode forward to "
          "differentiate");
  const int N = cached_input_.dim(0);
  const int in_h = cached_input_.dim(2);
  const int in_w = cached_input_.dim(3);
  const int out_h = output_size(in_h);
  const int out_w = output_size(in_w);
  const int fan_out = out_channels_ * kernel_size_ * kernel_size_;
  const int cols = in_h * in_w;
  require(grad_output.rank() == 4 && grad_output.dim(1) == out_channels_ &&
              grad_output.dim(2) == out_h && grad_output.dim(3) == out_w,
          "ConvTranspose2d::backward: bad gradient shape");

  Tensor grad_input(cached_input_.shape());
  // The gradient w.r.t. the input of a transposed conv is an ordinary
  // convolution of grad_output with the same kernel, so gather_columns
  // turns grad_output into the familiar column matrix and one GEMM per
  // sample does the rest. The buffer is fully overwritten per sample, so
  // pooled uninitialized scratch is bit-identical to fresh vectors.
  runtime::PooledVector<float> grad_columns =
      runtime::Workspace::this_thread().vec_f32_uninit(
          static_cast<std::size_t>(fan_out) * cols);
  // The sample loop stays serial: every sample accumulates into the shared
  // weight_.grad / bias_.grad, and a per-thread grad copy + ordered merge
  // would not reproduce the serial accumulation order bit-for-bit. The
  // GEMMs inside still parallelize their independent row ranges.
  const int out_cols = out_h * out_w;
  for (int n = 0; n < N; ++n) {
    gather_columns(grad_output.data() +
                       static_cast<std::size_t>(n) * out_channels_ * out_cols,
                   in_h, in_w, out_h, out_w, grad_columns.data());
    const float* x = cached_input_.data() +
                     static_cast<std::size_t>(n) * in_channels_ * cols;
    // dW += x * gcol^T   (x is [in_c, cols], gcol is [fan_out, cols])
    gemm_a_bt_accumulate(x, grad_columns.data(), weight_.grad.data(),
                         in_channels_, cols, fan_out);
    // dx = W * gcol      ([in_c, fan_out] x [fan_out, cols])
    float* gx = grad_input.data() +
                static_cast<std::size_t>(n) * in_channels_ * cols;
    gemm(weight_.value.data(), grad_columns.data(), gx, in_channels_, fan_out,
         cols);
    if (has_bias_) {
      const float* gout = grad_output.data() +
                          static_cast<std::size_t>(n) * out_channels_ *
                              out_cols;
      for (int oc = 0; oc < out_channels_; ++oc) {
        const float* channel = gout + static_cast<std::size_t>(oc) * out_cols;
        float acc = 0.0f;
        for (int i = 0; i < out_cols; ++i) acc += channel[i];
        bias_.grad[static_cast<std::size_t>(oc)] += acc;
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> ConvTranspose2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace ldmo::nn
