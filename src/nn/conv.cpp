#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "nn/gemm.h"
#include "runtime/workspace.h"

namespace ldmo::nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel_size, int stride,
               int padding, bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      has_bias_(bias) {
  require(in_channels > 0 && out_channels > 0 && kernel_size > 0 &&
              stride > 0 && padding >= 0,
          "Conv2d: invalid configuration");
  const int fan_in = in_channels * kernel_size * kernel_size;
  weight_ = Parameter({out_channels, fan_in});
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (std::size_t i = 0; i < weight_.value.size(); ++i)
    weight_.value[i] = static_cast<float>(rng.normal(0.0, stddev));
  if (has_bias_) bias_ = Parameter({out_channels});
}

void Conv2d::tap_range(int kx, int width, int out_width, int& lo,
                       int& hi) const {
  const int first = padding_ - kx;              // ox * stride >= first
  const int last = width - 1 + padding_ - kx;   // ox * stride <= last
  lo = first > 0 ? (first + stride_ - 1) / stride_ : 0;
  hi = last >= 0 ? std::min(last / stride_ + 1, out_width) : 0;
  lo = std::min(lo, hi);
}

void Conv2d::im2col(const float* planes, int height, int width, int out_h,
                    int out_w, float* columns) const {
  const std::size_t plane = static_cast<std::size_t>(height) * width;
  const std::size_t cols = static_cast<std::size_t>(out_h) * out_w;
  float* row = columns;
  for (int c = 0; c < in_channels_; ++c) {
    const float* src = planes + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < kernel_size_; ++ky) {
      int y_lo, y_hi;
      tap_range(ky, height, out_h, y_lo, y_hi);
      for (int kx = 0; kx < kernel_size_; ++kx, row += cols) {
        int x_lo, x_hi;
        tap_range(kx, width, out_w, x_lo, x_hi);
        // Rows and columns whose tap falls in the padding are zero.
        std::fill(row, row + static_cast<std::size_t>(y_lo) * out_w, 0.0f);
        for (int oy = y_lo; oy < y_hi; ++oy) {
          float* dst = row + static_cast<std::size_t>(oy) * out_w;
          std::fill(dst, dst + x_lo, 0.0f);
          if (x_lo < x_hi) {
            const float* s =
                src +
                static_cast<std::size_t>(oy * stride_ - padding_ + ky) * width +
                (x_lo * stride_ - padding_ + kx);
            if (stride_ == 1) {
              std::memcpy(dst + x_lo, s,
                          static_cast<std::size_t>(x_hi - x_lo) *
                              sizeof(float));
            } else {
              for (int ox = x_lo; ox < x_hi; ++ox)
                dst[ox] = s[static_cast<std::size_t>(ox - x_lo) * stride_];
            }
          }
          std::fill(dst + x_hi, dst + out_w, 0.0f);
        }
        std::fill(row + static_cast<std::size_t>(y_hi) * out_w, row + cols,
                  0.0f);
      }
    }
  }
}

void Conv2d::col2im(const float* columns, int height, int width, int out_h,
                    int out_w, float* planes) const {
  // Same (c, ky, kx, oy, ox) order as im2col, so every input element sums
  // its contributions in one fixed order.
  const std::size_t plane = static_cast<std::size_t>(height) * width;
  const std::size_t cols = static_cast<std::size_t>(out_h) * out_w;
  const float* row = columns;
  for (int c = 0; c < in_channels_; ++c) {
    float* dst_plane = planes + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < kernel_size_; ++ky) {
      int y_lo, y_hi;
      tap_range(ky, height, out_h, y_lo, y_hi);
      for (int kx = 0; kx < kernel_size_; ++kx, row += cols) {
        int x_lo, x_hi;
        tap_range(kx, width, out_w, x_lo, x_hi);
        if (x_lo == x_hi) continue;
        for (int oy = y_lo; oy < y_hi; ++oy) {
          const float* src = row + static_cast<std::size_t>(oy) * out_w;
          float* dst =
              dst_plane +
              static_cast<std::size_t>(oy * stride_ - padding_ + ky) * width +
              (x_lo * stride_ - padding_ + kx);
          for (int ox = x_lo; ox < x_hi; ++ox)
            dst[static_cast<std::size_t>(ox - x_lo) * stride_] += src[ox];
        }
      }
    }
  }
}

SampleShape Conv2d::eval_shape(const SampleShape& in) const {
  require(!in.flat && in.c == in_channels_,
          "Conv2d::forward: bad input shape");
  const SampleShape out{out_channels_, output_size(in.h), output_size(in.w)};
  require(out.h > 0 && out.w > 0, "Conv2d::forward: output collapsed");
  return out;
}

std::size_t Conv2d::eval_scratch(const SampleShape& in) const {
  return static_cast<std::size_t>(in_channels_) * kernel_size_ *
         kernel_size_ * eval_shape(in).plane();
}

void Conv2d::eval_sample(const float* in, const SampleShape& in_shape,
                         float* out, float* scratch) const {
  const int out_h = output_size(in_shape.h);
  const int out_w = output_size(in_shape.w);
  const int fan_in = in_channels_ * kernel_size_ * kernel_size_;
  const int cols = out_h * out_w;
  im2col(in, in_shape.h, in_shape.w, out_h, out_w, scratch);
  gemm(weight_.value.data(), scratch, out, out_channels_, fan_in, cols);
  if (has_bias_) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float b = bias_.value[static_cast<std::size_t>(oc)];
      float* channel = out + static_cast<std::size_t>(oc) * cols;
      for (int i = 0; i < cols; ++i) channel[i] += b;
    }
  }
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  Tensor output = forward_eval(input);
  if (training) cached_input_ = input;
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  require(cached_input_.rank() == 4,
          "Conv2d::backward: no training-mode forward to differentiate");
  const int N = cached_input_.dim(0);
  const int H = cached_input_.dim(2);
  const int W = cached_input_.dim(3);
  const int out_h = output_size(H);
  const int out_w = output_size(W);
  const int fan_in = in_channels_ * kernel_size_ * kernel_size_;
  const int cols = out_h * out_w;
  require(grad_output.rank() == 4 && grad_output.dim(1) == out_channels_ &&
              grad_output.dim(2) == out_h && grad_output.dim(3) == out_w,
          "Conv2d::backward: bad gradient shape");

  Tensor grad_input(cached_input_.shape());
  const std::size_t in_size = static_cast<std::size_t>(in_channels_) * H * W;
  // Both buffers are fully overwritten per sample (im2col / memset), so
  // pooled uninitialized scratch is bit-identical to fresh vectors.
  runtime::Workspace& ws = runtime::Workspace::this_thread();
  runtime::PooledVector<float> columns =
      ws.vec_f32_uninit(static_cast<std::size_t>(fan_in) * cols);
  runtime::PooledVector<float> grad_columns =
      ws.vec_f32_uninit(columns.size());
  // The sample loop stays serial: every sample accumulates into the shared
  // weight_.grad / bias_.grad, and a per-thread grad copy + ordered merge
  // would not reproduce the serial accumulation order bit-for-bit. The
  // GEMMs inside still parallelize their independent row ranges.
  for (int n = 0; n < N; ++n) {
    const float* gout = grad_output.data() +
                        static_cast<std::size_t>(n) * out_channels_ * cols;
    // dW += dY * col^T
    im2col(cached_input_.data() + n * in_size, H, W, out_h, out_w,
           columns.data());
    gemm_a_bt_accumulate(gout, columns.data(), weight_.grad.data(),
                         out_channels_, cols, fan_in);
    // dcol = W^T * dY
    std::memset(grad_columns.data(), 0, grad_columns.size() * sizeof(float));
    gemm_at_b_accumulate(weight_.value.data(), gout, grad_columns.data(),
                         fan_in, out_channels_, cols);
    col2im(grad_columns.data(), H, W, out_h, out_w,
           grad_input.data() + n * in_size);
    if (has_bias_) {
      for (int oc = 0; oc < out_channels_; ++oc) {
        const float* channel = gout + static_cast<std::size_t>(oc) * cols;
        float acc = 0.0f;
        for (int i = 0; i < cols; ++i) acc += channel[i];
        bias_.grad[static_cast<std::size_t>(oc)] += acc;
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace ldmo::nn
