#include "nn/layers.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/error.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"

namespace ldmo::nn {

SampleShape SampleShape::of(const Tensor& batch) {
  if (batch.rank() == 4)
    return {batch.dim(1), batch.dim(2), batch.dim(3), false};
  require(batch.rank() == 2,
          "SampleShape: need an [N, C, H, W] or [N, F] batch");
  return {batch.dim(1), 1, 1, true};
}

std::vector<int> SampleShape::batch_shape(int n) const {
  if (flat) return {n, c};
  return {n, c, h, w};
}

Tensor Layer::forward_eval(const Tensor& input) const {
  const SampleShape in = SampleShape::of(input);
  const int n = input.dim(0);
  Tensor output(eval_shape(in).batch_shape(n));
  eval_batch(*this, input.data(), in, static_cast<std::size_t>(n),
             output.data());
  return output;
}

void eval_batch(const Layer& layer, const float* in,
                const SampleShape& in_shape, std::size_t count, float* out) {
  const std::size_t in_size = in_shape.size();
  const std::size_t out_size = layer.eval_shape(in_shape).size();
  const std::size_t scratch = layer.eval_scratch(in_shape);
  // Samples write disjoint output slices and share nothing mutable, so
  // each chunk is an independent task. eval_sample overwrites scratch
  // before reading it, so stale pooled contents never reach an output.
  runtime::parallel_for_chunks(
      count, 1, [&](std::size_t begin, std::size_t end) {
        runtime::PooledVector<float> buf;
        if (scratch > 0)
          buf = runtime::Workspace::this_thread().vec_f32_uninit(scratch);
        for (std::size_t n = begin; n < end; ++n)
          layer.eval_sample(in + n * in_size, in_shape, out + n * out_size,
                            buf.data());
      });
}

void ReLU::eval_sample(const float* in, const SampleShape& in_shape,
                       float* out, float* /*scratch*/) const {
  // x > 0 ? x : +0, as a bit mask: a data-dependent branch here costs more
  // than the rest of the layer.
  const std::size_t n = in_shape.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t keep = 0u - static_cast<std::uint32_t>(in[i] > 0.0f);
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(in[i]) & keep);
  }
}

Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor out = forward_eval(input);
  if (training) {
    // out > 0 exactly where input > 0.
    mask_ = Tensor(input.shape());
    for (std::size_t i = 0; i < out.size(); ++i)
      mask_[i] = out[i] > 0.0f ? 1.0f : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  require(grad_output.same_shape(mask_), "ReLU::backward: shape mismatch");
  Tensor grad(grad_output.shape());
  for (std::size_t i = 0; i < grad.size(); ++i)
    grad[i] = grad_output[i] * mask_[i];
  return grad;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  if (!training) return forward_eval(input);
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_)
    for (Parameter* p : layer->parameters()) params.push_back(p);
  return params;
}

SampleShape Sequential::eval_shape(const SampleShape& in) const {
  SampleShape shape = in;
  for (const auto& layer : layers_) shape = layer->eval_shape(shape);
  return shape;
}

std::size_t Sequential::max_activation(const SampleShape& in) const {
  std::size_t largest = in.size();
  SampleShape shape = in;
  for (const auto& layer : layers_) {
    shape = layer->eval_shape(shape);
    largest = std::max(largest, shape.size());
  }
  return largest;
}

std::size_t Sequential::eval_scratch(const SampleShape& in) const {
  std::size_t child = 0;
  SampleShape shape = in;
  for (const auto& layer : layers_) {
    child = std::max(child, layer->eval_scratch(shape));
    shape = layer->eval_shape(shape);
  }
  return 2 * max_activation(in) + child;
}

void Sequential::eval_sample(const float* in, const SampleShape& in_shape,
                             float* out, float* scratch) const {
  // Same layout as eval_scratch: buffers A and B, then the child scratch.
  const std::size_t activation = max_activation(in_shape);
  float* const buf[2] = {scratch, scratch + activation};
  float* const child_scratch = scratch + 2 * activation;

  // Elementwise layers rewrite the current buffer in place; every other
  // layer writes the other buffer. The caller's input is never written.
  float* cur = nullptr;
  SampleShape shape = in_shape;
  for (const auto& layer : layers_) {
    const SampleShape next = layer->eval_shape(shape);
    if (cur != nullptr && layer->eval_in_place()) {
      layer->eval_sample(cur, shape, cur, child_scratch);
    } else {
      float* dst = cur == buf[0] ? buf[1] : buf[0];
      layer->eval_sample(cur != nullptr ? cur : in, shape, dst, child_scratch);
      cur = dst;
    }
    shape = next;
  }
  std::memcpy(out, cur != nullptr ? cur : in, shape.size() * sizeof(float));
}

}  // namespace ldmo::nn
