// Layer abstraction, the per-sample eval kernels every layer implements,
// and the simple stateless layers (ReLU, Sequential container).
//
// Design: classic explicit-backward layers. forward(x, /*training=*/true)
// caches whatever the matching backward() needs; backward() consumes the
// upstream gradient and returns the input gradient while accumulating
// parameter gradients. No autograd graph — every gradient is hand-derived
// and unit-tested against finite differences.
//
// Eval mode has one implementation per layer: the const eval_sample()
// kernel over one sample's contiguous [C, H, W] planes. forward(x, false)
// runs it over the batch (forward_eval), and so does whole-network
// inference (ResNetRegressor::predict), which chains the kernels of every
// layer inside one task per sample. Eval kernels write no layer state, so
// an eval forward between a training forward and its backward changes
// nothing, and concurrent eval calls on one network are safe.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace ldmo::nn {

/// Shape of one sample's activation: `c` planes of h x w for an
/// [N, C, H, W] batch, or a flat vector of `c` features (h = w = 1) for an
/// [N, F] one.
struct SampleShape {
  int c = 0;
  int h = 1;
  int w = 1;
  bool flat = false;

  std::size_t size() const {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(h) *
           static_cast<std::size_t>(w);
  }
  std::size_t plane() const {
    return static_cast<std::size_t>(h) * static_cast<std::size_t>(w);
  }

  /// Per-sample shape of a rank-4 or rank-2 batch tensor.
  static SampleShape of(const Tensor& batch);
  /// The batch tensor shape for `n` samples: [n, c, h, w] or [n, c].
  std::vector<int> batch_shape(int n) const;

  friend bool operator==(const SampleShape&, const SampleShape&) = default;
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. Training mode caches what backward() needs (and, for
  /// batch norm, uses and updates batch statistics); eval mode runs
  /// forward_eval and writes no layer state.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Backward pass for the most recent training-mode forward() call.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// owned by the layer.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Human-readable layer id used in serialization sanity checks.
  virtual std::string name() const = 0;

  /// Eval-mode output shape of one sample with input shape `in`; throws
  /// ldmo::Error on an input this layer cannot take.
  virtual SampleShape eval_shape(const SampleShape& in) const = 0;

  /// Floats of scratch eval_sample needs at input shape `in`.
  virtual std::size_t eval_scratch(const SampleShape& /*in*/) const {
    return 0;
  }

  /// True when eval_sample accepts out == in (elementwise layers).
  virtual bool eval_in_place() const { return false; }

  /// Eval-mode forward of one sample: reads in_shape.size() floats at
  /// `in`, writes eval_shape(in_shape).size() floats to `out`, and may
  /// clobber eval_scratch(in_shape) floats at `scratch`. The shape must
  /// have passed eval_shape. Const: safe to call concurrently.
  virtual void eval_sample(const float* in, const SampleShape& in_shape,
                           float* out, float* scratch) const = 0;

 protected:
  /// Eval-mode forward of a batch: eval_batch into a new tensor. Every
  /// layer's forward(x, false) is this.
  Tensor forward_eval(const Tensor& input) const;
};

/// Runs layer.eval_sample over `count` samples stored back to back (sample
/// n reads in + n * in_shape.size() and writes its output slice of `out`).
/// The shape is checked once, up front; then parallel_for_chunks runs the
/// samples as tasks, each on scratch checked out from its thread's
/// runtime::Workspace. Every sample's arithmetic is independent of the
/// others and of the thread count.
void eval_batch(const Layer& layer, const float* in,
                const SampleShape& in_shape, std::size_t count, float* out);

/// Elementwise max(0, x).
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "relu"; }

  SampleShape eval_shape(const SampleShape& in) const override { return in; }
  bool eval_in_place() const override { return true; }
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

 private:
  Tensor mask_;  // 1 where input > 0
};

/// Ordered container running layers front-to-back (and back-to-front on
/// backward). Owns its children.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns a borrowed pointer for configuration.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void append(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "sequential"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  /// Two ping-pong activation buffers plus the largest child scratch.
  std::size_t eval_scratch(const SampleShape& in) const override;
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  /// Largest activation, input included, of one sample at input `in`.
  std::size_t max_activation(const SampleShape& in) const;

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace ldmo::nn
