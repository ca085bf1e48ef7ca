#include "nn/sequential.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"

namespace tbnet::nn {

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  plan_.clear();
  prepared_ = false;
  return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  plan_.clear();
  prepared_ = false;
  return *this;
}

void Sequential::remove_layer(int i) {
  if (i < 0 || i >= size()) {
    throw std::out_of_range("Sequential::remove_layer: index out of range");
  }
  layers_.erase(layers_.begin() + i);
  plan_.clear();
  prepared_ = false;
}

void Sequential::prepare_inference(ExecutionContext& ctx) {
  plan_.clear();
  const int n = size();
  int i = 0;
  while (i < n) {
    FusedStep step;
    step.layer = i;
    int j = i + 1;
    if (auto* conv = dynamic_cast<Conv2d*>(layers_[static_cast<size_t>(i)].get())) {
      if (j < n) {
        if (auto* bn = dynamic_cast<BatchNorm2d*>(
                layers_[static_cast<size_t>(j)].get());
            bn != nullptr && bn->channels() == conv->out_channels()) {
          step.bn = j;
          ++j;
        }
      }
      if (j < n && dynamic_cast<ReLU*>(layers_[static_cast<size_t>(j)].get())) {
        step.act = simd::Act::kReLU;
        ++j;
      }
    } else if (dynamic_cast<Dense*>(layers_[static_cast<size_t>(i)].get())) {
      if (j < n && dynamic_cast<ReLU*>(layers_[static_cast<size_t>(j)].get())) {
        step.act = simd::Act::kReLU;
        ++j;
      }
    }
    step.consumed = j - i;
    plan_.push_back(step);
    i = j;
  }
  // Hoist the BN scale/shift composition out of the per-call path: the
  // model is frozen once prepared, so the composed vectors (including the
  // head conv's own bias) are computed once here and reused by every fused
  // eval. Only a Conv2d head folds a BN.
  for (FusedStep& step : plan_) {
    if (step.bn < 0) continue;
    auto* bn =
        static_cast<BatchNorm2d*>(layers_[static_cast<size_t>(step.bn)].get());
    const int64_t c = bn->channels();
    step.scale.resize(static_cast<size_t>(c));
    step.shift.resize(static_cast<size_t>(c));
    bn->inference_scale_shift(step.scale.data(), step.shift.data());
    auto* conv =
        static_cast<Conv2d*>(layers_[static_cast<size_t>(step.layer)].get());
    if (conv->has_bias()) {
      // y = (conv(x) + b) * s + t  =>  shift = b * s + t
      const float* bias = conv->bias().data();
      for (int64_t o = 0; o < c; ++o) {
        step.shift[static_cast<size_t>(o)] += bias[o] * step.scale[static_cast<size_t>(o)];
      }
    }
  }
  prepared_ = true;
  for (auto& l : layers_) l->prepare_inference(ctx);
}

Tensor Sequential::forward_prepared(ExecutionContext& ctx,
                                    const Tensor& input) {
  Tensor x = input;
  for (const FusedStep& step : plan_) {
    Layer* layer = layers_[static_cast<size_t>(step.layer)].get();
    if (step.consumed == 1) {
      // Eval forward already runs any pre-packed fast path a single layer
      // has; only multi-layer steps need the fused entry points below.
      x = layer->forward(ctx, x, false);
      continue;
    }
    // The composed BN affine was cached at prepare time (step.scale/shift);
    // without a BN the head's own bias rides the shift slot unscaled.
    const float* scale = step.bn >= 0 ? step.scale.data() : nullptr;
    const float* shift = step.bn >= 0 ? step.shift.data() : nullptr;
    if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
      if (shift == nullptr && conv->has_bias()) shift = conv->bias().data();
      x = conv->forward_fused(ctx, x, scale, shift, step.act);
    } else {
      // The planner only folds layers behind Conv2d/Dense, so a multi-layer
      // step's head is one of the two.
      x = static_cast<Dense*>(layer)->forward_fused(ctx, x, step.act);
    }
  }
  return x;
}

Tensor Sequential::forward(ExecutionContext& ctx, const Tensor& input,
                           bool train) {
  if (!train && prepared_) {
    return forward_prepared(ctx, input);
  }
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(ctx, x, train);
  return x;
}

Tensor Sequential::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(ctx, g);
  }
  return g;
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> all;
  for (size_t i = 0; i < layers_.size(); ++i) {
    for (ParamRef p : layers_[i]->params()) {
      p.name = std::to_string(i) + "." + layers_[i]->kind() + "." + p.name;
      all.push_back(p);
    }
  }
  return all;
}

std::unique_ptr<Layer> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& l : layers_) copy->add(l->clone());
  return copy;
}

Shape Sequential::out_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& l : layers_) s = l->out_shape(s);
  return s;
}

int64_t Sequential::macs(const Shape& in) const {
  Shape s = in;
  int64_t total = 0;
  for (const auto& l : layers_) {
    total += l->macs(s);
    s = l->out_shape(s);
  }
  return total;
}

int64_t Sequential::param_bytes() const {
  int64_t total = 0;
  for (const auto& l : layers_) total += l->param_bytes();
  return total;
}

}  // namespace tbnet::nn
