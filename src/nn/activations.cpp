#include "nn/activations.h"

#include <cmath>
#include <stdexcept>

namespace tbnet::nn {

namespace {

/// The ReLU family's one elementwise loop, in place over v[0, n): u = v[i]
/// (+ skip[i]), keep = mask_in[i] or else u > 0 (stored to mask_out), then
/// v[i] = keep ? u : neg(u). A select, not a branch on the data, so it
/// compiles to compare + blend and vectorizes: the `if (x > 0)` it replaces
/// mispredicted on about half the elements of a zero-mean activation.
template <bool kSkip, bool kMaskIn, bool kMaskOut, typename Neg>
void select_loop(int64_t n, float* v, const float* skip,
                 const uint8_t* mask_in, uint8_t* mask_out, Neg neg) {
  for (int64_t i = 0; i < n; ++i) {
    float u = v[i];
    if constexpr (kSkip) u += skip[i];
    const bool keep = kMaskIn ? mask_in[i] != 0 : u > 0.0f;
    if constexpr (kMaskOut) mask_out[i] = keep;
    v[i] = keep ? u : neg(u);
  }
}

/// Forward select with keep = u > 0; `skip` and `mask` may be null.
template <typename Neg>
void forward_loop(int64_t n, float* v, const float* skip, uint8_t* mask,
                  Neg neg) {
  if (skip != nullptr) {
    if (mask != nullptr) {
      select_loop<true, false, true>(n, v, skip, nullptr, mask, neg);
    } else {
      select_loop<true, false, false>(n, v, skip, nullptr, nullptr, neg);
    }
  } else if (mask != nullptr) {
    select_loop<false, false, true>(n, v, nullptr, nullptr, mask, neg);
  } else {
    select_loop<false, false, false>(n, v, nullptr, nullptr, nullptr, neg);
  }
}

constexpr auto kZero = [](float) { return 0.0f; };

}  // namespace

void relu_forward(int64_t n, float* v, const float* skip, uint8_t* mask) {
  forward_loop(n, v, skip, mask, kZero);
}

void relu_backward(int64_t n, float* g, const uint8_t* mask) {
  select_loop<false, true, false>(n, g, nullptr, mask, nullptr, kZero);
}

Tensor ReLU::forward(ExecutionContext&, const Tensor& input, bool train) {
  Tensor out = input;
  uint8_t* mask = nullptr;
  if (train) {
    mask_.resize(static_cast<size_t>(input.numel()));
    cached_shape_ = input.shape();
    mask = mask_.data();
  }
  relu_forward(out.numel(), out.data(), nullptr, mask);
  return out;
}

Tensor ReLU::backward(ExecutionContext&, const Tensor& grad_output) {
  if (mask_.empty() || grad_output.shape() != cached_shape_) {
    throw std::logic_error("ReLU::backward without matching forward(train)");
  }
  Tensor grad = grad_output;
  relu_backward(grad.numel(), grad.data(), mask_.data());
  return grad;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>();
}

LeakyReLU::LeakyReLU(float alpha) : alpha_(alpha) {
  if (alpha < 0.0f || alpha >= 1.0f) {
    throw std::invalid_argument("LeakyReLU: alpha must be in [0, 1)");
  }
}

Tensor LeakyReLU::forward(ExecutionContext&, const Tensor& input, bool train) {
  Tensor out = input;
  uint8_t* mask = nullptr;
  if (train) {
    mask_.resize(static_cast<size_t>(input.numel()));
    cached_shape_ = input.shape();
    mask = mask_.data();
  }
  const float a = alpha_;
  forward_loop(out.numel(), out.data(), nullptr, mask,
               [a](float u) { return u * a; });
  return out;
}

Tensor LeakyReLU::backward(ExecutionContext&, const Tensor& grad_output) {
  if (mask_.empty() || grad_output.shape() != cached_shape_) {
    throw std::logic_error("LeakyReLU::backward without forward(train)");
  }
  Tensor grad = grad_output;
  const float a = alpha_;
  select_loop<false, true, false>(grad.numel(), grad.data(), nullptr,
                                  mask_.data(), nullptr,
                                  [a](float u) { return u * a; });
  return grad;
}

std::unique_ptr<Layer> LeakyReLU::clone() const {
  return std::make_unique<LeakyReLU>(alpha_);
}

Tensor Tanh::forward(ExecutionContext&, const Tensor& input, bool train) {
  Tensor out = input;
  for (int64_t i = 0; i < out.numel(); ++i) out[i] = std::tanh(out[i]);
  if (train) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(ExecutionContext&, const Tensor& grad_output) {
  if (cached_output_.empty() ||
      grad_output.shape() != cached_output_.shape()) {
    throw std::logic_error("Tanh::backward without forward(train)");
  }
  Tensor grad = grad_output;
  for (int64_t i = 0; i < grad.numel(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= 1.0f - y * y;
  }
  return grad;
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }

Tensor Sigmoid::forward(ExecutionContext&, const Tensor& input, bool train) {
  Tensor out = input;
  for (int64_t i = 0; i < out.numel(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-out[i]));
  }
  if (train) cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(ExecutionContext&, const Tensor& grad_output) {
  if (cached_output_.empty() ||
      grad_output.shape() != cached_output_.shape()) {
    throw std::logic_error("Sigmoid::backward without forward(train)");
  }
  Tensor grad = grad_output;
  for (int64_t i = 0; i < grad.numel(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= y * (1.0f - y);
  }
  return grad;
}

std::unique_ptr<Layer> Sigmoid::clone() const {
  return std::make_unique<Sigmoid>();
}

}  // namespace tbnet::nn
