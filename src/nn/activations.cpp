#include "nn/activations.h"

#include <stdexcept>

namespace tbnet::nn {

namespace {

/// ReLU's one elementwise loop, in place over v[0, n): u = v[i] (+ skip[i]),
/// keep = mask_in[i] or else u > 0 (stored to mask_out), then
/// v[i] = keep ? u : 0. A select, not a branch on the data, so it compiles
/// to compare + blend and vectorizes: the `if (x > 0)` it replaces
/// mispredicted on about half the elements of a zero-mean activation.
template <bool kSkip, bool kMaskIn, bool kMaskOut>
void select_loop(int64_t n, float* v, const float* skip,
                 const uint8_t* mask_in, uint8_t* mask_out) {
  for (int64_t i = 0; i < n; ++i) {
    float u = v[i];
    if constexpr (kSkip) u += skip[i];
    const bool keep = kMaskIn ? mask_in[i] != 0 : u > 0.0f;
    if constexpr (kMaskOut) mask_out[i] = keep;
    v[i] = keep ? u : 0.0f;
  }
}

}  // namespace

void relu_forward(int64_t n, float* v, const float* skip, uint8_t* mask) {
  if (skip != nullptr) {
    if (mask != nullptr) {
      select_loop<true, false, true>(n, v, skip, nullptr, mask);
    } else {
      select_loop<true, false, false>(n, v, skip, nullptr, nullptr);
    }
  } else if (mask != nullptr) {
    select_loop<false, false, true>(n, v, nullptr, nullptr, mask);
  } else {
    select_loop<false, false, false>(n, v, nullptr, nullptr, nullptr);
  }
}

void relu_backward(int64_t n, float* g, const uint8_t* mask) {
  select_loop<false, true, false>(n, g, nullptr, mask, nullptr);
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

}  // namespace tbnet::nn
