#pragma once
// The ReLU activation layer and its elementwise loops.

#include <cstdint>

#include "nn/layer.h"

namespace tbnet::nn {

/// ReLU forward, in place over v[0, n): u = v[i], plus skip[i] when `skip`
/// is given (a residual add in the same pass), then v[i] = u > 0 ? u : 0.
/// NaN and -0.0 map to +0.0, as in the GEMM epilogue's Act::kReLU. `mask`,
/// when given, receives u > 0 for relu_backward. ReLU, ResidualBlock and
/// the int8 calibration walk all run this one loop.
void relu_forward(int64_t n, float* v, const float* skip, uint8_t* mask);

/// ReLU backward, in place over g[0, n): g[i] = mask[i] ? g[i] : 0.
void relu_backward(int64_t n, float* g, const uint8_t* mask);

/// Rectified linear unit. Works on any rank; caches the sign mask.
class ReLU : public Layer {
 public:
  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;
  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::string kind() const override { return "ReLU"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override { return in; }
  int64_t macs(const Shape& in) const override { return in.numel(); }

 private:
  std::vector<uint8_t> mask_;
  Shape cached_shape_;
};

}  // namespace tbnet::nn
