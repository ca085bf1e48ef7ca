#pragma once
// Spatial pooling layers (NCHW).

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace tbnet::nn {

/// Max pooling with square window; caches argmax indices for backward.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(int64_t kernel = 2, int64_t stride = 0 /*=kernel*/);

  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;
  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::string kind() const override { return "MaxPool2d"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override;

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_, stride_;
  std::vector<int64_t> argmax_;  ///< flat input index per output element
  Shape cached_in_shape_;
};

/// Global average pooling: [N,C,H,W] -> [N,C,1,1].
class GlobalAvgPool2d : public Layer {
 public:
  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;
  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::string kind() const override { return "GlobalAvgPool2d"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override { return in.numel(); }

 private:
  Shape cached_in_shape_;
};

}  // namespace tbnet::nn
