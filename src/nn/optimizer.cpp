#include "nn/optimizer.h"

#include <cmath>

namespace tbnet::nn {

void SGD::step(const std::vector<ParamRef>& params) {
  for (const ParamRef& p : params) {
    Tensor& w = *p.value;
    const Tensor& g = *p.grad;
    Tensor& v = velocity_[p.value];
    if (v.shape() != w.shape()) v = Tensor(w.shape());  // (re)init to zero
    const float wd =
        p.apply_weight_decay ? static_cast<float>(weight_decay_) : 0.0f;
    const float lr = static_cast<float>(lr_);
    const float mu = static_cast<float>(momentum_);
    for (int64_t i = 0; i < w.numel(); ++i) {
      const float grad = g[i] + wd * w[i];
      v[i] = mu * v[i] - lr * grad;
      w[i] += v[i];
    }
  }
}

double StepLR::lr_at(int epoch) const {
  const int drops = (step_size_ > 0) ? epoch / step_size_ : 0;
  return base_lr_ * std::pow(gamma_, drops);
}

}  // namespace tbnet::nn
