#include "nn/init.h"

#include <cmath>
#include <stdexcept>

namespace tbnet::nn {

void kaiming_normal(Tensor& w, int64_t fan_in, Rng& rng) {
  if (fan_in <= 0) throw std::invalid_argument("kaiming_normal: fan_in <= 0");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (int64_t i = 0; i < w.numel(); ++i) {
    w[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

Tensor kaiming_normal(const Shape& shape, int64_t fan_in, Rng& rng) {
  if (fan_in <= 0) throw std::invalid_argument("kaiming_normal: fan_in <= 0");
  Tensor w(shape);
  kaiming_normal(w, fan_in, rng);
  return w;
}

}  // namespace tbnet::nn
