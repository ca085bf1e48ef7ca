#pragma once
// Weight initialization schemes.

#include <cstdint>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace tbnet::nn {

/// He/Kaiming normal init: N(0, sqrt(2/fan_in)); the standard for
/// ReLU networks (victim models and the fresh secure branch both use it).
void kaiming_normal(Tensor& w, int64_t fan_in, Rng& rng);

/// A new tensor of `shape`, filled as above. The layers' seeded
/// constructors draw their weights with it and hand them to the
/// constructors that take weights.
Tensor kaiming_normal(const Shape& shape, int64_t fan_in, Rng& rng);

}  // namespace tbnet::nn
