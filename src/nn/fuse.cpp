#include "nn/fuse.h"

#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"

namespace tbnet::nn {

int fold_batchnorm_inference(Sequential& seq) {
  int folds = 0;
  for (int i = 0; i < seq.size(); ++i) {
    if (auto* inner = dynamic_cast<Sequential*>(&seq.layer(i))) {
      folds += fold_batchnorm_inference(*inner);
      continue;
    }
    if (i + 1 >= seq.size()) continue;
    auto* conv = dynamic_cast<Conv2d*>(&seq.layer(i));
    if (conv == nullptr) continue;
    const int64_t channels = conv->out_channels();
    auto* bn = dynamic_cast<BatchNorm2d*>(&seq.layer(i + 1));
    if (bn == nullptr || bn->channels() != channels) continue;
    std::vector<float> scale(static_cast<size_t>(channels));
    std::vector<float> shift(static_cast<size_t>(channels));
    bn->inference_scale_shift(scale.data(), shift.data());
    conv->fuse_scale_shift(scale.data(), shift.data());
    seq.remove_layer(i + 1);
    ++folds;
  }
  return folds;
}

}  // namespace tbnet::nn
