#include "nn/pool.h"

#include <limits>
#include <stdexcept>

namespace tbnet::nn {

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel_ <= 0 || stride_ <= 0) {
    throw std::invalid_argument("MaxPool2d: kernel/stride must be positive");
  }
}

Shape MaxPool2d::out_shape(const Shape& in) const {
  if (in.ndim() != 4) {
    throw std::invalid_argument("MaxPool2d: expected NCHW, got " + in.str());
  }
  if (in.dim(2) < kernel_ || in.dim(3) < kernel_) {
    throw std::invalid_argument("MaxPool2d: window larger than input");
  }
  const int64_t oh = (in.dim(2) - kernel_) / stride_ + 1;
  const int64_t ow = (in.dim(3) - kernel_) / stride_ + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("MaxPool2d: window larger than input");
  }
  return Shape{in.dim(0), in.dim(1), oh, ow};
}

int64_t MaxPool2d::macs(const Shape& in) const {
  return out_shape(in).numel() * kernel_ * kernel_;
}

Tensor MaxPool2d::forward(ExecutionContext&, const Tensor& input, bool train) {
  const Shape os = out_shape(input.shape());
  const int64_t n = input.dim(0), c = input.dim(1), ih = input.dim(2),
                iw = input.dim(3);
  const int64_t oh = os.dim(2), ow = os.dim(3);
  Tensor out(os);
  if (train) {
    argmax_.assign(static_cast<size_t>(out.numel()), 0);
    cached_in_shape_ = input.shape();
  }
  int64_t oi = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (i * c + ch) * ih * iw;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t ky = 0; ky < kernel_; ++ky) {
            const int64_t iy = oy * stride_ + ky;
            for (int64_t kx = 0; kx < kernel_; ++kx) {
              const int64_t ix = ox * stride_ + kx;
              const int64_t idx = iy * iw + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = (i * c + ch) * ih * iw + idx;
              }
            }
          }
          out[oi] = best;
          if (train) argmax_[static_cast<size_t>(oi)] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(ExecutionContext&, const Tensor& grad_output) {
  if (argmax_.empty()) {
    throw std::logic_error("MaxPool2d::backward before forward(train)");
  }
  if (static_cast<size_t>(grad_output.numel()) != argmax_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: grad shape mismatch");
  }
  Tensor grad_input(cached_in_shape_);
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[static_cast<size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(kernel_, stride_);
}

Shape GlobalAvgPool2d::out_shape(const Shape& in) const {
  if (in.ndim() != 4) {
    throw std::invalid_argument("GlobalAvgPool2d: expected NCHW, got " + in.str());
  }
  return Shape{in.dim(0), in.dim(1), 1, 1};
}

Tensor GlobalAvgPool2d::forward(ExecutionContext&, const Tensor& input, bool train) {
  const int64_t n = input.dim(0), c = input.dim(1);
  const int64_t spatial = input.dim(2) * input.dim(3);
  Tensor out(out_shape(input.shape()));
  for (int64_t i = 0; i < n * c; ++i) {
    const float* src = input.data() + i * spatial;
    double acc = 0.0;
    for (int64_t p = 0; p < spatial; ++p) acc += src[p];
    out[i] = static_cast<float>(acc / static_cast<double>(spatial));
  }
  if (train) cached_in_shape_ = input.shape();
  return out;
}

Tensor GlobalAvgPool2d::backward(ExecutionContext&, const Tensor& grad_output) {
  if (cached_in_shape_.ndim() != 4) {
    throw std::logic_error("GlobalAvgPool2d::backward before forward(train)");
  }
  const int64_t n = cached_in_shape_.dim(0), c = cached_in_shape_.dim(1);
  const int64_t spatial = cached_in_shape_.dim(2) * cached_in_shape_.dim(3);
  if (grad_output.numel() != n * c) {
    throw std::invalid_argument("GlobalAvgPool2d::backward: grad mismatch");
  }
  Tensor grad_input(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(spatial);
  for (int64_t i = 0; i < n * c; ++i) {
    const float g = grad_output[i] * inv;
    float* dst = grad_input.data() + i * spatial;
    for (int64_t p = 0; p < spatial; ++p) dst[p] = g;
  }
  return grad_input;
}

std::unique_ptr<Layer> GlobalAvgPool2d::clone() const {
  return std::make_unique<GlobalAvgPool2d>();
}

}  // namespace tbnet::nn
