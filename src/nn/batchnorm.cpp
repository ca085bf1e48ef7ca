#include "nn/batchnorm.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/threadpool.h"

namespace tbnet::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : BatchNorm2d(Tensor::ones(Shape{channels}), Tensor(Shape{channels}),
                  Tensor(Shape{channels}), Tensor::ones(Shape{channels}), eps,
                  momentum) {}

BatchNorm2d::BatchNorm2d(Tensor gamma, Tensor beta, Tensor running_mean,
                         Tensor running_var, float eps, float momentum)
    : channels_(0),
      eps_(eps),
      momentum_(momentum),
      gamma_(std::move(gamma)),
      beta_(std::move(beta)),
      running_mean_(std::move(running_mean)),
      running_var_(std::move(running_var)) {
  const Shape& s = gamma_.shape();
  if (s.ndim() != 1 || s.dim(0) <= 0 || beta_.shape() != s ||
      running_mean_.shape() != s || running_var_.shape() != s) {
    throw std::invalid_argument(
        "BatchNorm2d: gamma, beta, running mean and running variance must "
        "each be [channels] with channels > 0");
  }
  channels_ = s.dim(0);
  gamma_grad_ = Tensor(s);
  beta_grad_ = Tensor(s);
}

Shape BatchNorm2d::out_shape(const Shape& in) const {
  if (in.ndim() != 4 || in.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input shape " + in.str());
  }
  return in;
}

int64_t BatchNorm2d::macs(const Shape& in) const {
  return out_shape(in).numel() * 2;  // scale + shift per element
}

int64_t BatchNorm2d::param_bytes() const {
  // gamma, beta + running mean/var all live with the model.
  return 4 * channels_ * static_cast<int64_t>(sizeof(float));
}

namespace {

/// A double sum over a channel's planes in a fixed order: element p of each
/// plane adds into lane p % kLanes, and the lanes fold in a fixed tree. The
/// lanes are independent chains, so the compiler vectorizes them, and the
/// bits depend only on the data: a channel runs on one pool thread, and
/// the order names no vector width.
class LaneSum {
 public:
  static constexpr int64_t kLanes = 8;

  /// Adds term(p) for p in [0, len).
  template <typename Term>
  void add(int64_t len, Term term) {
    int64_t p = 0;
    for (; p + kLanes <= len; p += kLanes) {
      for (int64_t l = 0; l < kLanes; ++l) lane_[l] += term(p + l);
    }
    for (int64_t l = 0; p < len; ++p, ++l) lane_[l] += term(p);
  }

  double total() const {
    static_assert(kLanes == 8, "the fold below names eight lanes");
    return ((lane_[0] + lane_[4]) + (lane_[2] + lane_[6])) +
           ((lane_[1] + lane_[5]) + (lane_[3] + lane_[7]));
  }

 private:
  double lane_[kLanes] = {};
};

}  // namespace

Tensor BatchNorm2d::forward(ExecutionContext& ctx, const Tensor& input,
                            bool train) {
  out_shape(input.shape());  // validates
  const int64_t n = input.dim(0), c = channels_, h = input.dim(2),
                w = input.dim(3);
  const int64_t spatial = h * w;
  const int64_t per_channel = n * spatial;
  Tensor out(input.shape());

  if (train) {
    // Every element of the cache is rewritten below, so a same-shape cache
    // keeps its storage.
    if (cached_xhat_.shape() != input.shape()) {
      cached_xhat_ = Tensor(input.shape());
    }
    cached_inv_std_.assign(static_cast<size_t>(c), 0.0f);
    // Channels are independent: shard them on the context pool. Each
    // channel's reductions run whole on one thread in LaneSum's fixed
    // order, so the bits do not depend on the pool size.
    ctx.parallel_for(c, [&](int64_t c0, int64_t c1) {
      for (int64_t ch = c0; ch < c1; ++ch) {
        LaneSum sum;
        for (int64_t i = 0; i < n; ++i) {
          const float* src = input.data() + (i * c + ch) * spatial;
          sum.add(spatial, [src](int64_t p) { return double{src[p]}; });
        }
        const double mean = sum.total() / static_cast<double>(per_channel);
        LaneSum sq;
        for (int64_t i = 0; i < n; ++i) {
          const float* src = input.data() + (i * c + ch) * spatial;
          sq.add(spatial, [src, mean](int64_t p) {
            const double d = src[p] - mean;
            return d * d;
          });
        }
        const double var = sq.total() / static_cast<double>(per_channel);

        const float inv_std =
            1.0f / std::sqrt(static_cast<float>(var) + eps_);
        cached_inv_std_[static_cast<size_t>(ch)] = inv_std;
        const float g = gamma_[ch], b = beta_[ch];
        const float mean_f = static_cast<float>(mean);
        for (int64_t i = 0; i < n; ++i) {
          const float* src = input.data() + (i * c + ch) * spatial;
          float* xh = cached_xhat_.data() + (i * c + ch) * spatial;
          float* dst = out.data() + (i * c + ch) * spatial;
          for (int64_t p = 0; p < spatial; ++p) {
            xh[p] = (src[p] - mean_f) * inv_std;
            dst[p] = g * xh[p] + b;
          }
        }
        // Exponential running stats (biased variance, matching the norm).
        running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                            momentum_ * mean_f;
        running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                           momentum_ * static_cast<float>(var);
      }
    });
  } else {
    // Eval mode is the deployed hot path: channels are independent, shard
    // them on the context pool (disjoint writes; per-element math unchanged).
    ctx.parallel_for(c, [&](int64_t c0, int64_t c1) {
      for (int64_t ch = c0; ch < c1; ++ch) {
        const float inv_std = 1.0f / std::sqrt(running_var_[ch] + eps_);
        const float g = gamma_[ch], b = beta_[ch], m = running_mean_[ch];
        for (int64_t i = 0; i < n; ++i) {
          const float* src = input.data() + (i * c + ch) * spatial;
          float* dst = out.data() + (i * c + ch) * spatial;
          for (int64_t p = 0; p < spatial; ++p) {
            dst[p] = g * (src[p] - m) * inv_std + b;
          }
        }
      }
    });
  }
  return out;
}

Tensor BatchNorm2d::backward(ExecutionContext& ctx,
                             const Tensor& grad_output) {
  if (cached_xhat_.empty()) {
    throw std::logic_error("BatchNorm2d::backward before forward(train)");
  }
  if (grad_output.shape() != cached_xhat_.shape()) {
    throw std::invalid_argument("BatchNorm2d::backward: grad shape mismatch");
  }
  const int64_t n = grad_output.dim(0), c = channels_, h = grad_output.dim(2),
                w = grad_output.dim(3);
  const int64_t spatial = h * w;
  const int64_t per_channel = n * spatial;
  Tensor grad_input(grad_output.shape());

  // Sharded by channel like forward, with the same fixed LaneSum order.
  ctx.parallel_for(c, [&](int64_t c0, int64_t c1) {
    for (int64_t ch = c0; ch < c1; ++ch) {
      // Accumulate dgamma = sum(dy * xhat), dbeta = sum(dy), plus the two
      // batch means needed for dx.
      LaneSum sum_dy, sum_dy_xhat;
      for (int64_t i = 0; i < n; ++i) {
        const float* dy = grad_output.data() + (i * c + ch) * spatial;
        const float* xh = cached_xhat_.data() + (i * c + ch) * spatial;
        sum_dy.add(spatial, [dy](int64_t p) { return double{dy[p]}; });
        sum_dy_xhat.add(spatial, [dy, xh](int64_t p) {
          return static_cast<double>(dy[p] * xh[p]);
        });
      }
      gamma_grad_[ch] += static_cast<float>(sum_dy_xhat.total());
      beta_grad_[ch] += static_cast<float>(sum_dy.total());

      const float inv_std = cached_inv_std_[static_cast<size_t>(ch)];
      const float g = gamma_[ch];
      const float mean_dy = static_cast<float>(sum_dy.total() / per_channel);
      const float mean_dy_xhat =
          static_cast<float>(sum_dy_xhat.total() / per_channel);
      for (int64_t i = 0; i < n; ++i) {
        const float* dy = grad_output.data() + (i * c + ch) * spatial;
        const float* xh = cached_xhat_.data() + (i * c + ch) * spatial;
        float* dx = grad_input.data() + (i * c + ch) * spatial;
        for (int64_t p = 0; p < spatial; ++p) {
          dx[p] = g * inv_std * (dy[p] - mean_dy - xh[p] * mean_dy_xhat);
        }
      }
    }
  });
  return grad_input;
}

std::vector<ParamRef> BatchNorm2d::params() {
  return {
      {"gamma", &gamma_, &gamma_grad_, /*decay=*/false},
      {"beta", &beta_, &beta_grad_, /*decay=*/false},
  };
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  // Built from the layer's state: no forward cache, zero gradients.
  return std::make_unique<BatchNorm2d>(gamma_, beta_, running_mean_,
                                       running_var_, eps_, momentum_);
}

void BatchNorm2d::inference_scale_shift(float* scale, float* shift) const {
  for (int64_t c = 0; c < channels_; ++c) {
    const float s = gamma_[c] / std::sqrt(running_var_[c] + eps_);
    scale[c] = s;
    shift[c] = beta_[c] - running_mean_[c] * s;
  }
}

void BatchNorm2d::select_channels(const std::vector<int64_t>& keep) {
  if (keep.empty()) {
    throw std::invalid_argument("BatchNorm2d: cannot prune all channels");
  }
  const int64_t k = static_cast<int64_t>(keep.size());
  Tensor g(Shape{k}), b(Shape{k}), rm(Shape{k}), rv(Shape{k});
  for (int64_t i = 0; i < k; ++i) {
    const int64_t src = keep[static_cast<size_t>(i)];
    if (src < 0 || src >= channels_) {
      throw std::out_of_range("BatchNorm2d::select_channels: index out of range");
    }
    g[i] = gamma_[src];
    b[i] = beta_[src];
    rm[i] = running_mean_[src];
    rv[i] = running_var_[src];
  }
  gamma_ = std::move(g);
  beta_ = std::move(b);
  running_mean_ = std::move(rm);
  running_var_ = std::move(rv);
  gamma_grad_ = Tensor(Shape{k});
  beta_grad_ = Tensor(Shape{k});
  channels_ = k;
  cached_xhat_ = Tensor();
  cached_inv_std_.clear();
}

}  // namespace tbnet::nn
