#include "nn/residual.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/sequential.h"

namespace tbnet::nn {

ResidualBlock::ResidualBlock(int64_t in_c, int64_t out_c, int64_t stride,
                             Rng& rng, int64_t internal_c)
    : in_c_(in_c), out_c_(out_c), stride_(stride) {
  if (internal_c == 0) internal_c = out_c;
  Conv2d::Options c1{.kernel = 3, .stride = stride, .pad = 1, .bias = false};
  Conv2d::Options c2{.kernel = 3, .stride = 1, .pad = 1, .bias = false};
  conv1_ = std::make_unique<Conv2d>(in_c, internal_c, c1, rng);
  bn1_ = std::make_unique<BatchNorm2d>(internal_c);
  conv2_ = std::make_unique<Conv2d>(internal_c, out_c, c2, rng);
  bn2_ = std::make_unique<BatchNorm2d>(out_c);
  if (stride != 1 || in_c != out_c) {
    Conv2d::Options cd{.kernel = 1, .stride = stride, .pad = 0, .bias = false};
    down_conv_ = std::make_unique<Conv2d>(in_c, out_c, cd, rng);
    down_bn_ = std::make_unique<BatchNorm2d>(out_c);
  }
}

Shape ResidualBlock::out_shape(const Shape& in) const {
  return bn2_->out_shape(conv2_->out_shape(bn1_->out_shape(conv1_->out_shape(in))));
}

int64_t ResidualBlock::macs(const Shape& in) const {
  const Shape mid = conv1_->out_shape(in);
  int64_t total = conv1_->macs(in) + bn1_->macs(mid) + mid.numel() +
                  conv2_->macs(mid) + bn2_->macs(out_shape(in)) +
                  out_shape(in).numel() * 2;  // add + final ReLU
  if (down_conv_) {
    total += down_conv_->macs(in) + down_bn_->macs(out_shape(in));
  }
  return total;
}

int64_t ResidualBlock::param_bytes() const {
  int64_t total = conv1_->param_bytes() + bn1_->param_bytes() +
                  conv2_->param_bytes() + bn2_->param_bytes();
  if (down_conv_) total += down_conv_->param_bytes() + down_bn_->param_bytes();
  return total;
}

void ResidualBlock::prepare_inference(ExecutionContext& ctx) {
  conv1_->prepare_inference(ctx);
  conv2_->prepare_inference(ctx);
  if (down_conv_) down_conv_->prepare_inference(ctx);
  // The block is frozen once prepared, so the BN scale/shift composition is
  // hoisted here instead of being rebuilt on every fused eval call.
  const int64_t mid_c = conv1_->out_channels();
  fused_s1_.resize(static_cast<size_t>(mid_c));
  fused_t1_.resize(static_cast<size_t>(mid_c));
  bn1_->inference_scale_shift(fused_s1_.data(), fused_t1_.data());
  fused_s2_.resize(static_cast<size_t>(out_c_));
  fused_t2_.resize(static_cast<size_t>(out_c_));
  bn2_->inference_scale_shift(fused_s2_.data(), fused_t2_.data());
  if (down_conv_) {
    fused_sd_.resize(static_cast<size_t>(out_c_));
    fused_td_.resize(static_cast<size_t>(out_c_));
    down_bn_->inference_scale_shift(fused_sd_.data(), fused_td_.data());
  }
  prepared_ = true;
}

Tensor ResidualBlock::forward_fused_eval(ExecutionContext& ctx,
                                         const Tensor& input) {
  Tensor mid = conv1_->forward_fused(ctx, input, fused_s1_.data(),
                                     fused_t1_.data(), simd::Act::kReLU);
  Tensor main = conv2_->forward_fused(ctx, mid, fused_s2_.data(),
                                      fused_t2_.data(), simd::Act::kNone);

  Tensor down;
  if (down_conv_) {
    down = down_conv_->forward_fused(ctx, input, fused_sd_.data(),
                                     fused_td_.data(), simd::Act::kNone);
  }
  const Tensor& skip = down_conv_ ? down : input;
  if (skip.shape() != main.shape()) {
    throw std::logic_error("ResidualBlock: skip/main shape mismatch");
  }
  relu_forward(main.numel(), main.data(), skip.data(), nullptr);
  return main;
}

Tensor ResidualBlock::forward(ExecutionContext& ctx, const Tensor& input,
                              bool train) {
  if (!train && prepared_) {
    return forward_fused_eval(ctx, input);
  }
  if (train) cached_input_ = input;
  Tensor mid = bn1_->forward(ctx, conv1_->forward(ctx, input, train), train);
  if (train) {
    relu1_mask_.resize(static_cast<size_t>(mid.numel()));
    mid_shape_ = mid.shape();
  }
  relu_forward(mid.numel(), mid.data(), nullptr,
               train ? relu1_mask_.data() : nullptr);
  Tensor main = bn2_->forward(ctx, conv2_->forward(ctx, mid, train), train);
  Tensor down;
  if (down_conv_) {
    down = down_bn_->forward(ctx, down_conv_->forward(ctx, input, train),
                             train);
  }
  const Tensor& skip = down_conv_ ? down : input;
  if (skip.shape() != main.shape()) {
    throw std::logic_error("ResidualBlock: skip/main shape mismatch");
  }
  if (train) {
    relu_out_mask_.resize(static_cast<size_t>(main.numel()));
    out_shape_cache_ = main.shape();
  }
  relu_forward(main.numel(), main.data(), skip.data(),
               train ? relu_out_mask_.data() : nullptr);
  return main;
}

Tensor ResidualBlock::backward(ExecutionContext& ctx,
                               const Tensor& grad_output) {
  if (relu_out_mask_.empty()) {
    throw std::logic_error("ResidualBlock::backward before forward(train)");
  }
  if (grad_output.shape() != out_shape_cache_) {
    throw std::invalid_argument("ResidualBlock::backward: grad shape mismatch");
  }
  // Through the output ReLU.
  Tensor g = grad_output;
  relu_backward(g.numel(), g.data(), relu_out_mask_.data());
  // Skip path.
  Tensor grad_input_skip =
      down_conv_ ? down_conv_->backward(ctx, down_bn_->backward(ctx, g)) : g;
  // Main path: bn2 <- conv2 <- relu1 <- bn1 <- conv1.
  Tensor gm = conv2_->backward(ctx, bn2_->backward(ctx, g));
  relu_backward(gm.numel(), gm.data(), relu1_mask_.data());
  Tensor grad_input = conv1_->backward(ctx, bn1_->backward(ctx, gm));
  grad_input.add_(grad_input_skip);
  return grad_input;
}

std::vector<ParamRef> ResidualBlock::params() {
  std::vector<ParamRef> all;
  auto append = [&all](const char* prefix, Layer& l) {
    for (ParamRef p : l.params()) {
      p.name = std::string(prefix) + "." + p.name;
      all.push_back(p);
    }
  };
  append("conv1", *conv1_);
  append("bn1", *bn1_);
  append("conv2", *conv2_);
  append("bn2", *bn2_);
  if (down_conv_) {
    append("down_conv", *down_conv_);
    append("down_bn", *down_bn_);
  }
  return all;
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  // Clone via the layer clones to avoid copying forward caches. The clone is
  // un-prepared (fresh packed caches) by construction.
  Rng dummy(0);
  auto copy = std::make_unique<ResidualBlock>(in_c_, out_c_, stride_, dummy);
  copy->conv1_.reset(static_cast<Conv2d*>(conv1_->clone().release()));
  copy->bn1_.reset(static_cast<BatchNorm2d*>(bn1_->clone().release()));
  copy->conv2_.reset(static_cast<Conv2d*>(conv2_->clone().release()));
  copy->bn2_.reset(static_cast<BatchNorm2d*>(bn2_->clone().release()));
  if (down_conv_) {
    copy->down_conv_.reset(static_cast<Conv2d*>(down_conv_->clone().release()));
    copy->down_bn_.reset(static_cast<BatchNorm2d*>(down_bn_->clone().release()));
  }
  return copy;
}

void ResidualBlock::prune_internal(const std::vector<int64_t>& keep) {
  conv1_->select_out_channels(keep);
  bn1_->select_channels(keep);
  conv2_->select_in_channels(keep);
}

Sequential plain_block_like(const ResidualBlock& block, Rng& rng) {
  Sequential seq;
  Conv2d::Options c1{.kernel = 3, .stride = block.stride(), .pad = 1,
                     .bias = false};
  Conv2d::Options c2{.kernel = 3, .stride = 1, .pad = 1, .bias = false};
  seq.emplace<Conv2d>(block.in_channels(), block.internal_channels(), c1, rng);
  seq.emplace<BatchNorm2d>(block.internal_channels());
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(block.internal_channels(), block.out_channels(), c2, rng);
  seq.emplace<BatchNorm2d>(block.out_channels());
  seq.emplace<ReLU>();
  return seq;
}

void copy_main_branch(const ResidualBlock& src, Sequential& dst) {
  auto& block = const_cast<ResidualBlock&>(src);
  auto* c1 = dst.find_nth<Conv2d>(0);
  auto* b1 = dst.find_nth<BatchNorm2d>(0);
  auto* c2 = dst.find_nth<Conv2d>(1);
  auto* b2 = dst.find_nth<BatchNorm2d>(1);
  if (!c1 || !b1 || !c2 || !b2) {
    throw std::invalid_argument("copy_main_branch: dst is not a plain block");
  }
  c1->weight() = block.conv1().weight();
  b1->gamma() = block.bn1().gamma();
  b1->beta() = block.bn1().beta();
  b1->running_mean() = block.bn1().running_mean();
  b1->running_var() = block.bn1().running_var();
  c2->weight() = block.conv2().weight();
  b2->gamma() = block.bn2().gamma();
  b2->beta() = block.bn2().beta();
  b2->running_mean() = block.bn2().running_mean();
  b2->running_var() = block.bn2().running_var();
}

}  // namespace tbnet::nn
