#include "nn/residual.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "nn/activations.h"
#include "nn/sequential.h"

namespace tbnet::nn {

namespace {

/// A fresh block's members. Each draw is its own statement, so the weights
/// come from `rng` in a fixed order: conv1, conv2, down_conv.
ResidualBlock::Members fresh_members(int64_t in_c, int64_t out_c,
                                     int64_t stride, Rng& rng,
                                     int64_t internal_c) {
  if (internal_c == 0) internal_c = out_c;
  Conv2d::Options c1{.kernel = 3, .stride = stride, .pad = 1, .bias = false};
  Conv2d::Options c2{.kernel = 3, .stride = 1, .pad = 1, .bias = false};
  ResidualBlock::Members m;
  m.conv1 = std::make_unique<Conv2d>(in_c, internal_c, c1, rng);
  m.bn1 = std::make_unique<BatchNorm2d>(internal_c);
  m.conv2 = std::make_unique<Conv2d>(internal_c, out_c, c2, rng);
  m.bn2 = std::make_unique<BatchNorm2d>(out_c);
  if (stride != 1 || in_c != out_c) {
    Conv2d::Options cd{.kernel = 1, .stride = stride, .pad = 0, .bias = false};
    m.down_conv = std::make_unique<Conv2d>(in_c, out_c, cd, rng);
    m.down_bn = std::make_unique<BatchNorm2d>(out_c);
  }
  return m;
}

/// Whether `conv` has the window and (absent) bias the member rule asks of
/// its place in the block.
bool has_window(const Conv2d& conv, int64_t kernel, int64_t stride,
                int64_t pad) {
  const Conv2d::Options& o = conv.options();
  return o.kernel == kernel && o.stride == stride && o.pad == pad && !o.bias;
}

template <typename L>
std::unique_ptr<L> clone_of(const L& layer) {
  return std::unique_ptr<L>(static_cast<L*>(layer.clone().release()));
}

}  // namespace

ResidualBlock::ResidualBlock(int64_t in_c, int64_t out_c, int64_t stride,
                             Rng& rng, int64_t internal_c)
    : ResidualBlock(fresh_members(in_c, out_c, stride, rng, internal_c)) {}

ResidualBlock::ResidualBlock(Members members)
    : conv1_(std::move(members.conv1)),
      bn1_(std::move(members.bn1)),
      conv2_(std::move(members.conv2)),
      bn2_(std::move(members.bn2)),
      down_conv_(std::move(members.down_conv)),
      down_bn_(std::move(members.down_bn)) {
  const auto malformed = [](const char* why) {
    throw std::runtime_error(std::string("ResidualBlock: ") + why);
  };
  if (!conv1_ || !bn1_ || !conv2_ || !bn2_) {
    malformed("a main-branch member is missing");
  }
  const int64_t s = stride();
  if (s < 1 || !has_window(*conv1_, 3, s, 1) || !has_window(*conv2_, 3, 1, 1)) {
    malformed("conv1 must be 3x3 at the block's stride and conv2 3x3 at "
              "stride 1, both pad 1 without a bias");
  }
  if (bn1_->channels() != internal_channels() ||
      conv2_->in_channels() != internal_channels() ||
      bn2_->channels() != out_channels()) {
    malformed("member widths do not chain");
  }
  const bool needs_down = s != 1 || in_channels() != out_channels();
  if (needs_down != (down_conv_ != nullptr) ||
      needs_down != (down_bn_ != nullptr)) {
    malformed("a downsample must be present exactly when the stride or the "
              "width changes");
  }
  if (down_conv_ && (!has_window(*down_conv_, 1, s, 0) ||
                     down_conv_->in_channels() != in_channels() ||
                     down_conv_->out_channels() != out_channels() ||
                     down_bn_->channels() != out_channels())) {
    malformed("the downsample must be a 1x1 in_c -> out_c conv at the "
              "block's stride, pad 0, without a bias");
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
  const auto mid_c = static_cast<size_t>(internal_channels());
  const auto out_c = static_cast<size_t>(out_channels());
  fused_s1_.resize(mid_c);
  fused_t1_.resize(mid_c);
  bn1_->inference_scale_shift(fused_s1_.data(), fused_t1_.data());
  fused_s2_.resize(out_c);
  fused_t2_.resize(out_c);
  bn2_->inference_scale_shift(fused_s2_.data(), fused_t2_.data());
  if (down_conv_) {
    fused_sd_.resize(out_c);
    fused_td_.resize(out_c);
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
  Tensor mid = bn1_->forward(ctx, conv1_->forward(ctx, input, train), train);
  if (train) relu1_mask_.resize(static_cast<size_t>(mid.numel()));
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
  // Clones of the members, so no forward cache is copied and the clone is
  // un-prepared (fresh packed caches) by construction.
  Members m;
  m.conv1 = clone_of(*conv1_);
  m.bn1 = clone_of(*bn1_);
  m.conv2 = clone_of(*conv2_);
  m.bn2 = clone_of(*bn2_);
  if (down_conv_) {
    m.down_conv = clone_of(*down_conv_);
    m.down_bn = clone_of(*down_bn_);
  }
  return std::make_unique<ResidualBlock>(std::move(m));
}

void ResidualBlock::prune_internal(const std::vector<int64_t>& keep) {
  conv1_->select_out_channels(keep);
  bn1_->select_channels(keep);
  conv2_->select_in_channels(keep);
}

Sequential plain_main_branch(const ResidualBlock& block) {
  Sequential seq;
  seq.add(block.conv1().clone()).add(block.bn1().clone()).emplace<ReLU>();
  seq.add(block.conv2().clone()).add(block.bn2().clone()).emplace<ReLU>();
  return seq;
}

}  // namespace tbnet::nn
