#include "core/two_branch.h"

#include <stdexcept>

#include "nn/fuse.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace tbnet::core {
namespace {

/// Splits a rank-2/4 activation shape into [N, C, inner].
void nchw_view(const Shape& s, int64_t* n, int64_t* c, int64_t* inner) {
  if (s.ndim() == 4) {
    *n = s.dim(0);
    *c = s.dim(1);
    *inner = s.dim(2) * s.dim(3);
  } else if (s.ndim() == 2) {
    *n = s.dim(0);
    *c = s.dim(1);
    *inner = 1;
  } else {
    throw std::invalid_argument("gather/scatter: expected rank-2 or 4, got " +
                                s.str());
  }
}

}  // namespace

Tensor gather_channels(const Tensor& in, const std::vector<int64_t>& map) {
  if (map.empty()) return in;
  int64_t n = 0, c = 0, inner = 0;
  nchw_view(in.shape(), &n, &c, &inner);
  std::vector<int64_t> dims = in.shape().dims();
  dims[1] = static_cast<int64_t>(map.size());
  Tensor out{Shape(dims)};
  const int64_t kc = static_cast<int64_t>(map.size());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < kc; ++j) {
      const int64_t src_c = map[static_cast<size_t>(j)];
      if (src_c < 0 || src_c >= c) {
        throw std::out_of_range("gather_channels: map index out of range");
      }
      const float* src = in.data() + (i * c + src_c) * inner;
      float* dst = out.data() + (i * kc + j) * inner;
      for (int64_t p = 0; p < inner; ++p) dst[p] = src[p];
    }
  }
  return out;
}

Tensor scatter_channels(const Tensor& grad, const std::vector<int64_t>& map,
                        const Shape& full_shape) {
  if (map.empty()) {
    if (grad.shape() != full_shape) {
      throw std::invalid_argument("scatter_channels: identity shape mismatch");
    }
    return grad;
  }
  int64_t n = 0, c = 0, inner = 0;
  nchw_view(full_shape, &n, &c, &inner);
  const int64_t kc = static_cast<int64_t>(map.size());
  Tensor out(full_shape);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < kc; ++j) {
      const int64_t dst_c = map[static_cast<size_t>(j)];
      const float* src = grad.data() + (i * kc + j) * inner;
      float* dst = out.data() + (i * c + dst_c) * inner;
      for (int64_t p = 0; p < inner; ++p) dst[p] += src[p];
    }
  }
  return out;
}

TwoBranchModel TwoBranchModel::clone() const {
  TwoBranchModel copy;
  for (const FusionStage& s : stages_) {
    copy.stages_.push_back(FusionStage{s.exposed->clone(), s.secure->clone(),
                                       s.channel_map, s.fused});
  }
  return copy;
}

void TwoBranchModel::add_stage(std::unique_ptr<nn::Layer> exposed,
                               std::unique_ptr<nn::Layer> secure) {
  if (!exposed || !secure) {
    throw std::invalid_argument("TwoBranchModel::add_stage: null block");
  }
  stages_.push_back(
      FusionStage{std::move(exposed), std::move(secure), {}, true});
}

Tensor TwoBranchModel::forward(const Tensor& input, bool train,
                               bool train_exposed) {
  return forward(default_execution_context(), input, train, train_exposed);
}

Tensor TwoBranchModel::forward(ExecutionContext& ctx, const Tensor& input,
                               bool train, bool train_exposed) {
  if (stages_.empty()) throw std::logic_error("TwoBranchModel: no stages");
  exposed_out_shapes_.clear();
  Tensor out_r = input;
  Tensor fused = input;
  for (FusionStage& s : stages_) {
    Tensor out_t = s.secure->forward(ctx, fused, train);
    if (s.fused) {
      out_r = s.exposed->forward(ctx, out_r, train && train_exposed);
      Tensor aligned = gather_channels(out_r, s.channel_map);
      if (aligned.shape() != out_t.shape()) {
        throw std::logic_error(
            "TwoBranchModel: fusion shape mismatch (exposed " +
            aligned.shape().str() + " vs secure " + out_t.shape().str() + ")");
      }
      add(ctx, out_t, aligned, out_t);
      exposed_out_shapes_.push_back(out_r.shape());
    } else {
      // Non-fused stage (the classifier head): the exposed block is not
      // executed — the TBNet output is derived from M_T alone.
      exposed_out_shapes_.push_back(Shape());
    }
    fused = std::move(out_t);
  }
  last_mode_ = train ? ForwardMode::kFused : ForwardMode::kNone;
  last_train_exposed_ = train_exposed;
  return fused;
}

Tensor TwoBranchModel::forward_secure_only(const Tensor& input, bool train) {
  return forward_secure_only(default_execution_context(), input, train);
}

Tensor TwoBranchModel::forward_secure_only(ExecutionContext& ctx,
                                           const Tensor& input, bool train) {
  if (stages_.empty()) throw std::logic_error("TwoBranchModel: no stages");
  Tensor x = input;
  for (FusionStage& s : stages_) x = s.secure->forward(ctx, x, train);
  last_mode_ = train ? ForwardMode::kSecureOnly : ForwardMode::kNone;
  return x;
}

Tensor TwoBranchModel::forward_exposed_only(const Tensor& input) {
  return forward_exposed_only(default_execution_context(), input);
}

Tensor TwoBranchModel::forward_exposed_only(ExecutionContext& ctx,
                                            const Tensor& input) {
  if (stages_.empty()) throw std::logic_error("TwoBranchModel: no stages");
  Tensor x = input;
  for (FusionStage& s : stages_) x = s.exposed->forward(ctx, x, false);
  last_mode_ = ForwardMode::kNone;
  return x;
}

void TwoBranchModel::backward(const Tensor& grad_logits, bool freeze_exposed) {
  backward(default_execution_context(), grad_logits, freeze_exposed);
}

void TwoBranchModel::backward(ExecutionContext& ctx, const Tensor& grad_logits,
                              bool freeze_exposed) {
  const int n = num_stages();
  switch (last_mode_) {
    case ForwardMode::kFused: {
      if (!last_train_exposed_ && !freeze_exposed) {
        throw std::logic_error(
            "TwoBranchModel::backward: exposed branch ran in eval mode; "
            "call backward(grad, /*freeze_exposed=*/true)");
      }
      Tensor g_fused = grad_logits;
      Tensor g_r_carry;  // grad wrt out_R[i] from exposed block i+1
      for (int i = n - 1; i >= 0; --i) {
        FusionStage& s = stages_[static_cast<size_t>(i)];
        Tensor g_out_t = g_fused;  // fused = out_T (+ gather(out_R) if fused)
        Tensor g_fused_prev = s.secure->backward(ctx, g_out_t);
        if (!freeze_exposed) {
          if (s.fused) {
            Tensor g_out_r =
                scatter_channels(g_fused, s.channel_map,
                                 exposed_out_shapes_[static_cast<size_t>(i)]);
            if (!g_r_carry.empty()) g_out_r.add_(g_r_carry);
            g_r_carry = s.exposed->backward(ctx, g_out_r);
          } else if (!g_r_carry.empty()) {
            // Non-fused stages form a suffix (the head); nothing upstream of
            // them can have produced a carry.
            throw std::logic_error(
                "TwoBranchModel: non-fused stage below a fused one");
          }
        }
        g_fused = std::move(g_fused_prev);
      }
      break;
    }
    case ForwardMode::kSecureOnly: {
      Tensor g = grad_logits;
      for (int i = n - 1; i >= 0; --i) {
        g = stages_[static_cast<size_t>(i)].secure->backward(ctx, g);
      }
      break;
    }
    case ForwardMode::kNone:
      throw std::logic_error(
          "TwoBranchModel::backward without a training forward pass");
  }
  last_mode_ = ForwardMode::kNone;
}

namespace {

void append_params(std::vector<nn::ParamRef>& all, nn::Layer& block,
                   const std::string& prefix) {
  for (nn::ParamRef p : block.params()) {
    p.name = prefix + "." + p.name;
    all.push_back(p);
  }
}

}  // namespace

std::vector<nn::ParamRef> TwoBranchModel::params() {
  std::vector<nn::ParamRef> all = params_exposed();
  std::vector<nn::ParamRef> sec = params_secure();
  all.insert(all.end(), sec.begin(), sec.end());
  return all;
}

std::vector<nn::ParamRef> TwoBranchModel::params_secure() {
  std::vector<nn::ParamRef> all;
  for (size_t i = 0; i < stages_.size(); ++i) {
    append_params(all, *stages_[i].secure, "stage" + std::to_string(i) + ".T");
  }
  return all;
}

std::vector<nn::ParamRef> TwoBranchModel::params_exposed() {
  std::vector<nn::ParamRef> all;
  for (size_t i = 0; i < stages_.size(); ++i) {
    append_params(all, *stages_[i].exposed, "stage" + std::to_string(i) + ".R");
  }
  return all;
}

void TwoBranchModel::zero_grad() {
  for (FusionStage& s : stages_) {
    s.exposed->zero_grad();
    s.secure->zero_grad();
  }
}

int64_t TwoBranchModel::secure_param_bytes() const {
  int64_t total = 0;
  for (const FusionStage& s : stages_) total += s.secure->param_bytes();
  return total;
}

int64_t TwoBranchModel::exposed_param_bytes() const {
  int64_t total = 0;
  for (const FusionStage& s : stages_) total += s.exposed->param_bytes();
  return total;
}

namespace {
// A two-branch stream leads with an impossible stage count as a sentinel,
// then the nn/serialize.h model-format version, which must be current.
constexpr int64_t kTwoBranchVersionSentinel = -2;
}  // namespace

void save_two_branch(std::vector<uint8_t>& out, const TwoBranchModel& model) {
  put_i64(out, kTwoBranchVersionSentinel);
  put_i64(out, nn::kModelFormatVersion);
  put_i64(out, model.num_stages());
  for (int i = 0; i < model.num_stages(); ++i) {
    const FusionStage& s = model.stage(i);
    put_i64s(out, s.channel_map);
    put_i64(out, s.fused ? 1 : 0);
    nn::save_layer(out, *s.exposed);
    nn::save_layer(out, *s.secure);
  }
}

TwoBranchModel load_two_branch(ByteReader& r) {
  const int64_t sentinel = r.i64("two-branch sentinel");
  if (sentinel != kTwoBranchVersionSentinel ||
      r.i64("two-branch version") != nn::kModelFormatVersion) {
    throw std::runtime_error(
        "load_two_branch: unsupported stream (format v4 only)");
  }
  const int64_t stages = r.i64("stage count");
  if (stages <= 0 || stages > 4096) {
    throw std::runtime_error("load_two_branch: corrupt stage count");
  }
  TwoBranchModel model;
  for (int64_t i = 0; i < stages; ++i) {
    std::vector<int64_t> map = r.i64s("channel map");
    const bool fused = r.i64("fused flag") != 0;
    auto exposed = nn::load_layer(r);
    auto secure = nn::load_layer(r);
    model.add_stage(std::move(exposed), std::move(secure));
    model.stage(static_cast<int>(i)).channel_map = std::move(map);
    model.stage(static_cast<int>(i)).fused = fused;
  }
  return model;
}

int64_t TwoBranchModel::secure_bn_channels() {
  int64_t total = 0;
  for (nn::ParamRef& p : params_secure()) {
    const std::string& n = p.name;
    if (n.size() >= 5 && n.compare(n.size() - 5, 5, "gamma") == 0) {
      total += p.value->numel();
    }
  }
  return total;
}

int TwoBranchModel::fold_batchnorm() {
  int folds = 0;
  for (FusionStage& stage : stages_) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(stage.exposed.get())) {
      folds += nn::fold_batchnorm_inference(*seq);
    }
    if (auto* seq = dynamic_cast<nn::Sequential*>(stage.secure.get())) {
      folds += nn::fold_batchnorm_inference(*seq);
    }
  }
  return folds;
}

}  // namespace tbnet::core
