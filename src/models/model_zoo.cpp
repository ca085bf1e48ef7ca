#include "models/model_zoo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/pool.h"
#include "nn/residual.h"

namespace tbnet::models {
namespace {

using core::PrunePoint;
using core::TwoBranchModel;
using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Dense;
using nn::Flatten;
using nn::GlobalAvgPool2d;
using nn::MaxPool2d;
using nn::ReLU;
using nn::ResidualBlock;
using nn::Sequential;

constexpr int64_t kPool = -1;  // marker in VGG channel plans

int64_t scaled(int64_t channels, double mult) {
  return std::max<int64_t>(8, static_cast<int64_t>(std::llround(
                                  static_cast<double>(channels) * mult)));
}

/// VGG channel plan: positive = conv output channels, kPool = 2x2 max pool
/// after the previous conv stage.
std::vector<int64_t> vgg_plan(int depth) {
  switch (depth) {
    case 11:
      return {64, kPool, 128, kPool, 256, 256, kPool, 512, 512, kPool, 512,
              512, kPool};
    case 13:
      return {64, 64, kPool, 128, 128, kPool, 256, 256, kPool, 512, 512,
              kPool, 512, 512, kPool};
    case 16:
      return {64, 64, kPool, 128, 128, kPool, 256, 256, 256, kPool, 512, 512,
              512, kPool, 512, 512, 512, kPool};
    case 18:  // 16 conv + 2 dense = 18 weighted layers (the paper's "VGG18")
      return {64, 64, kPool, 128, 128, kPool, 256, 256, 256, 256, kPool, 512,
              512, 512, 512, kPool, 512, 512, 512, 512, kPool};
    default:
      throw std::invalid_argument("vgg_plan: unsupported depth " +
                                  std::to_string(depth));
  }
}

struct ResNetPlan {
  int blocks_per_group = 3;
  std::vector<int64_t> widths = {16, 32, 64};
};

ResNetPlan resnet_plan(int depth) {
  if (depth < 8 || (depth - 2) % 6 != 0) {
    throw std::invalid_argument("resnet_plan: depth must be 6n+2, got " +
                                std::to_string(depth));
  }
  ResNetPlan plan;
  plan.blocks_per_group = (depth - 2) / 6;
  return plan;
}

/// One VGG fusion-stage block: Conv-BN-ReLU(-MaxPool).
Sequential vgg_stage(int64_t in_c, int64_t out_c, bool pool, Rng& rng) {
  Sequential s;
  Conv2d::Options opt{.kernel = 3, .stride = 1, .pad = 1, .bias = false};
  s.emplace<Conv2d>(in_c, out_c, opt, rng);
  s.emplace<BatchNorm2d>(out_c);
  s.emplace<ReLU>();
  if (pool) s.emplace<MaxPool2d>(2, 2);
  return s;
}

/// Classifier head stage. `hidden` > 0 adds a Dense-ReLU bottleneck
/// (used by "VGG18" for its second dense layer).
Sequential head_stage(int64_t in_c, int64_t hidden, int64_t classes,
                      Rng& rng) {
  Sequential s;
  s.emplace<GlobalAvgPool2d>();
  s.emplace<Flatten>();
  if (hidden > 0) {
    s.emplace<Dense>(in_c, hidden, rng);
    s.emplace<ReLU>();
    s.emplace<Dense>(hidden, classes, rng);
  } else {
    s.emplace<Dense>(in_c, classes, rng);
  }
  return s;
}

Sequential resnet_stem(int64_t in_c, int64_t out_c, Rng& rng) {
  Sequential s;
  Conv2d::Options opt{.kernel = 3, .stride = 1, .pad = 1, .bias = false};
  s.emplace<Conv2d>(in_c, out_c, opt, rng);
  s.emplace<BatchNorm2d>(out_c);
  s.emplace<ReLU>();
  return s;
}

/// Builds the list of fusion-stage blocks for a config (shared by victim and
/// secure-branch construction; only the RNG differs).
std::vector<std::unique_ptr<nn::Layer>> build_stages(const ModelConfig& cfg,
                                                     Rng& rng) {
  std::vector<std::unique_ptr<nn::Layer>> stages;
  if (cfg.family == Family::kVgg) {
    const auto plan = vgg_plan(cfg.depth);
    int64_t in_c = cfg.in_channels;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i] == kPool) continue;
      const int64_t out_c = scaled(plan[i], cfg.width_mult);
      const bool pool = (i + 1 < plan.size() && plan[i + 1] == kPool);
      stages.push_back(
          std::make_unique<Sequential>(vgg_stage(in_c, out_c, pool, rng)));
      in_c = out_c;
    }
    const int64_t hidden = (cfg.depth == 18) ? scaled(512, cfg.width_mult) : 0;
    stages.push_back(std::make_unique<Sequential>(
        head_stage(in_c, hidden, cfg.classes, rng)));
  } else {
    const ResNetPlan plan = resnet_plan(cfg.depth);
    const int64_t w0 = scaled(plan.widths[0], cfg.width_mult);
    stages.push_back(std::make_unique<Sequential>(
        resnet_stem(cfg.in_channels, w0, rng)));
    int64_t in_c = w0;
    for (size_t g = 0; g < plan.widths.size(); ++g) {
      const int64_t out_c = scaled(plan.widths[g], cfg.width_mult);
      for (int b = 0; b < plan.blocks_per_group; ++b) {
        const int64_t stride = (g > 0 && b == 0) ? 2 : 1;
        stages.push_back(
            std::make_unique<ResidualBlock>(in_c, out_c, stride, rng));
        in_c = out_c;
      }
    }
    stages.push_back(std::make_unique<Sequential>(
        head_stage(in_c, /*hidden=*/0, cfg.classes, rng)));
  }
  return stages;
}

}  // namespace

std::string ModelConfig::name() const {
  const char* prefix = "VGG";
  if (family == Family::kResNet) prefix = "ResNet";
  std::string base = prefix + std::to_string(depth);
  if (width_mult != 1.0) {
    base += " (w=" + std::to_string(width_mult).substr(0, 4) + ")";
  }
  return base;
}

int num_stages(const ModelConfig& cfg) {
  if (cfg.family == Family::kVgg) {
    const auto plan = vgg_plan(cfg.depth);
    int convs = 0;
    for (int64_t p : plan) convs += (p != kPool);
    return convs + 1;
  }
  const ResNetPlan plan = resnet_plan(cfg.depth);
  return 1 + plan.blocks_per_group * static_cast<int>(plan.widths.size()) + 1;
}

nn::Sequential build_victim(const ModelConfig& cfg) {
  Rng rng(cfg.seed);
  nn::Sequential victim;
  for (auto& stage : build_stages(cfg, rng)) victim.add(std::move(stage));
  return victim;
}

core::TwoBranchModel build_two_branch(const nn::Sequential& victim,
                                      const ModelConfig& cfg) {
  if (victim.size() != num_stages(cfg)) {
    throw std::invalid_argument(
        "build_two_branch: victim does not match config (" +
        std::to_string(victim.size()) + " stages, expected " +
        std::to_string(num_stages(cfg)) + ")");
  }
  // Secure branch: same architecture, fresh weights (different seed stream).
  Rng rng_t(cfg.seed ^ 0x7EE5EC0DEull);
  auto secure_stages = build_stages(cfg, rng_t);

  TwoBranchModel model;
  for (int i = 0; i < victim.size(); ++i) {
    const nn::Layer& v = victim.layer(i);
    std::unique_ptr<nn::Layer> exposed;
    if (const auto* block = dynamic_cast<const ResidualBlock*>(&v)) {
      // Paper §4: for ResNet, M_R is initialized from the main branch,
      // excluding the skip connections.
      exposed = std::make_unique<Sequential>(nn::plain_main_branch(*block));
    } else {
      exposed = v.clone();  // weights included
    }
    model.add_stage(std::move(exposed),
                    std::move(secure_stages[static_cast<size_t>(i)]));
  }
  // The classifier head is not fused: the TBNet output is derived from M_T
  // (paper §3.3), and M_R's head keeps the victim's weights untouched.
  model.stage(model.num_stages() - 1).fused = false;
  return model;
}

std::vector<core::PrunePoint> prune_points(const ModelConfig& cfg) {
  std::vector<PrunePoint> points;
  const int stages = num_stages(cfg);
  if (cfg.family == Family::kVgg) {
    // Every conv stage's output channels form a prunable fusion interface.
    for (int i = 0; i + 1 < stages; ++i) {
      points.push_back({PrunePoint::Kind::kInterface, i});
    }
  } else {
    // Residual blocks: prune block-internal channels only; the skip path
    // pins the interface widths. Stage 0 is the stem, last is the head.
    for (int i = 1; i + 1 < stages; ++i) {
      points.push_back({PrunePoint::Kind::kInternal, i});
    }
  }
  return points;
}

}  // namespace tbnet::models
