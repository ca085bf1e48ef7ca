#pragma once
// The models every workload runs: a seeded ResNet20 victim, its two-branch
// substitution, and the protection pipeline that turns it into the product
// a device serves. Also the traced views of that pipeline: its steps called
// one by one with a span around each, and a replay of the transfer step's
// training loop that times the nn and data calls inside it.

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "data/synthetic_cifar.h"
#include "harness.h"
#include "models/model_zoo.h"

namespace perfbench {

/// Seeded ResNet20 with width multiplier `width` and 10 classes.
tbnet::models::ModelConfig resnet20(double width, uint64_t seed);

/// Train/test SyntheticCifar splits drawn from `seed`.
std::pair<tbnet::data::SyntheticCifar, tbnet::data::SyntheticCifar> cifar(
    int64_t train_size, int64_t test_size, uint64_t seed);

/// Overwrites every BatchNorm scale in both branches with a draw from
/// U(0.05, 1): a stand-in for trained scales, so pruning spreads over the
/// stages instead of following channel order. The scales of each prune
/// point's pair are a fixed set in a seeded order, equal in both branches,
/// so every seed prunes the same number of channels per point.
void draw_bn_scales(tbnet::core::TwoBranchModel& model,
                    const std::vector<tbnet::core::PrunePoint>& points,
                    uint64_t seed);

/// The serving workloads' protection: no training, three 10% pruning
/// iterations that are all accepted, rollback on. M_T ends thinner than M_R.
tbnet::core::PipelineConfig serving_protection();

/// The protect_pipeline workload's configuration (training on, every
/// pruning iteration accepted so the work done never depends on accuracy).
tbnet::core::PipelineConfig owner_protection();

/// What a serving workload deploys.
struct Protected {
  tbnet::models::ModelConfig cfg;
  tbnet::nn::Sequential victim;
  tbnet::core::TwoBranchModel substitution;  ///< before protection
  tbnet::core::TwoBranchModel product;       ///< after TbnetPipeline::run
  tbnet::core::PipelineReport report;
  std::vector<tbnet::core::PrunePoint> points;
};

/// Builds victim + substitution (with drawn BN scales) and protects a copy
/// with serving_protection(). `pipeline_s` receives the wall time of every
/// TbnetPipeline::run made (`runs` of them, each on a fresh copy).
Protected build_protected(double width, uint64_t seed,
                          const tbnet::data::Dataset& train,
                          const tbnet::data::Dataset& test, int runs,
                          std::vector<double>* pipeline_s);

/// TbnetPipeline::run's steps called one by one, in its order, with a
/// core.* span around each public step function. Returns the same report
/// run() would.
tbnet::core::PipelineReport run_steps_traced(
    const tbnet::core::PipelineConfig& cfg, tbnet::core::TwoBranchModel& model,
    const std::vector<tbnet::core::PrunePoint>& points,
    const tbnet::data::Dataset& train, const tbnet::data::Dataset& test,
    Tracer& tracer, Report& report);

/// One epoch of knowledge_transfer's inner loop on a copy of `start`, timing
/// DataLoader::next, the training forward, the backward and the SGD step.
/// Sets data.batch_ms and nn.train_forward_ms / train_backward_ms /
/// sgd_step_ms (means per training batch).
void replay_training(const tbnet::core::TwoBranchModel& start,
                     const tbnet::core::TransferConfig& cfg,
                     const tbnet::data::Dataset& train, Tracer& tracer,
                     Report& report);

}  // namespace perfbench
