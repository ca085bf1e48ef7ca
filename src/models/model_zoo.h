#pragma once
// Model zoo: victim-model builders and their two-branch substitutions.
//
// Families follow the paper's evaluation: VGG-style chains ("VGG18") and
// CIFAR-style ResNets (ResNet-20/32), both with a width multiplier so the
// benchmark harnesses can run CPU-sized versions of the same architectures.

#include <string>
#include <vector>

#include "core/prune_point.h"
#include "core/two_branch.h"
#include "nn/sequential.h"
#include "tensor/rng.h"

namespace tbnet::models {

enum class Family { kVgg, kResNet };

struct ModelConfig {
  Family family = Family::kVgg;
  /// VGG: 11/13/16/18 (18 = 16 conv + 2 dense). ResNet: 20/32.
  int depth = 18;
  int64_t classes = 10;
  int64_t in_channels = 3;
  /// Channel width multiplier (1.0 = paper-size; benches use <= 0.5).
  double width_mult = 1.0;
  uint64_t seed = 1;

  std::string name() const;
};

/// Builds the victim model as a Sequential of fusion-stage blocks. Training
/// it end-to-end (models::train_classifier) produces the "victim" whose IP
/// TBNet protects.
nn::Sequential build_victim(const ModelConfig& cfg);

/// Builds the TBNet two-branch substitution from a trained victim:
///   * M_R (exposed) inherits the victim's architecture and weights — for
///     ResNet, the main branch only, skip connections dropped (paper §4).
///   * M_T (secure) has the victim's architecture (with skips for ResNet)
///     and freshly initialized weights.
core::TwoBranchModel build_two_branch(const nn::Sequential& victim,
                                      const ModelConfig& cfg);

/// The prunable channel groups of this family (see core::PrunePoint).
std::vector<core::PrunePoint> prune_points(const ModelConfig& cfg);

/// Number of fusion stages build_victim/build_two_branch produce.
int num_stages(const ModelConfig& cfg);

}  // namespace tbnet::models
