#include "core/pruner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace tbnet::core {
namespace {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Dense;
using nn::ResidualBlock;
using nn::Sequential;

Sequential* as_sequential(nn::Layer* block, const char* what) {
  auto* seq = dynamic_cast<Sequential*>(block);
  if (seq == nullptr) {
    throw std::logic_error(std::string("pruner: expected Sequential block for ") +
                           what);
  }
  return seq;
}

template <typename L>
L* find_nth_layer(Sequential& seq, int n) {
  for (int i = 0; i < seq.size(); ++i) {
    if (auto* typed = dynamic_cast<L*>(&seq.layer(i))) {
      if (n-- == 0) return typed;
    }
  }
  return nullptr;
}

template <typename L>
L* find_last_layer(Sequential& seq) {
  L* last = nullptr;
  for (int i = 0; i < seq.size(); ++i) {
    if (auto* typed = dynamic_cast<L*>(&seq.layer(i))) last = typed;
  }
  return last;
}

/// Shrinks the input-channel expectation of the block consuming a pruned
/// interface: either its first Conv2d, or (for the head) its first Dense.
void shrink_consumer(nn::Layer* block, const std::vector<int64_t>& keep) {
  if (auto* res = dynamic_cast<ResidualBlock*>(block)) {
    (void)res;
    throw std::logic_error(
        "pruner: interface feeding a ResidualBlock is not prunable (the skip "
        "path pins its input width)");
  }
  auto* seq = as_sequential(block, "interface consumer");
  if (auto* conv = find_nth_layer<Conv2d>(*seq, 0)) {
    conv->select_in_channels(keep);
    return;
  }
  if (auto* dense = find_nth_layer<Dense>(*seq, 0)) {
    // Head stages pool to 1x1 before Flatten, so one feature per channel.
    dense->select_in_channels(keep, /*features_per_channel=*/1);
    return;
  }
  throw std::logic_error("pruner: consumer block has no Conv2d or Dense");
}

struct InterfaceLayers {
  Conv2d* conv = nullptr;
  BatchNorm2d* bn = nullptr;
};

InterfaceLayers interface_layers(nn::Layer* block) {
  auto* seq = as_sequential(block, "interface stage");
  InterfaceLayers out;
  out.conv = find_last_layer<Conv2d>(*seq);
  out.bn = find_last_layer<BatchNorm2d>(*seq);
  if (out.conv == nullptr || out.bn == nullptr) {
    throw std::logic_error("pruner: interface stage lacks Conv2d+BatchNorm2d");
  }
  if (out.conv->out_channels() != out.bn->channels()) {
    throw std::logic_error("pruner: interface Conv/BN width mismatch");
  }
  return out;
}

struct InternalLayers {
  Conv2d* conv1 = nullptr;
  BatchNorm2d* bn1 = nullptr;
  Conv2d* conv2 = nullptr;
  ResidualBlock* residual = nullptr;  ///< set instead when block is residual
};

InternalLayers internal_layers(nn::Layer* block) {
  InternalLayers out;
  if (auto* res = dynamic_cast<ResidualBlock*>(block)) {
    out.residual = res;
    return out;
  }
  auto* seq = as_sequential(block, "internal stage");
  out.conv1 = find_nth_layer<Conv2d>(*seq, 0);
  out.bn1 = find_nth_layer<BatchNorm2d>(*seq, 0);
  out.conv2 = find_nth_layer<Conv2d>(*seq, 1);
  if (out.conv1 == nullptr || out.bn1 == nullptr || out.conv2 == nullptr) {
    throw std::logic_error(
        "pruner: internal stage lacks Conv-BN-...-Conv structure");
  }
  return out;
}

}  // namespace

ResolvedPoint resolve_point_lenient(TwoBranchModel& model,
                                    const PrunePoint& point) {
  if (point.stage < 0 || point.stage >= model.num_stages()) {
    throw std::out_of_range("resolve_point: stage out of range");
  }
  FusionStage& stage = model.stage(point.stage);
  ResolvedPoint out;
  if (point.kind == PrunePoint::Kind::kInterface) {
    out.bn_exposed = interface_layers(stage.exposed.get()).bn;
    out.bn_secure = interface_layers(stage.secure.get()).bn;
  } else {
    const InternalLayers r = internal_layers(stage.exposed.get());
    out.bn_exposed = r.residual ? &r.residual->bn1() : r.bn1;
    const InternalLayers t = internal_layers(stage.secure.get());
    out.bn_secure = t.residual ? &t.residual->bn1() : t.bn1;
  }
  return out;
}

ResolvedPoint resolve_point(TwoBranchModel& model, const PrunePoint& point) {
  ResolvedPoint out = resolve_point_lenient(model, point);
  if (out.bn_exposed->channels() != out.bn_secure->channels()) {
    throw std::logic_error(
        "resolve_point: branches disagree on channel count at stage " +
        std::to_string(point.stage));
  }
  return out;
}

void apply_channel_keep(TwoBranchModel& model, const PrunePoint& point,
                        const std::vector<int64_t>& keep) {
  if (keep.empty()) {
    throw std::invalid_argument("apply_channel_keep: empty keep list");
  }
  FusionStage& stage = model.stage(point.stage);
  if (point.kind == PrunePoint::Kind::kInterface) {
    if (point.stage + 1 >= model.num_stages()) {
      throw std::logic_error(
          "apply_channel_keep: interface point at the last stage");
    }
    for (nn::Layer* block : {stage.exposed.get(), stage.secure.get()}) {
      const InterfaceLayers il = interface_layers(block);
      il.conv->select_out_channels(keep);
      il.bn->select_channels(keep);
    }
    FusionStage& next = model.stage(point.stage + 1);
    shrink_consumer(next.exposed.get(), keep);
    shrink_consumer(next.secure.get(), keep);
  } else {
    for (nn::Layer* block : {stage.exposed.get(), stage.secure.get()}) {
      const InternalLayers il = internal_layers(block);
      if (il.residual != nullptr) {
        il.residual->prune_internal(keep);
      } else {
        il.conv1->select_out_channels(keep);
        il.bn1->select_channels(keep);
        il.conv2->select_in_channels(keep);
      }
    }
  }
}

std::vector<std::vector<int64_t>> compute_keep_lists(
    TwoBranchModel& model, const std::vector<PrunePoint>& points,
    double ratio, int64_t min_channels, PruneConfig::Criterion criterion) {
  if (ratio < 0.0 || ratio >= 1.0) {
    throw std::invalid_argument("compute_keep_lists: ratio must be in [0, 1)");
  }
  // Step 1-2: composite weights per point.
  std::vector<std::vector<float>> composite(points.size());
  std::vector<float> all;
  for (size_t p = 0; p < points.size(); ++p) {
    const ResolvedPoint rp = resolve_point(model, points[p]);
    const Tensor& gr = rp.bn_exposed->gamma();
    const Tensor& gt = rp.bn_secure->gamma();
    composite[p].resize(static_cast<size_t>(gr.numel()));
    for (int64_t c = 0; c < gr.numel(); ++c) {
      const float v = (criterion == PruneConfig::Criterion::kAbsCompositeSum)
                          ? std::fabs(gr[c] + gt[c])
                          : std::fabs(gr[c]) + std::fabs(gt[c]);
      composite[p][static_cast<size_t>(c)] = v;
      all.push_back(v);
    }
  }
  if (all.empty()) return {};

  // Step 3: rank all composite weights globally and mark the floor(N*p)
  // smallest for pruning (Alg. 1 line 5, with deterministic tie handling —
  // a pure threshold would prune every channel of a freshly initialized
  // model, where all gammas are identical).
  struct Entry {
    float value;
    size_t point;
    size_t channel;
  };
  std::vector<Entry> entries;
  entries.reserve(all.size());
  for (size_t p = 0; p < points.size(); ++p) {
    for (size_t c = 0; c < composite[p].size(); ++c) {
      entries.push_back(Entry{composite[p][c], p, c});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.value < b.value;
                   });
  const auto prune_count = static_cast<size_t>(
      std::floor(ratio * static_cast<double>(entries.size())));
  std::vector<std::vector<uint8_t>> pruned(points.size());
  for (size_t p = 0; p < points.size(); ++p) {
    pruned[p].assign(composite[p].size(), 0);
  }
  for (size_t i = 0; i < prune_count; ++i) {
    pruned[entries[i].point][entries[i].channel] = 1;
  }

  // Build keep lists, enforcing the per-group floor.
  std::vector<std::vector<int64_t>> keep(points.size());
  for (size_t p = 0; p < points.size(); ++p) {
    const auto& vals = composite[p];
    for (size_t c = 0; c < vals.size(); ++c) {
      if (!pruned[p][c]) keep[p].push_back(static_cast<int64_t>(c));
    }
    if (static_cast<int64_t>(keep[p].size()) < min_channels) {
      // Keep the top-min_channels by composite weight (stable order).
      std::vector<int64_t> order(vals.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&vals](int64_t a, int64_t b) {
                         return vals[static_cast<size_t>(a)] >
                                vals[static_cast<size_t>(b)];
                       });
      const auto take = static_cast<size_t>(
          std::min<int64_t>(min_channels, static_cast<int64_t>(vals.size())));
      keep[p].assign(order.begin(),
                     order.begin() + static_cast<int64_t>(take));
      std::sort(keep[p].begin(), keep[p].end());
    }
  }
  return keep;
}

PruneResult TwoBranchPruner::run(TwoBranchModel& model,
                                 const std::vector<PrunePoint>& points,
                                 const data::Dataset& train,
                                 const data::Dataset& test) {
  PruneResult result;
  result.baseline_acc = evaluate_fused(model, test);
  result.final_acc = result.baseline_acc;

  for (int iter = 0; iter < cfg_.max_iterations; ++iter) {
    TwoBranchModel snapshot = model.clone();
    auto keep = compute_keep_lists(model, points, cfg_.ratio,
                                   cfg_.min_channels, cfg_.criterion);
    // Stop when the threshold no longer removes anything (fully saturated).
    bool pruned_any = false;
    for (size_t p = 0; p < points.size(); ++p) {
      const ResolvedPoint rp = resolve_point(model, points[p]);
      if (static_cast<int64_t>(keep[p].size()) < rp.bn_secure->channels()) {
        pruned_any = true;
      }
    }
    if (!pruned_any) {
      if (cfg_.log_every > 0) {
        std::printf("  prune iter %d: nothing under threshold, stopping\n",
                    iter);
      }
      break;
    }

    for (size_t p = 0; p < points.size(); ++p) {
      apply_channel_keep(model, points[p], keep[p]);
    }
    TransferConfig ft = cfg_.finetune;
    ft.seed = cfg_.finetune.seed + static_cast<uint64_t>(iter) * 977;
    // final_acc is evaluate_fused of the model the fine-tune returns.
    const double acc =
        knowledge_transfer(model, points, train, test, ft).final_acc;

    PruneIteration record;
    record.index = iter;
    record.acc_after_finetune = acc;
    record.keep = keep;
    record.secure_param_bytes_after = model.secure_param_bytes();
    record.accepted = (result.baseline_acc - acc) <= cfg_.acc_drop_budget;
    if (cfg_.log_every > 0) {
      std::printf("  prune iter %d: acc %.2f%% (baseline %.2f%%, budget %.2f%%) -> %s\n",
                  iter, 100.0 * acc, 100.0 * result.baseline_acc,
                  100.0 * cfg_.acc_drop_budget,
                  record.accepted ? "accepted" : "reverted");
      std::fflush(stdout);
    }
    if (!record.accepted) {
      model = std::move(snapshot);  // revert (Alg. 1 halt-and-revert)
      result.iterations.push_back(std::move(record));
      break;
    }
    result.pre_last_accepted = std::move(snapshot);
    result.last_keep = keep;
    result.final_acc = acc;
    ++result.accepted_count;
    result.any_accepted = true;
    result.iterations.push_back(std::move(record));
  }
  return result;
}

}  // namespace tbnet::core
