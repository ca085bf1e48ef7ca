#include "core/knowledge_transfer.h"

#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "core/pruner.h"
#include "data/dataloader.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace tbnet::core {
namespace {

bool is_bn_gamma(const std::string& name) {
  return name.size() >= 5 && name.compare(name.size() - 5, 5, "gamma") == 0;
}

/// Applies the Eq. 1 sparsity subgradient and returns the penalty value.
///
/// Paired (prunable) BNs get the composite form d|gR+gT| = sign(gR+gT) on
/// both branches; BNs outside any pair fall back to an independent |gamma|
/// so every scale parameter feels sparsity pressure (network-slimming).
double apply_sparsity(TwoBranchModel& model,
                      const std::vector<PrunePoint>& points, double lambda) {
  if (lambda == 0.0) return 0.0;
  const float l = static_cast<float>(lambda);
  double value = 0.0;
  std::unordered_set<const Tensor*> paired;

  for (const PrunePoint& pt : points) {
    const ResolvedPoint rp = resolve_point(model, pt);
    Tensor& gr = rp.bn_exposed->gamma();
    Tensor& gt = rp.bn_secure->gamma();
    Tensor& dgr = rp.bn_exposed->gamma_grad();
    Tensor& dgt = rp.bn_secure->gamma_grad();
    paired.insert(&gr);
    paired.insert(&gt);
    for (int64_t c = 0; c < gr.numel(); ++c) {
      const float s = gr[c] + gt[c];
      value += std::fabs(s);
      const float sg = (s > 0.0f) ? l : (s < 0.0f ? -l : 0.0f);
      dgr[c] += sg;
      dgt[c] += sg;
    }
  }
  // Independent L1 on everything not covered above.
  for (nn::ParamRef& p : model.params()) {
    if (!is_bn_gamma(p.name) || paired.count(p.value) != 0) continue;
    for (int64_t c = 0; c < p.value->numel(); ++c) {
      const float g = (*p.value)[c];
      value += std::fabs(g);
      (*p.grad)[c] += (g > 0.0f) ? l : (g < 0.0f ? -l : 0.0f);
    }
  }
  return lambda * value;
}

/// Top-1 accuracy over `dataset` of `forward`, which maps a batch of images
/// to eval-mode logits.
template <typename Forward>
double top1_accuracy(const data::Dataset& dataset, int64_t batch_size,
                     Forward forward) {
  data::DataLoader::Options lo;
  lo.batch_size = batch_size;
  lo.shuffle = false;
  lo.augment = false;
  data::DataLoader loader(dataset, lo);
  loader.start_epoch(0);
  data::Batch batch;
  int64_t hits = 0, total = 0;
  while (loader.next(batch)) {
    const auto pred = argmax_rows(forward(batch.images));
    for (size_t i = 0; i < pred.size(); ++i) hits += (pred[i] == batch.labels[i]);
    total += batch.size();
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace

TransferResult knowledge_transfer(TwoBranchModel& model,
                                  const std::vector<PrunePoint>& points,
                                  const data::Dataset& train,
                                  const data::Dataset& test,
                                  const TransferConfig& cfg) {
  data::DataLoader::Options lo;
  lo.batch_size = cfg.batch_size;
  lo.shuffle = true;
  lo.augment = cfg.augment;
  lo.seed = cfg.seed;
  data::DataLoader loader(train, lo);

  nn::SGD sgd(cfg.lr, cfg.momentum, cfg.weight_decay);
  nn::StepLR schedule(cfg.lr, cfg.lr_step, cfg.lr_gamma);

  TransferResult result;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    sgd.set_lr(schedule.lr_at(epoch));
    loader.start_epoch(epoch);
    data::Batch batch;
    double ce_sum = 0.0, pen_sum = 0.0;
    int64_t batches = 0;
    while (loader.next(batch)) {
      model.zero_grad();
      Tensor logits = model.forward(batch.images, /*train=*/true,
                                    /*train_exposed=*/!cfg.freeze_exposed);
      Tensor grad;
      ce_sum += softmax_cross_entropy(logits, batch.labels, &grad);
      model.backward(grad, /*freeze_exposed=*/cfg.freeze_exposed);
      pen_sum += apply_sparsity(model, points, cfg.lambda);
      sgd.step(cfg.freeze_exposed ? model.params_secure() : model.params());
      ++batches;
    }
    TransferEpoch ep;
    ep.ce_loss = batches ? ce_sum / static_cast<double>(batches) : 0.0;
    ep.sparsity_penalty = batches ? pen_sum / static_cast<double>(batches) : 0.0;
    ep.test_acc = evaluate_fused(model, test);
    if (cfg.log_every > 0 && epoch % cfg.log_every == 0) {
      std::printf("  transfer epoch %3d  ce %.4f  penalty %.5f  acc %.2f%%\n",
                  epoch, ep.ce_loss, ep.sparsity_penalty, 100.0 * ep.test_acc);
      std::fflush(stdout);
    }
    result.epochs.push_back(ep);
  }
  result.final_acc =
      result.epochs.empty() ? evaluate_fused(model, test)
                            : result.epochs.back().test_acc;
  return result;
}

TransferResult retrain_secure_standalone(TwoBranchModel& model,
                                         const data::Dataset& train,
                                         const data::Dataset& test,
                                         const TransferConfig& cfg) {
  data::DataLoader::Options lo;
  lo.batch_size = cfg.batch_size;
  lo.shuffle = true;
  lo.augment = cfg.augment;
  lo.seed = cfg.seed;
  data::DataLoader loader(train, lo);

  nn::SGD sgd(cfg.lr, cfg.momentum, cfg.weight_decay);
  nn::StepLR schedule(cfg.lr, cfg.lr_step, cfg.lr_gamma);

  TransferResult result;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    sgd.set_lr(schedule.lr_at(epoch));
    loader.start_epoch(epoch);
    data::Batch batch;
    double ce_sum = 0.0;
    int64_t batches = 0;
    while (loader.next(batch)) {
      model.zero_grad();
      Tensor logits = model.forward_secure_only(batch.images, /*train=*/true);
      Tensor grad;
      ce_sum += softmax_cross_entropy(logits, batch.labels, &grad);
      model.backward(grad);
      sgd.step(model.params_secure());
      ++batches;
    }
    TransferEpoch ep;
    ep.ce_loss = batches ? ce_sum / static_cast<double>(batches) : 0.0;
    ep.test_acc = evaluate_secure_only(model, test);
    if (cfg.log_every > 0 && epoch % cfg.log_every == 0) {
      std::printf("  standalone epoch %3d  ce %.4f  acc %.2f%%\n", epoch,
                  ep.ce_loss, 100.0 * ep.test_acc);
      std::fflush(stdout);
    }
    result.epochs.push_back(ep);
  }
  result.final_acc = result.epochs.empty()
                         ? evaluate_secure_only(model, test)
                         : result.epochs.back().test_acc;
  return result;
}

double evaluate_fused(TwoBranchModel& model, const data::Dataset& dataset,
                      int64_t batch_size) {
  return top1_accuracy(dataset, batch_size, [&model](const Tensor& x) {
    return model.forward(x, /*train=*/false);
  });
}

double evaluate_secure_only(TwoBranchModel& model,
                            const data::Dataset& dataset, int64_t batch_size) {
  return top1_accuracy(dataset, batch_size, [&model](const Tensor& x) {
    return model.forward_secure_only(x, /*train=*/false);
  });
}

double evaluate_exposed_only(TwoBranchModel& model,
                             const data::Dataset& dataset,
                             int64_t batch_size) {
  return top1_accuracy(dataset, batch_size, [&model](const Tensor& x) {
    return model.forward_exposed_only(x);
  });
}

BnGammas collect_bn_gammas(TwoBranchModel& model,
                           const std::vector<PrunePoint>& points) {
  BnGammas out;
  for (const PrunePoint& pt : points) {
    const ResolvedPoint rp = resolve_point(model, pt);
    const Tensor& gr = rp.bn_exposed->gamma();
    const Tensor& gt = rp.bn_secure->gamma();
    for (int64_t c = 0; c < gr.numel(); ++c) out.exposed.push_back(gr[c]);
    for (int64_t c = 0; c < gt.numel(); ++c) out.secure.push_back(gt[c]);
  }
  return out;
}

}  // namespace tbnet::core
