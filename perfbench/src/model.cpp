#include "model.h"

#include <stdexcept>

#include "core/knowledge_transfer.h"
#include "core/pruner.h"
#include "core/rollback.h"
#include "data/dataloader.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace perfbench {

using namespace tbnet;

models::ModelConfig resnet20(double width, uint64_t seed) {
  models::ModelConfig cfg;
  cfg.family = models::Family::kResNet;
  cfg.depth = 20;
  cfg.classes = 10;
  cfg.width_mult = width;
  cfg.seed = seed;
  return cfg;
}

std::pair<data::SyntheticCifar, data::SyntheticCifar> cifar(int64_t train_size,
                                                            int64_t test_size,
                                                            uint64_t seed) {
  return data::SyntheticCifar::make_split(10, train_size, test_size, seed);
}

void draw_bn_scales(core::TwoBranchModel& model,
                    const std::vector<core::PrunePoint>& points, uint64_t seed) {
  Rng rng(seed);
  for (nn::ParamRef& p : model.params()) {
    const std::string& n = p.name;
    if (n.size() < 5 || n.compare(n.size() - 5, 5, "gamma") != 0) continue;
    for (int64_t c = 0; c < p.value->numel(); ++c) {
      (*p.value)[c] = static_cast<float>(rng.uniform(0.05, 1.0));
    }
  }
  // Prunable pairs: one fixed multiset of scales per prune point, placed in
  // a seeded channel order and tied across the branches. The global
  // threshold then prunes the same number of channels from every point for
  // every seed (only which channels differs), so the seed varies the data
  // and never the amount of work.
  Rng fixed(0x7b5eedULL);
  for (const core::PrunePoint& pt : points) {
    const core::ResolvedPoint rp = core::resolve_point(model, pt);
    std::vector<float> scales(static_cast<size_t>(rp.bn_secure->channels()));
    for (float& s : scales) s = static_cast<float>(fixed.uniform(0.05, 1.0));
    rng.shuffle(scales);
    for (size_t c = 0; c < scales.size(); ++c) {
      rp.bn_exposed->gamma()[static_cast<int64_t>(c)] = scales[c];
      rp.bn_secure->gamma()[static_cast<int64_t>(c)] = scales[c];
    }
  }
}

namespace {

core::PipelineConfig accept_every_iteration(core::PipelineConfig pc) {
  pc.prune.ratio = 0.10;
  pc.prune.max_iterations = 3;
  // Accuracy is a fraction, so a budget of 1 accepts every iteration: the
  // amount of work is fixed and a rounding change cannot alter it.
  pc.prune.acc_drop_budget = 1.0;
  pc.rollback = true;
  pc.transfer.augment = false;
  pc.prune.finetune.augment = false;
  pc.recovery.augment = false;
  return pc;
}

}  // namespace

core::PipelineConfig serving_protection() {
  core::PipelineConfig pc;
  pc.transfer.epochs = 0;
  pc.prune.finetune.epochs = 0;
  pc.recovery.epochs = 0;
  return accept_every_iteration(pc);
}

core::PipelineConfig owner_protection() {
  core::PipelineConfig pc;
  pc.transfer.epochs = 1;
  pc.transfer.batch_size = 8;
  pc.prune.finetune.epochs = 1;
  pc.prune.finetune.batch_size = 8;
  pc.recovery.epochs = 1;
  pc.recovery.batch_size = 8;
  return accept_every_iteration(pc);
}

Protected build_protected(double width, uint64_t seed,
                          const data::Dataset& train, const data::Dataset& test,
                          int runs, std::vector<double>* pipeline_s) {
  Protected p;
  p.cfg = resnet20(width, seed);
  p.victim = models::build_victim(p.cfg);
  p.substitution = models::build_two_branch(p.victim, p.cfg);
  p.points = models::prune_points(p.cfg);
  draw_bn_scales(p.substitution, p.points, seed ^ 0x5ca1e5ULL);
  core::TbnetPipeline pipeline(serving_protection());
  for (int r = 0; r < runs; ++r) {
    core::TwoBranchModel m = p.substitution.clone();
    const auto t0 = Clock::now();
    core::PipelineReport rep = pipeline.run(m, p.points, train, test);
    if (pipeline_s != nullptr) pipeline_s->push_back(since(t0));
    if (r > 0 && rep.secure_bytes_final != p.report.secure_bytes_final) {
      throw std::runtime_error("protection is not reproducible across runs");
    }
    p.product = std::move(m);
    p.report = rep;
  }
  return p;
}

core::PipelineReport run_steps_traced(const core::PipelineConfig& cfg,
                                      core::TwoBranchModel& model,
                                      const std::vector<core::PrunePoint>& points,
                                      const data::Dataset& train,
                                      const data::Dataset& test, Tracer& tracer,
                                      Report& report) {
  core::PipelineReport rep;
  rep.secure_bytes_initial = model.secure_param_bytes();
  double transfer_s = 0.0, prune_s = 0.0, rollback_s = 0.0, recovery_s = 0.0;
  core::TransferResult transfer;
  transfer_s = timed(&tracer, "core.transfer", -1, [&] {
    transfer = core::knowledge_transfer(model, points, train, test, cfg.transfer);
  });
  rep.transfer_acc = transfer.final_acc;
  core::PruneResult prune;
  prune_s = timed(&tracer, "core.prune", -1, [&] {
    prune = core::TwoBranchPruner(cfg.prune).run(model, points, train, test);
  });
  rep.pruned_acc = prune.final_acc;
  rep.accepted_prune_iterations = prune.accepted_count;
  rep.prune_iterations = prune.iterations;
  if (cfg.rollback && prune.any_accepted) {
    core::RollbackReport rb;
    rollback_s = timed(&tracer, "core.rollback", -1, [&] {
      rb = core::rollback_finalize(model, std::move(prune.pre_last_accepted),
                                   points, prune.last_keep);
    });
    rep.rollback_applied = rb.applied;
    rep.remapped_stages = static_cast<int>(rb.remapped_stages.size());
    if (cfg.recovery.epochs > 0) {
      core::TransferConfig rec = cfg.recovery;
      rec.freeze_exposed = true;
      recovery_s = timed(&tracer, "core.recovery", -1, [&] {
        core::knowledge_transfer(model, points, train, test, rec);
      });
    }
  }
  const double evaluate_s = timed(&tracer, "core.evaluate", -1, [&] {
    rep.final_acc = core::evaluate_fused(model, test);
    rep.attack_direct_acc = core::evaluate_exposed_only(model, test);
    rep.arch_divergence = core::architectural_divergence(model, points);
  });
  rep.secure_bytes_final = model.secure_param_bytes();
  rep.exposed_bytes_final = model.exposed_param_bytes();
  report.set("core.transfer_s", transfer_s, "s");
  report.set("core.prune_s", prune_s, "s");
  report.set("core.rollback_s", rollback_s, "s");
  report.set("core.recovery_s", recovery_s, "s");
  report.set("core.evaluate_s", evaluate_s, "s");
  return rep;
}

void replay_training(const core::TwoBranchModel& start,
                     const core::TransferConfig& cfg, const data::Dataset& train,
                     Tracer& tracer, Report& report) {
  core::TwoBranchModel model = start.clone();
  data::DataLoader::Options lo;
  lo.batch_size = cfg.batch_size;
  lo.shuffle = true;
  lo.augment = cfg.augment;
  lo.seed = cfg.seed;
  data::DataLoader loader(train, lo);
  nn::SGD sgd(cfg.lr, cfg.momentum, cfg.weight_decay);
  loader.start_epoch(0);
  std::vector<double> next_s, fwd_s, bwd_s, sgd_s;
  const int64_t root = tracer.open("nn.train_replay");
  data::Batch batch;
  for (;;) {
    bool more = false;
    next_s.push_back(timed(&tracer, "data.next", root, [&] { more = loader.next(batch); }));
    if (!more) {
      next_s.pop_back();  // the end-of-epoch probe loads nothing
      break;
    }
    model.zero_grad();
    Tensor logits, grad;
    fwd_s.push_back(timed(&tracer, "nn.train_forward", root, [&] {
      logits = model.forward(batch.images, /*train=*/true);
    }));
    softmax_cross_entropy(logits, batch.labels, &grad);
    bwd_s.push_back(timed(&tracer, "nn.train_backward", root,
                          [&] { model.backward(grad); }));
    sgd_s.push_back(timed(&tracer, "nn.sgd_step", root,
                          [&] { sgd.step(model.params()); }));
  }
  tracer.close(root);
  const auto n = static_cast<int64_t>(fwd_s.size());
  report.set("data.batch_ms", mean(next_s) * 1e3, "ms", n);
  report.set("nn.train_forward_ms", mean(fwd_s) * 1e3, "ms", n);
  report.set("nn.train_backward_ms", mean(bwd_s) * 1e3, "ms", n);
  report.set("nn.sgd_step_ms", mean(sgd_s) * 1e3, "ms", n);
}

}  // namespace perfbench
