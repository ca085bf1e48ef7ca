#include "models/trainer.h"

#include <cstdio>

#include "data/dataloader.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace tbnet::models {

TrainResult train_classifier(nn::Layer& model, const data::Dataset& train,
                             const data::Dataset& test,
                             const TrainConfig& cfg) {
  data::DataLoader::Options lo;
  lo.batch_size = cfg.batch_size;
  lo.shuffle = true;
  lo.augment = cfg.augment;
  lo.seed = cfg.seed;
  data::DataLoader loader(train, lo);

  nn::SGD sgd(cfg.lr, cfg.momentum, cfg.weight_decay);
  nn::StepLR schedule(cfg.lr, cfg.lr_step, cfg.lr_gamma);

  TrainResult result;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    sgd.set_lr(schedule.lr_at(epoch));
    loader.start_epoch(epoch);
    data::Batch batch;
    double loss_sum = 0.0;
    int64_t batches = 0;
    while (loader.next(batch)) {
      model.zero_grad();
      Tensor logits = model.forward(batch.images, /*train=*/true);
      Tensor grad;
      loss_sum += softmax_cross_entropy(logits, batch.labels, &grad);
      model.backward(grad);
      sgd.step(model.params());
      ++batches;
    }
    const double loss = batches > 0 ? loss_sum / static_cast<double>(batches)
                                    : 0.0;
    const double acc = evaluate(model, test);
    result.epoch_loss.push_back(loss);
    result.epoch_test_acc.push_back(acc);
    if (cfg.log_every > 0 && (epoch % cfg.log_every == 0)) {
      std::printf("  epoch %3d  loss %.4f  test acc %.2f%%  (lr %.4g)\n",
                  epoch, loss, 100.0 * acc, sgd.lr());
      std::fflush(stdout);
    }
  }
  result.final_acc =
      result.epoch_test_acc.empty() ? 0.0 : result.epoch_test_acc.back();
  return result;
}

double evaluate(nn::Layer& model, const data::Dataset& dataset,
                int64_t batch_size) {
  data::DataLoader::Options lo;
  lo.batch_size = batch_size;
  lo.shuffle = false;
  lo.augment = false;
  data::DataLoader loader(dataset, lo);
  loader.start_epoch(0);
  data::Batch batch;
  int64_t hits = 0, total = 0;
  while (loader.next(batch)) {
    Tensor logits = model.forward(batch.images, /*train=*/false);
    const auto pred = argmax_rows(logits);
    for (size_t i = 0; i < pred.size(); ++i) {
      hits += (pred[i] == batch.labels[i]);
    }
    total += batch.size();
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace tbnet::models
