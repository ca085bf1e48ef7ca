#pragma once
// Single-branch classifier training (victim models, attacker fine-tuning,
// standalone-M_T retraining). The two-branch knowledge-transfer trainer
// lives in core/knowledge_transfer.h.

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "nn/layer.h"

namespace tbnet::models {

/// Training hyper-parameters; defaults follow the paper's recipe (SGD,
/// momentum 0.9, weight decay 1e-4, step LR /10) scaled to CPU-sized runs.
struct TrainConfig {
  int epochs = 10;
  int64_t batch_size = 64;
  double lr = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  int lr_step = 100;      ///< epochs between /gamma drops (paper: 100)
  double lr_gamma = 0.1;
  uint64_t seed = 7;
  bool augment = true;
  int log_every = 0;      ///< print a line every N epochs; 0 = silent
};

struct TrainResult {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_test_acc;
  double final_acc = 0.0;
};

/// Trains `model` (any Layer tree with a [N, classes] logits output) with SGD
/// + cross-entropy on `train`, evaluating on `test` after every epoch.
TrainResult train_classifier(nn::Layer& model, const data::Dataset& train,
                             const data::Dataset& test,
                             const TrainConfig& cfg);

/// Top-1 accuracy of `model` (eval mode) over the whole dataset.
double evaluate(nn::Layer& model, const data::Dataset& dataset,
                int64_t batch_size = 128);

}  // namespace tbnet::models
