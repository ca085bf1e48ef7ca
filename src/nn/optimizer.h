#pragma once
// SGD with momentum + weight decay, and a step learning-rate schedule —
// the training recipe used by the paper (SGD, lr 0.1, momentum 0.9,
// weight decay 1e-4, lr /10 every 100 epochs).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nn/layer.h"

namespace tbnet::nn {

/// Stochastic gradient descent with classical momentum.
///
/// Velocity buffers are keyed by parameter address and reset automatically
/// when a parameter's shape changes (which happens after channel pruning).
class SGD {
 public:
  SGD(double lr, double momentum = 0.9, double weight_decay = 1e-4)
      : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {}

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }
  double momentum() const { return momentum_; }
  double weight_decay() const { return weight_decay_; }

  /// One update: v <- mu*v - lr*(g + wd*w);  w <- w + v.
  /// Weight decay is skipped for params flagged apply_weight_decay=false
  /// (BatchNorm scale/shift — decaying gamma would fight the L1 sparsity
  /// signal TBNet relies on).
  void step(const std::vector<ParamRef>& params);

  /// Drops all velocity state (e.g. after structural pruning).
  void reset_state() { velocity_.clear(); }

 private:
  double lr_, momentum_, weight_decay_;
  std::unordered_map<const Tensor*, Tensor> velocity_;
};

/// Step decay: lr(epoch) = base * gamma^(epoch / step_size).
class StepLR {
 public:
  StepLR(double base_lr, int step_size, double gamma = 0.1)
      : base_lr_(base_lr), step_size_(step_size), gamma_(gamma) {}

  double lr_at(int epoch) const;

 private:
  double base_lr_;
  int step_size_;
  double gamma_;
};

}  // namespace tbnet::nn
