#pragma once
// Knowledge transfer (paper §3.3, step 2) — joint training of the two-branch
// model with the Eq. 1 objective:
//
//   L = sum CE(f(x, W_R, W_T), y)  +  lambda * sum g(gamma_R + gamma_T)
//
// where g is the L1 sparsity penalty on BatchNorm scale weights. Minimizing L
// (a) distributes the victim's knowledge across both branches (the fused
// output is the model's prediction, so gradients reach both), and (b) drives
// BN gammas toward zero, preparing the composite-weight channel ranking used
// by the iterative two-branch pruner.

#include <cstdint>
#include <vector>

#include "core/prune_point.h"
#include "core/two_branch.h"
#include "data/dataset.h"

namespace tbnet::core {

struct TransferConfig {
  int epochs = 10;
  int64_t batch_size = 64;
  double lr = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  int lr_step = 100;       ///< paper: /10 every 100 epochs
  double lr_gamma = 0.1;
  double lambda = 1e-4;    ///< sparsity regularization strength (paper: 1e-4)
  uint64_t seed = 11;
  bool augment = true;
  /// Freeze M_R and train only M_T (post-rollback recovery fine-tune).
  bool freeze_exposed = false;
  int log_every = 0;
};

struct TransferEpoch {
  double ce_loss = 0.0;
  double sparsity_penalty = 0.0;
  double test_acc = 0.0;
};

struct TransferResult {
  std::vector<TransferEpoch> epochs;
  double final_acc = 0.0;
};

/// Runs knowledge-transfer training in place on `model`.
/// `points` identifies the paired BNs for the composite penalty (pass the
/// family's prune points; may be empty, degrading to independent L1).
TransferResult knowledge_transfer(TwoBranchModel& model,
                                  const std::vector<PrunePoint>& points,
                                  const data::Dataset& train,
                                  const data::Dataset& test,
                                  const TransferConfig& cfg);

/// Accuracy of the fused (user-visible) output over `dataset`.
double evaluate_fused(TwoBranchModel& model, const data::Dataset& dataset,
                      int64_t batch_size = 128);

/// Accuracy of M_T alone (no REE contribution) — paper Tab. 2.
double evaluate_secure_only(TwoBranchModel& model,
                            const data::Dataset& dataset,
                            int64_t batch_size = 128);

/// Accuracy an attacker gets by running the extracted M_R directly —
/// paper Tab. 1 "Attack Acc.".
double evaluate_exposed_only(TwoBranchModel& model,
                             const data::Dataset& dataset,
                             int64_t batch_size = 128);

/// Retrains M_T as a standalone network (no REE contribution), the paper's
/// Tab. 2 ablation: "remove M_R and retrain M_T with the entire training
/// dataset to evaluate its optimal performance". Only secure-branch
/// parameters are updated; returns per-epoch stats on the secure-only path.
TransferResult retrain_secure_standalone(TwoBranchModel& model,
                                         const data::Dataset& train,
                                         const data::Dataset& test,
                                         const TransferConfig& cfg);

/// Gathers the BN scale weights of each branch (for Fig. 4's distributions).
/// Pairs are taken from `points`; values are the raw gammas.
struct BnGammas {
  std::vector<float> exposed;  ///< gamma_R values
  std::vector<float> secure;   ///< gamma_T values
};
BnGammas collect_bn_gammas(TwoBranchModel& model,
                           const std::vector<PrunePoint>& points);

}  // namespace tbnet::core
