// Ablation A — why Alg. 1 sums the BN weights of both branches.
//
// Compares the paper's composite criterion |gamma_R + gamma_T| against a
// per-branch alternative on the same pipeline:
//   * composite (paper): channel importance = contribution of the *merged*
//     feature map, matching the element-wise fusion add;
//   * sum-of-abs |gamma_R| + |gamma_T|: close cousin, ignores cancellation.
// Reported: fused accuracy after pruning and the secure-branch size.

#include <cstdio>

#include "common.h"
#include "core/pipeline.h"

namespace {

struct Variant {
  const char* name;
  tbnet::core::PruneConfig::Criterion criterion;
};

}  // namespace

int main() {
  using namespace tbnet;
  bench::print_header(
      "Ablation A: composite-BN pruning criterion (Alg. 1 line 4)");

  bench::Setup setup = bench::resnet20_cifar10(false);
  // Fresh, smaller runs (criterion is not part of the cache key).
  setup.model.width_mult = 0.25;
  setup.victim_train.epochs = 4;
  setup.pipeline.transfer.epochs = 4;
  setup.pipeline.prune.max_iterations = 2;

  const auto train = bench::train_set(setup);
  const auto test = bench::test_set(setup);
  nn::Sequential victim = models::build_victim(setup.model);
  models::train_classifier(victim, train, test, setup.victim_train);
  const double victim_acc = models::evaluate(victim, test);
  std::printf("victim: %s accuracy %s\n\n", setup.label.c_str(),
              bench::pct(victim_acc).c_str());

  const Variant variants[] = {
      {"composite |gR+gT| (paper)",
       core::PruneConfig::Criterion::kAbsCompositeSum},
      {"sum-of-abs |gR|+|gT|", core::PruneConfig::Criterion::kSumOfAbs},
  };
  std::printf("%-28s | %10s %10s %14s\n", "criterion", "TBNet acc",
              "iters", "M_T bytes");
  std::printf("%s\n", std::string(70, '-').c_str());
  for (const Variant& v : variants) {
    core::TwoBranchModel model = models::build_two_branch(victim, setup.model);
    const auto points = models::prune_points(setup.model);
    core::PipelineConfig pc = setup.pipeline;
    pc.prune.criterion = v.criterion;
    core::TbnetPipeline pipeline(pc);
    const core::PipelineReport r = pipeline.run(model, points, train, test);
    std::printf("%-28s | %10s %10d %14s\n", v.name,
                bench::pct(r.final_acc).c_str(), r.accepted_prune_iterations,
                bench::mib(r.secure_bytes_final).c_str());
  }
  std::printf(
      "\nReading: both criteria prune effectively on healthy models; the\n"
      "composite form is the faithful one because it ranks channels by the\n"
      "importance of the *fused* feature map the TEE actually consumes.\n");
  return 0;
}
