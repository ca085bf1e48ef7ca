// tbnet — command-line front end for the whole workflow.
//
//   tbnet train-victim  --family vgg --depth 18 --classes 10 --width 0.25
//                       --epochs 12 --out victim.bin
//   tbnet protect       --victim victim.bin --family vgg --depth 18
//                       --classes 10 --width 0.25 --out protected.tbn
//   tbnet evaluate      --model protected.tbn --classes 10
//   tbnet deploy        --model protected.tbn --victim victim.bin
//                       --family vgg --depth 18 --classes 10 --width 0.25
//   tbnet attack        --model protected.tbn --classes 10 --fraction 0.5
//
// Data is always the synthetic CIFAR-shaped task (see README.md), controlled
// by --classes/--train-size/--test-size/--data-seed/--difficulty.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "nn/serialize.h"
#include "runtime/deployed.h"
#include "runtime/profiler.h"
#include "tee/cost_model.h"
#include "tee/device_profile.h"
#include "tee/optee_api.h"
#include "tensor/bytes.h"

namespace {

using namespace tbnet;

/// Minimal --key value argument parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::invalid_argument(std::string("expected --flag, got ") +
                                    argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  std::string str(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  int integer(const std::string& key, int fallback) const {
    return static_cast<int>(num(key, fallback));
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

models::ModelConfig model_config(const Args& args) {
  models::ModelConfig cfg;
  const std::string family = args.str("family", "vgg");
  if (family == "vgg") {
    cfg.family = models::Family::kVgg;
    cfg.depth = args.integer("depth", 18);
  } else if (family == "resnet") {
    cfg.family = models::Family::kResNet;
    cfg.depth = args.integer("depth", 20);
  } else {
    throw std::invalid_argument("--family must be vgg or resnet");
  }
  cfg.classes = args.integer("classes", 10);
  cfg.width_mult = args.num("width", 0.25);
  cfg.seed = static_cast<uint64_t>(args.integer("seed", 1));
  return cfg;
}

std::pair<data::SyntheticCifar, data::SyntheticCifar> datasets(
    const Args& args) {
  return data::SyntheticCifar::make_split(
      args.integer("classes", 10), args.integer("train-size", 400),
      args.integer("test-size", 200),
      static_cast<uint64_t>(args.integer("data-seed", 77)), 32,
      args.num("difficulty", 0.45));
}

/// The whole file, read once.
std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("cannot write " + path);
}

nn::Sequential load_victim(const std::string& path) {
  const std::vector<uint8_t> bytes = read_file(path);
  ByteReader r(bytes);
  auto layer = nn::load_model(r);
  auto* seq = dynamic_cast<nn::Sequential*>(layer.get());
  if (seq == nullptr) {
    throw std::runtime_error(path + " does not contain a victim model");
  }
  return std::move(*seq);
}

core::TwoBranchModel load_protected(const std::string& path) {
  const std::vector<uint8_t> bytes = read_file(path);
  ByteReader r(bytes);
  return core::load_two_branch(r);
}

int cmd_train_victim(const Args& args) {
  const auto cfg = model_config(args);
  auto [train, test] = datasets(args);
  std::printf("training victim %s on %lld-class synthetic data...\n",
              cfg.name().c_str(), static_cast<long long>(cfg.classes));
  nn::Sequential victim = models::build_victim(cfg);
  models::TrainConfig tc;
  tc.epochs = args.integer("epochs", 10);
  tc.batch_size = args.integer("batch", 64);
  tc.lr = args.num("lr", 0.02);
  tc.augment = args.has("augment");
  tc.log_every = 1;
  models::train_classifier(victim, train, test, tc);
  std::printf("final accuracy: %.2f%%\n",
              100 * models::evaluate(victim, test));
  const std::string out = args.str("out", "victim.bin");
  std::vector<uint8_t> bytes;
  nn::save_model(bytes, victim);
  write_file(out, bytes);
  std::printf("saved -> %s\n", out.c_str());
  return 0;
}

int cmd_protect(const Args& args) {
  const auto cfg = model_config(args);
  auto [train, test] = datasets(args);
  nn::Sequential victim = load_victim(args.str("victim", "victim.bin"));
  std::printf("victim accuracy: %.2f%%\n",
              100 * models::evaluate(victim, test));

  core::TwoBranchModel model = models::build_two_branch(victim, cfg);
  core::PipelineConfig pc;
  pc.transfer.epochs = args.integer("transfer-epochs", 8);
  pc.transfer.lr = args.num("lr", 0.02);
  pc.transfer.lambda = args.num("lambda", 1e-4);
  pc.transfer.augment = false;
  pc.prune.ratio = args.num("prune-ratio", 0.10);
  pc.prune.acc_drop_budget = args.num("drop-budget", 0.06);
  pc.prune.max_iterations = args.integer("max-prune-iters", 4);
  pc.prune.finetune.epochs = args.integer("finetune-epochs", 1);
  pc.prune.finetune.augment = false;
  pc.rollback = !args.has("no-rollback");
  pc.recovery.epochs = args.integer("recovery-epochs", 2);
  pc.recovery.augment = false;

  const auto report = core::TbnetPipeline(pc).run(
      model, models::prune_points(cfg), train, test);
  std::printf(
      "pipeline: transfer %.2f%% -> pruned %.2f%% (%d iters) -> final %.2f%%\n",
      100 * report.transfer_acc, 100 * report.pruned_acc,
      report.accepted_prune_iterations, 100 * report.final_acc);
  std::printf("attacker direct use: %.2f%% | divergent groups: %d\n",
              100 * report.attack_direct_acc, report.arch_divergence);

  const std::string out = args.str("out", "protected.tbn");
  std::vector<uint8_t> bytes;
  core::save_two_branch(bytes, model);
  write_file(out, bytes);
  std::printf("saved -> %s\n", out.c_str());
  if (args.has("report")) {
    core::write_text_file(args.str("report", "report.json"),
                          core::to_json(report, cfg.name()));
    std::printf("report -> %s\n", args.str("report", "report.json").c_str());
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  core::TwoBranchModel model = load_protected(args.str("model", "protected.tbn"));
  auto [train, test] = datasets(args);
  (void)train;
  std::printf("fused (user-visible):   %.2f%%\n",
              100 * core::evaluate_fused(model, test));
  std::printf("M_T alone (no REE):     %.2f%%\n",
              100 * core::evaluate_secure_only(model, test));
  std::printf("M_R alone (attacker):   %.2f%%\n",
              100 * core::evaluate_exposed_only(model, test));
  return 0;
}

int cmd_deploy(const Args& args) {
  core::TwoBranchModel model = load_protected(args.str("model", "protected.tbn"));
  nn::Sequential victim = load_victim(args.str("victim", "victim.bin"));
  auto [train, test] = datasets(args);
  (void)train;

  const tee::DeviceProfile profile = tee::DeviceProfile::rpi3();
  tee::SecureWorld device(profile.secure_mem_budget);
  tee::TeeContext ctx(device);
  runtime::DeployedTBNet deployed(model, ctx);

  const int n = args.integer("samples", 50);
  int correct = 0;
  for (int i = 0; i < n && i < test.size(); ++i) {
    const data::Sample s = test.get(i);
    correct += (deployed.predict(s.image) == s.label);
  }
  std::printf("on-device accuracy (%d samples): %.2f%%\n", n,
              100.0 * correct / n);
  std::printf("channel: %.1f KiB into TEE, %lld B leaked\n",
              ctx.channel().bytes_into_tee() / 1024.0,
              static_cast<long long>(ctx.channel().leaked_bytes()));
  std::printf("secure memory peak: %.1f KiB of %.1f MiB budget\n\n",
              device.memory().peak_bytes() / 1024.0,
              profile.secure_mem_budget / (1024.0 * 1024.0));

  const tee::CostModel cm(profile);
  const auto prof =
      runtime::profile_deployment(model, victim, cm, Shape{3, 32, 32});
  std::fputs(runtime::format_profile(prof).c_str(), stdout);
  return 0;
}

int cmd_attack(const Args& args) {
  core::TwoBranchModel model = load_protected(args.str("model", "protected.tbn"));
  auto [train, test] = datasets(args);
  std::printf("direct use of lifted M_R: %.2f%%\n",
              100 * attack::direct_use_accuracy(model, test));
  attack::FineTuneConfig ft;
  ft.train.epochs = args.integer("epochs", 4);
  ft.train.batch_size = 64;
  ft.train.lr = args.num("lr", 0.02);
  ft.train.augment = false;
  const double fraction = args.num("fraction", 1.0);
  const auto r = attack::fine_tune_attack(model, train, test, fraction, ft);
  std::printf("fine-tuned with %.0f%% of data: %.2f%%\n", 100 * fraction,
              100 * r.accuracy);
  return 0;
}

void usage() {
  std::fputs(
      "usage: tbnet <command> [--flag value ...]\n"
      "commands:\n"
      "  train-victim   train and save a victim model\n"
      "  protect        run the six-step TBNet pipeline on a victim\n"
      "  evaluate       fused / secure-only / exposed-only accuracy\n"
      "  deploy         run on the simulated OP-TEE device + profile\n"
      "  attack         direct-use and fine-tuning attacks on M_R\n"
      "common flags: --family vgg|resnet --depth N --classes N --width W\n"
      "              --train-size N --test-size N --data-seed N --difficulty D\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "train-victim") return cmd_train_victim(args);
    if (cmd == "protect") return cmd_protect(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    if (cmd == "deploy") return cmd_deploy(args);
    if (cmd == "attack") return cmd_attack(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
