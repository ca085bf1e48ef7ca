#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "nn/serialize.h"
#include "tensor/bytes.h"

namespace tbnet::bench {
namespace {

constexpr const char* kCacheDir = "tbnet_bench_cache";
constexpr uint32_t kCacheVersion = 6;

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Setup base_setup(bool scale_up) {
  Setup s;
  if (scale_up) {
    s.train_size = 4000;
    s.test_size = 1000;
  }
  // Victim recipe: the paper's SGD(momentum 0.9, weight decay 1e-4) with
  // step LR; the base lr is scaled down from the paper's 0.1 — these CPU
  // configurations are ~100x smaller and deep narrow VGGs diverge at 0.1.
  s.victim_train.epochs = scale_up ? 30 : 8;
  s.victim_train.batch_size = 64;
  s.victim_train.lr = 0.02;
  s.victim_train.momentum = 0.9;
  s.victim_train.weight_decay = 1e-4;
  s.victim_train.lr_step = scale_up ? 20 : 100;
  s.victim_train.augment = false;
  s.victim_train.seed = 17;

  // Step 2: knowledge transfer. The paper uses lambda = 1e-4 over hundreds
  // of epochs; the sparsity displacement integrates lambda * lr * steps, so
  // the short CI-scale runs use a proportionally larger lambda to land at
  // the same operating point (paper value under TBNET_BENCH_SCALE=paper).
  s.pipeline.transfer.epochs = scale_up ? 20 : 8;
  s.pipeline.transfer.batch_size = 64;
  s.pipeline.transfer.lr = 0.03;
  s.pipeline.transfer.lambda = scale_up ? 1e-4 : 2e-3;
  s.pipeline.transfer.augment = false;
  s.pipeline.transfer.seed = 19;

  // Steps 3-5: p = 10%, theta_drop scaled to the noisier small runs.
  s.pipeline.prune.ratio = 0.10;
  s.pipeline.prune.acc_drop_budget = scale_up ? 0.02 : 0.06;
  s.pipeline.prune.max_iterations = scale_up ? 8 : 4;
  s.pipeline.prune.min_channels = 2;
  s.pipeline.prune.finetune.epochs = scale_up ? 3 : 1;
  s.pipeline.prune.finetune.batch_size = 64;
  s.pipeline.prune.finetune.lr = 0.02;
  s.pipeline.prune.finetune.lambda = 1e-4;
  s.pipeline.prune.finetune.augment = false;

  // Step 6 + recovery fine-tune of M_T (M_R frozen).
  s.pipeline.rollback = true;
  s.pipeline.recovery.epochs = scale_up ? 3 : 2;
  s.pipeline.recovery.batch_size = 64;
  s.pipeline.recovery.lr = 0.02;
  s.pipeline.recovery.lambda = 0.0;
  s.pipeline.recovery.augment = false;
  return s;
}

}  // namespace

bool paper_scale_requested() {
  const char* v = std::getenv("TBNET_BENCH_SCALE");
  return v != nullptr && std::string(v) == "paper";
}

Setup vgg18_cifar10(bool scale_up) {
  Setup s = base_setup(scale_up);
  s.label = "VGG18 / CIFAR10";
  s.dataset_label = "CIFAR10";
  s.model.family = models::Family::kVgg;
  s.model.depth = 18;
  s.model.classes = 10;
  s.model.width_mult = scale_up ? 0.5 : 0.125;
  s.model.seed = 101;
  s.classes = 10;
  return s;
}

Setup vgg18_cifar100(bool scale_up) {
  Setup s = vgg18_cifar10(scale_up);
  // Scaled stand-in for CIFAR-100: more classes, same geometry. 25 classes
  // keeps per-class sample counts workable at CI scale; the trend the paper
  // reports (more classes -> lower absolute accuracy, larger security gap)
  // is preserved. TBNET_BENCH_SCALE=paper uses the full 100.
  s.label = "VGG18 / CIFAR100";
  s.dataset_label = "CIFAR100";
  s.classes = scale_up ? 100 : 20;
  s.model.classes = s.classes;
  s.data_seed = 78;
  return s;
}

Setup resnet20_cifar10(bool scale_up) {
  Setup s = base_setup(scale_up);
  s.label = "ResNet20 / CIFAR10";
  s.dataset_label = "CIFAR10";
  s.model.family = models::Family::kResNet;
  s.model.depth = 20;
  s.model.classes = 10;
  s.model.width_mult = scale_up ? 1.0 : 0.25;
  s.model.seed = 202;
  s.classes = 10;
  return s;
}

Setup resnet20_cifar100(bool scale_up) {
  Setup s = resnet20_cifar10(scale_up);
  s.label = "ResNet20 / CIFAR100";
  s.dataset_label = "CIFAR100";
  s.classes = scale_up ? 100 : 20;
  s.model.classes = s.classes;
  s.data_seed = 79;
  return s;
}

std::string Setup::key() const {
  std::ostringstream os;
  os << kCacheVersion << '|' << label << '|'
     << static_cast<int>(model.family) << '|' << model.depth << '|'
     << model.classes << '|' << model.width_mult << '|' << model.seed << '|'
     << classes << '|' << train_size << '|' << test_size << '|' << difficulty
     << '|' << data_seed << '|' << victim_train.epochs << '|'
     << victim_train.lr << '|' << pipeline.transfer.epochs << '|'
     << pipeline.transfer.lambda << '|' << pipeline.prune.ratio << '|'
     << pipeline.prune.max_iterations << '|'
     << pipeline.prune.acc_drop_budget << '|' << pipeline.recovery.epochs;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(os.str())));
  return buf;
}

data::SyntheticCifar train_set(const Setup& s) {
  data::SyntheticCifar::Options opt;
  opt.classes = s.classes;
  opt.samples = s.train_size;
  opt.image_size = 32;
  opt.seed = s.data_seed;
  opt.split = 0;
  opt.difficulty = s.difficulty;
  return data::SyntheticCifar(opt);
}

data::SyntheticCifar test_set(const Setup& s) {
  data::SyntheticCifar::Options opt;
  opt.classes = s.classes;
  opt.samples = s.test_size;
  opt.image_size = 32;
  opt.seed = s.data_seed;
  opt.split = 1;
  opt.difficulty = s.difficulty;
  return data::SyntheticCifar(opt);
}

namespace {

void write_report(std::vector<uint8_t>& out, const core::PipelineReport& r,
                  double victim_acc) {
  const double vals[] = {victim_acc,
                         r.transfer_acc,
                         r.pruned_acc,
                         r.final_acc,
                         r.attack_direct_acc,
                         static_cast<double>(r.accepted_prune_iterations),
                         static_cast<double>(r.rollback_applied ? 1 : 0),
                         static_cast<double>(r.remapped_stages),
                         static_cast<double>(r.arch_divergence),
                         static_cast<double>(r.secure_bytes_initial),
                         static_cast<double>(r.secure_bytes_final),
                         static_cast<double>(r.exposed_bytes_final)};
  put_bytes(out, vals, sizeof(vals));
}

void read_report(ByteReader& in, core::PipelineReport* r, double* victim_acc) {
  double vals[12] = {};
  std::memcpy(vals, in.take(sizeof(vals), "bench cache report").data(),
              sizeof(vals));
  *victim_acc = vals[0];
  r->transfer_acc = vals[1];
  r->pruned_acc = vals[2];
  r->final_acc = vals[3];
  r->attack_direct_acc = vals[4];
  r->accepted_prune_iterations = static_cast<int>(vals[5]);
  r->rollback_applied = vals[6] != 0.0;
  r->remapped_stages = static_cast<int>(vals[7]);
  r->arch_divergence = static_cast<int>(vals[8]);
  r->secure_bytes_initial = static_cast<int64_t>(vals[9]);
  r->secure_bytes_final = static_cast<int64_t>(vals[10]);
  r->exposed_bytes_final = static_cast<int64_t>(vals[11]);
}

/// The whole file, read once (empty when it cannot be read).
std::vector<uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
}

}  // namespace

Artifacts get_or_build(const Setup& s, bool verbose) {
  namespace fs = std::filesystem;
  fs::create_directories(kCacheDir);
  const fs::path path = fs::path(kCacheDir) / (s.key() + ".bin");

  if (fs::exists(path)) {
    try {
      const std::vector<uint8_t> bytes = read_file(path);
      ByteReader r(bytes);
      Artifacts a;
      auto victim = nn::load_model(r);
      auto* seq = dynamic_cast<nn::Sequential*>(victim.get());
      if (seq == nullptr) throw std::runtime_error("bad victim in cache");
      a.victim = std::move(*seq);
      a.model = core::load_two_branch(r);
      read_report(r, &a.report, &a.victim_acc);
      if (verbose) {
        std::printf("[cache] %s <- %s\n", s.label.c_str(),
                    path.string().c_str());
      }
      return a;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[cache] %s unreadable (%s); rebuilding\n",
                   path.string().c_str(), e.what());
    }
  }

  if (verbose) {
    std::printf("[build] %s (victim %d epochs, transfer %d epochs, <=%d prune iters)\n",
                s.label.c_str(), s.victim_train.epochs,
                s.pipeline.transfer.epochs, s.pipeline.prune.max_iterations);
    std::fflush(stdout);
  }
  const data::SyntheticCifar train = train_set(s);
  const data::SyntheticCifar test = test_set(s);

  Artifacts a;
  a.victim = models::build_victim(s.model);
  models::train_classifier(a.victim, train, test, s.victim_train);
  a.victim_acc = models::evaluate(a.victim, test);

  a.model = models::build_two_branch(a.victim, s.model);
  const auto points = models::prune_points(s.model);
  core::TbnetPipeline pipeline(s.pipeline);
  a.report = pipeline.run(a.model, points, train, test);

  std::vector<uint8_t> bytes;
  nn::save_model(bytes, a.victim);
  core::save_two_branch(bytes, a.model);
  write_report(bytes, a.report, a.victim_acc);
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  return a;
}

void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%6.2f%%", 100.0 * fraction);
  return buf;
}

std::string mib(int64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f MiB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

void print_histogram(const std::string& title,
                     const std::vector<float>& values, int bins) {
  if (values.empty()) return;
  float lo = values[0], hi = values[0];
  for (float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi - lo < 1e-9f) hi = lo + 1e-9f;
  std::vector<int> counts(static_cast<size_t>(bins), 0);
  for (float v : values) {
    int b = static_cast<int>((v - lo) / (hi - lo) * bins);
    b = std::clamp(b, 0, bins - 1);
    counts[static_cast<size_t>(b)]++;
  }
  const int max_count = *std::max_element(counts.begin(), counts.end());
  std::printf("%s  (n=%zu, min=%.4f, max=%.4f)\n", title.c_str(),
              values.size(), lo, hi);
  for (int b = 0; b < bins; ++b) {
    const float left = lo + (hi - lo) * static_cast<float>(b) / bins;
    const int width =
        max_count > 0 ? counts[static_cast<size_t>(b)] * 50 / max_count : 0;
    std::printf("  %8.4f | %-50s %d\n", left,
                std::string(static_cast<size_t>(width), '#').c_str(),
                counts[static_cast<size_t>(b)]);
  }
}

}  // namespace tbnet::bench
