// Property tests: invariants that must hold across seeds and configurations,
// exercised with parameterized sweeps.

#include <gtest/gtest.h>

#include <cmath>

#include "attack/attacks.h"
#include "core/knowledge_transfer.h"
#include "core/pruner.h"
#include "core/rollback.h"
#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "nn/serialize.h"
#include "tee/channel.h"
#include "tee/cost_model.h"

namespace tbnet {
namespace {

// ----------------------------------------------------------- seed sweeps ---

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, TwoBranchInitializationInvariants) {
  // For every seed: M_R == victim function (VGG), branches resolve with
  // equal widths at every prune point, and the fused output differs from
  // both single branches (fusion actually mixes).
  const uint64_t seed = GetParam();
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.125;
  cfg.seed = seed;
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);

  Rng rng(seed ^ 1);
  Tensor x = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  EXPECT_TRUE(allclose(tb.forward_exposed_only(x),
                       victim.forward(x, false), 1e-5f, 1e-5f));
  for (const auto& p : models::prune_points(cfg)) {
    const auto rp = core::resolve_point(tb, p);
    EXPECT_EQ(rp.bn_exposed->channels(), rp.bn_secure->channels());
  }
  const Tensor fused = tb.forward(x, false);
  EXPECT_FALSE(allclose(fused, tb.forward_secure_only(x, false)));
}

TEST_P(SeedSweep, SerializationIsLossless) {
  const uint64_t seed = GetParam();
  models::ModelConfig cfg;
  cfg.family = models::Family::kResNet;
  cfg.depth = 20;
  cfg.classes = 10;
  cfg.width_mult = 0.25;
  cfg.seed = seed;
  nn::Sequential victim = models::build_victim(cfg);
  std::vector<uint8_t> bytes;
  nn::save_model(bytes, victim);
  ByteReader r(bytes);
  auto loaded = nn::load_model(r);
  Rng rng(seed ^ 2);
  Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  EXPECT_TRUE(allclose(victim.forward(x, false), loaded->forward(x, false),
                       0.0f, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u));

// ---------------------------------------------------- pruning invariants ---

class PruneRatioProperty : public ::testing::TestWithParam<double> {};

TEST_P(PruneRatioProperty, SharedMaskKeepsBranchesAligned) {
  const double ratio = GetParam();
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.25;
  cfg.seed = 5;
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const auto points = models::prune_points(cfg);

  auto keep = core::compute_keep_lists(
      tb, points, ratio, 2, core::PruneConfig::Criterion::kAbsCompositeSum);
  for (size_t p = 0; p < points.size(); ++p) {
    core::apply_channel_keep(tb, points[p], keep[p]);
  }
  // Invariants: equal widths everywhere, model still functional, monotone
  // keep lists, floor respected.
  for (size_t p = 0; p < points.size(); ++p) {
    const auto rp = core::resolve_point(tb, points[p]);
    EXPECT_EQ(rp.bn_exposed->channels(), rp.bn_secure->channels());
    EXPECT_GE(rp.bn_secure->channels(), 2);
    EXPECT_EQ(rp.bn_secure->channels(),
              static_cast<int64_t>(keep[p].size()));
  }
  Rng rng(6);
  Tensor x = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  EXPECT_EQ(tb.forward(x, false).shape(), Shape({1, 10}));
}

INSTANTIATE_TEST_SUITE_P(Ratios, PruneRatioProperty,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5));

// ----------------------------------------------------- channel invariant ---

class ChannelDirection
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST(ChannelProperty, OnlyNormalToSecureEverSucceeds) {
  for (const auto policy : {tee::OneWayChannel::Policy::kOneWayIntoTee,
                            tee::OneWayChannel::Policy::kBidirectional}) {
    tee::OneWayChannel ch(policy);
    ch.push(tee::World::kNormal, tee::World::kSecure, 128);  // always legal
    if (policy == tee::OneWayChannel::Policy::kOneWayIntoTee) {
      EXPECT_THROW(ch.push(tee::World::kSecure, tee::World::kNormal, 1),
                   tee::SecurityViolation);
      EXPECT_EQ(ch.leaked_bytes(), 0);
    } else {
      ch.push(tee::World::kSecure, tee::World::kNormal, 1);
      EXPECT_EQ(ch.leaked_bytes(), 1);
    }
  }
}

// ------------------------------------------------------ timeline algebra ---

class TimelineScale : public ::testing::TestWithParam<double> {};

TEST_P(TimelineScale, MakespanIsMonotoneInWork) {
  // Scaling every stage's work up must never shorten the schedule.
  const double scale = GetParam();
  tee::CostModel cm(tee::DeviceProfile::rpi3());
  std::vector<tee::StageCost> base, scaled;
  for (int i = 0; i < 6; ++i) {
    tee::StageCost c{2'000'000 + i * 500'000, 1'000'000, 8192};
    base.push_back(c);
    c.exposed_macs = static_cast<int64_t>(c.exposed_macs * scale);
    c.secure_macs = static_cast<int64_t>(c.secure_macs * scale);
    scaled.push_back(c);
  }
  const double m0 = simulate_two_branch(cm, base).makespan_s;
  const double m1 = simulate_two_branch(cm, scaled).makespan_s;
  if (scale >= 1.0) {
    EXPECT_GE(m1 + 1e-12, m0);
  } else {
    EXPECT_LE(m1, m0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, TimelineScale,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

// ------------------------------------------------ dataset distributional ---

TEST(DatasetProperty, BalancedLabelsForAnySize) {
  for (int64_t n : {37, 100, 250}) {
    data::SyntheticCifar::Options opt;
    opt.classes = 10;
    opt.samples = n;
    opt.image_size = 16;
    data::SyntheticCifar ds(opt);
    std::vector<int64_t> counts(10, 0);
    for (int64_t i = 0; i < n; ++i) counts[static_cast<size_t>(ds.get(i).label)]++;
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*hi - *lo, 1) << "n=" << n;  // round-robin balance
  }
}

TEST(DatasetProperty, DifficultyRaisesNoise) {
  // Higher difficulty -> lower correlation between same-class samples.
  auto same_class_corr = [](double difficulty) {
    data::SyntheticCifar::Options opt;
    opt.classes = 10;
    opt.samples = 40;
    opt.image_size = 16;
    opt.difficulty = difficulty;
    data::SyntheticCifar ds(opt);
    double acc = 0;
    int pairs = 0;
    for (int64_t i = 0; i < 10; ++i) {
      const Tensor a = ds.get(i).image;
      const Tensor b = ds.get(i + 10).image;  // same class
      double num = 0, da = 0, db = 0;
      for (int64_t j = 0; j < a.numel(); ++j) {
        num += a[j] * b[j];
        da += a[j] * a[j];
        db += b[j] * b[j];
      }
      acc += num / std::sqrt(da * db + 1e-9);
      ++pairs;
    }
    return acc / pairs;
  };
  EXPECT_GT(same_class_corr(0.1), same_class_corr(0.9));
}

}  // namespace
}  // namespace tbnet
