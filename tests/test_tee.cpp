// Tests for the TEE simulator: secure memory, one-way channel, cost model,
// timelines, and the OP-TEE-style session API.

#include <gtest/gtest.h>

#include "tee/channel.h"
#include "tee/cost_model.h"
#include "tee/device_profile.h"
#include "tee/optee_api.h"
#include "tee/secure_memory.h"

namespace tbnet::tee {
namespace {

// -------------------------------------------------------- SecureMemory -----

TEST(SecureMemory, TracksLiveAndPeak) {
  SecureMemoryPool pool;
  {
    auto a = pool.allocate(100, "a");
    EXPECT_EQ(pool.live_bytes(), 100);
    {
      auto b = pool.allocate(50, "b");
      EXPECT_EQ(pool.live_bytes(), 150);
    }
    EXPECT_EQ(pool.live_bytes(), 100);
  }
  EXPECT_EQ(pool.live_bytes(), 0);
  EXPECT_EQ(pool.peak_bytes(), 150);
}

TEST(SecureMemory, EnforcesBudget) {
  SecureMemoryPool pool(128);
  auto a = pool.allocate(100, "model");
  EXPECT_THROW(pool.allocate(29, "too-much"), SecurityViolation);
  auto b = pool.allocate(28, "fits");
  EXPECT_EQ(pool.live_bytes(), 128);
}

TEST(SecureMemory, UnlimitedWhenBudgetZero) {
  SecureMemoryPool pool(0);
  auto a = pool.allocate(1ll << 40, "huge");
  EXPECT_EQ(pool.live_bytes(), 1ll << 40);
}

TEST(SecureMemory, MoveTransfersOwnership) {
  SecureMemoryPool pool;
  auto a = pool.allocate(10, "a");
  SecureMemoryPool::Allocation b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.live_bytes(), 10);
  b.release();
  EXPECT_EQ(pool.live_bytes(), 0);
}

TEST(SecureMemory, RejectsNegative) {
  SecureMemoryPool pool;
  EXPECT_THROW(pool.allocate(-1, "bad"), std::invalid_argument);
}

// ------------------------------------------------------------- Channel -----

TEST(OneWayChannel, AllowsIntoTeeAndCounts) {
  OneWayChannel ch;
  ch.push(World::kNormal, World::kSecure, 1000);
  ch.push(World::kNormal, World::kSecure, 24);
  EXPECT_EQ(ch.transfer_count(), 2);
  EXPECT_EQ(ch.total_bytes(), 1024);
  EXPECT_EQ(ch.bytes_into_tee(), 1024);
  EXPECT_EQ(ch.leaked_bytes(), 0);
}

TEST(OneWayChannel, BlocksTeeToReeUnderOneWayPolicy) {
  OneWayChannel ch;
  EXPECT_THROW(ch.push(World::kSecure, World::kNormal, 8),
               SecurityViolation);
  // Nothing is recorded for the rejected transfer.
  EXPECT_EQ(ch.transfer_count(), 0);
}

TEST(OneWayChannel, BidirectionalPolicyCountsLeaks) {
  OneWayChannel ch(OneWayChannel::Policy::kBidirectional);
  ch.push(World::kSecure, World::kNormal, 4096);
  EXPECT_EQ(ch.leaked_bytes(), 4096);
}

TEST(OneWayChannel, RejectsDegenerateTransfers) {
  OneWayChannel ch;
  EXPECT_THROW(ch.push(World::kNormal, World::kNormal, 1),
               std::invalid_argument);
  EXPECT_THROW(ch.push(World::kNormal, World::kSecure, -1),
               std::invalid_argument);
}

TEST(OneWayChannel, ResetClearsCounters) {
  OneWayChannel ch;
  ch.push(World::kNormal, World::kSecure, 10);
  ch.reset();
  EXPECT_EQ(ch.transfer_count(), 0);
  EXPECT_EQ(ch.total_bytes(), 0);
}

// ----------------------------------------------------------- CostModel -----

TEST(CostModel, TeeSlowerThanRee) {
  CostModel cm(DeviceProfile::rpi3());
  const int64_t macs = 1'000'000;
  EXPECT_GT(cm.compute_seconds(World::kSecure, macs),
            cm.compute_seconds(World::kNormal, macs));
}

TEST(CostModel, MonotoneInMacsAndBytes) {
  CostModel cm(DeviceProfile::rpi3());
  EXPECT_LT(cm.compute_seconds(World::kSecure, 100),
            cm.compute_seconds(World::kSecure, 200));
  EXPECT_LT(cm.transfer_seconds(100), cm.transfer_seconds(1 << 20));
  EXPECT_GT(cm.transfer_seconds(0), 0.0);  // world switch is never free
  EXPECT_THROW(cm.compute_seconds(World::kSecure, -1), std::invalid_argument);
}

class TimelineStages : public ::testing::TestWithParam<int> {};

TEST_P(TimelineStages, TwoBranchNeverBeatsItsOwnTeeWork) {
  // Makespan >= total TEE compute and >= total REE compute (both are lower
  // bounds for any 2-processor schedule).
  const int n = GetParam();
  CostModel cm(DeviceProfile::rpi3());
  std::vector<StageCost> stages;
  for (int i = 0; i < n; ++i) {
    stages.push_back(StageCost{1'000'000 + 100'000 * i,
                               400'000 + 50'000 * i, 4096 * (i + 1)});
  }
  const TimelineResult r = simulate_two_branch(cm, stages);
  EXPECT_GE(r.makespan_s, r.tee_busy_s - 1e-12);
  EXPECT_GE(r.makespan_s, r.ree_busy_s - 1e-12);
  ASSERT_EQ(r.stage_finish_s.size(), static_cast<size_t>(n));
  for (size_t i = 1; i < r.stage_finish_s.size(); ++i) {
    EXPECT_GE(r.stage_finish_s[i], r.stage_finish_s[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimelineStages, ::testing::Values(1, 3, 8, 17));

TEST(Timeline, PrunedTbnetBeatsFullTeeBaseline) {
  // The paper's headline: full victim in TEE vs pruned secure branch in TEE
  // with the (rolled-back) exposed branch running in the faster REE.
  CostModel cm(DeviceProfile::rpi3());
  std::vector<int64_t> victim_macs(10, 30'000'000);
  const auto baseline =
      simulate_full_tee(cm, victim_macs, 3 * 32 * 32 * 4);
  std::vector<StageCost> tbnet;
  for (int i = 0; i < 10; ++i) {
    // Secure branch pruned to ~45% of the victim's per-stage work.
    tbnet.push_back(StageCost{30'000'000, 13'500'000, 32 * 32 * 64 * 4});
  }
  const auto split = simulate_two_branch(cm, tbnet);
  EXPECT_LT(split.makespan_s, baseline.makespan_s);
  const double reduction = baseline.makespan_s / split.makespan_s;
  EXPECT_GT(reduction, 1.05);
  EXPECT_LT(reduction, 2.5);
}

TEST(Timeline, FullTeeIsSerial) {
  CostModel cm(DeviceProfile::rpi3());
  const auto r = simulate_full_tee(cm, {1'000'000, 2'000'000}, 1000);
  EXPECT_NEAR(r.makespan_s,
              cm.transfer_seconds(1000) +
                  cm.compute_seconds(World::kSecure, 3'000'000),
              1e-12);
}

TEST(Timeline, PartitionChargesBoundaryTransfer) {
  CostModel cm(DeviceProfile::rpi3());
  const std::vector<int64_t> macs = {1'000'000, 1'000'000, 1'000'000};
  const std::vector<int64_t> bytes = {4096, 4096, 40};
  const auto r = simulate_partition(cm, macs, bytes, 1, 12288);
  const double expected = cm.compute_seconds(World::kNormal, 1'000'000) +
                          cm.transfer_seconds(4096) +
                          cm.compute_seconds(World::kSecure, 2'000'000) +
                          cm.switch_seconds();
  EXPECT_NEAR(r.makespan_s, expected, 1e-12);
}

TEST(Timeline, AcceleratedReeImprovesTbnetOnly) {
  // Discussion §5.3: REE-side acceleration (threads/NEON/GPU) speeds TBNet
  // up but leaves the all-in-TEE baseline untouched.
  std::vector<StageCost> stages(6, StageCost{20'000'000, 9'000'000, 65536});
  CostModel slow(DeviceProfile::rpi3());
  CostModel fast(DeviceProfile::rpi3_accelerated_ree(4.0));
  const auto a = simulate_two_branch(slow, stages);
  const auto b = simulate_two_branch(fast, stages);
  EXPECT_LT(b.makespan_s, a.makespan_s);
  std::vector<int64_t> victim(6, 20'000'000);
  EXPECT_NEAR(simulate_full_tee(slow, victim, 12288).makespan_s,
              simulate_full_tee(fast, victim, 12288).makespan_s, 1e-12);
}

// ------------------------------------------------------------ OP-TEE API ---

class EchoTA : public TrustedApp {
 public:
  uint32_t invoke(uint32_t command, const std::vector<uint8_t>& in,
                  std::vector<uint8_t>& out, TaContext&) override {
    if (command == 1) out = in;          // echo (leaks input back!)
    if (command == 2) out = {1, 2, 3};   // small result
    return kTeeSuccess;
  }
};

class GreedyTA : public TrustedApp {
 public:
  void on_install(TaContext& ctx) override {
    alloc_ = ctx.memory->allocate(1 << 20, "greedy/model");
  }
  uint32_t invoke(uint32_t, const std::vector<uint8_t>&,
                  std::vector<uint8_t>&, TaContext& ctx) override {
    auto scratch = ctx.memory->allocate(1 << 20, "greedy/scratch");
    return kTeeSuccess;
  }

 private:
  SecureMemoryPool::Allocation alloc_;
};

TEST(OpteeApi, SessionRoutesCommands) {
  SecureWorld world;
  world.install("echo", std::make_unique<EchoTA>());
  TeeContext ctx(world);
  TeeSession session = ctx.open_session("echo");
  std::vector<uint8_t> out;
  EXPECT_EQ(session.invoke(2, {9, 9}, &out), kTeeSuccess);
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(ctx.channel().bytes_into_tee(), 2);
}

TEST(OpteeApi, LargeResultsAreBlocked) {
  SecureWorld world;
  world.install("echo", std::make_unique<EchoTA>());
  TeeContext ctx(world);
  TeeSession session = ctx.open_session("echo", /*max_result_bytes=*/16);
  std::vector<uint8_t> big(64, 7);
  std::vector<uint8_t> out;
  // The echo TA tries to return 64 B through a 16 B cap: feature-map-sized
  // returns are exactly what the one-way design forbids.
  EXPECT_THROW(session.invoke(1, big, &out), SecurityViolation);
}

TEST(OpteeApi, UnknownTaThrows) {
  SecureWorld world;
  TeeContext ctx(world);
  EXPECT_THROW(ctx.open_session("missing"), std::invalid_argument);
}

TEST(OpteeApi, InstallClaimsSecureMemory) {
  SecureWorld world(2 << 20);
  world.install("greedy", std::make_unique<GreedyTA>());
  EXPECT_EQ(world.memory().live_bytes(), 1 << 20);
  TeeContext ctx(world);
  TeeSession s = ctx.open_session("greedy");
  EXPECT_EQ(s.invoke(0, {}), kTeeSuccess);
  EXPECT_EQ(world.memory().peak_bytes(), 2 << 20);
}

TEST(OpteeApi, InstallFailsWhenModelDoesNotFit) {
  SecureWorld world(1 << 10);  // 1 KiB budget
  EXPECT_THROW(world.install("greedy", std::make_unique<GreedyTA>()),
               SecurityViolation);
}

TEST(OpteeApi, PackUnpackRoundTrip) {
  std::vector<uint8_t> buf;
  pack_i64(buf, -42);
  const float fs[3] = {1.5f, -2.5f, 3.0f};
  pack_floats(buf, fs, 3);
  size_t off = 0;
  EXPECT_EQ(unpack_i64(buf, &off), -42);
  const auto floats = unpack_floats(buf, &off, 3);
  EXPECT_EQ(floats[1], -2.5f);
  EXPECT_EQ(off, buf.size());
  EXPECT_THROW(unpack_i64(buf, &off), std::runtime_error);
}

TEST(OpteeApi, UnpackFloatsRejectsHostileCounts) {
  std::vector<uint8_t> buf;
  const float fs[2] = {1.0f, 2.0f};
  pack_floats(buf, fs, 2);
  size_t off = 0;
  EXPECT_THROW(unpack_floats(buf, &off, -1), std::runtime_error);
  EXPECT_THROW(unpack_floats(buf, &off, 3), std::runtime_error);
  // 2^62 floats are 2^64 bytes: the byte count wraps to 0 in size_t.
  EXPECT_THROW(unpack_floats(buf, &off, int64_t{1} << 62), std::runtime_error);
  EXPECT_EQ(off, 0u);  // a rejected read consumes nothing
  EXPECT_EQ(unpack_floats(buf, &off, 2)[1], 2.0f);
  EXPECT_THROW(unpack_floats(buf, &off, 1), std::runtime_error);
  EXPECT_TRUE(unpack_floats(buf, &off, 0).empty());
}

}  // namespace
}  // namespace tbnet::tee
