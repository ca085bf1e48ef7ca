#include "serving.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <thread>

#include "checks.h"
#include "nn/fuse.h"
#include "runtime/measurements.h"
#include "runtime/profiler.h"
#include "tee/cost_model.h"
#include "tee/device_profile.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace perfbench {

using namespace tbnet;

runtime::InferenceServer::Config soak_config() {
  runtime::InferenceServer::Config c;
  c.max_batch = 16;
  c.max_queue_delay = std::chrono::microseconds(2000);
  c.queue_capacity = 64;
  c.admission = runtime::AdmissionPolicy::kShedOldest;
  c.default_deadline = std::chrono::milliseconds(100);
  return c;
}

namespace {

/// Counters of one server accumulated since `before` was snapshot.
runtime::ServingStats stats_since(const runtime::ServingStats& before,
                                  const runtime::ServingStats& now) {
  runtime::ServingStats d = now;
  d.requests -= before.requests;
  d.batches -= before.batches;
  d.coalesced_images -= before.coalesced_images;
  d.rejected -= before.rejected;
  d.shed -= before.shed;
  d.expired -= before.expired;
  d.engine_errors -= before.engine_errors;
  d.integrity_errors -= before.integrity_errors;
  d.uptime_s -= before.uptime_s;
  for (size_t w = 0; w < d.per_worker.size() && w < before.per_worker.size(); ++w) {
    d.per_worker[w].batches -= before.per_worker[w].batches;
    d.per_worker[w].images -= before.per_worker[w].images;
    d.per_worker[w].busy_s -= before.per_worker[w].busy_s;
  }
  return d;
}

}  // namespace

void BatchLog::add(BatchRecord r) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(r);
}

std::vector<BatchRecord> BatchLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void BatchLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

Device::Device(const core::TwoBranchModel& model, int workers)
    : world_(tee::DeviceProfile::rpi3().secure_mem_budget) {
  const tee::DeviceProfile profile = tee::DeviceProfile::rpi3();
  runtime::DeployedTBNet::Options opt;
  opt.max_batch = 16;
  for (int w = 0; w < workers; ++w) {
    contexts_.push_back(std::make_unique<tee::TeeContext>(world_));
    contexts_.back()->faults().set_rate(0.0);
    const auto t0 = Clock::now();
    engines_.push_back(std::make_unique<runtime::DeployedTBNet>(
        model, *contexts_.back(), "perfbench-engine-" + std::to_string(w), opt));
    deploy_s_.push_back(since(t0));
    engines_.back()->session().simulate_timing(profile);
  }
}

std::unique_ptr<runtime::InferenceServer> Device::serve(BatchLog* log,
                                                        Tracer* tracer) {
  std::vector<runtime::InferenceServer::BatchFn> fns;
  for (int w = 0; w < workers(); ++w) {
    runtime::DeployedTBNet* eng = engines_[static_cast<size_t>(w)].get();
    if (log == nullptr || tracer == nullptr) {
      fns.push_back([eng](const Tensor& nchw) { return eng->infer_batch(nchw); });
      continue;
    }
    tee::TeeContext* ctx = contexts_[static_cast<size_t>(w)].get();
    fns.push_back([eng, ctx, log, tracer, w](const Tensor& nchw) {
      const int64_t switches0 = eng->world_switches();
      const double stall0 = eng->session().simulated_overhead_s();
      const int64_t bytes0 = ctx->channel().bytes_into_tee();
      const auto t0 = Clock::now();
      Tensor logits = eng->infer_batch(nchw);
      const auto t1 = Clock::now();
      BatchRecord r;
      r.worker = w;
      r.images = nchw.dim(0);
      r.start_s = tracer->at(t0);
      r.end_s = tracer->at(t1);
      r.switches = eng->world_switches() - switches0;
      r.stall_s = eng->session().simulated_overhead_s() - stall0;
      r.bytes_in = ctx->channel().bytes_into_tee() - bytes0;
      Tracer::Span s;
      s.name = "runtime.engine.batch";
      s.start_s = r.start_s;
      s.end_s = r.end_s;
      s.lane = 1 + w;
      s.args = "\"images\": " + std::to_string(r.images) +
               ", \"tee.invokes\": " + std::to_string(r.switches) +
               ", \"tee.stall_ms\": " + std::to_string(r.stall_s * 1e3) +
               ", \"tee.bytes_in\": " + std::to_string(r.bytes_in);
      r.span = tracer->add(std::move(s));
      log->add(r);
      return logits;
    });
  }
  return std::make_unique<runtime::InferenceServer>(std::move(fns), soak_config());
}

std::vector<int64_t> Device::leaked_bytes() {
  std::vector<int64_t> out;
  for (auto& ctx : contexts_) out.push_back(ctx->channel().leaked_bytes());
  return out;
}

int64_t Phase::failed() const {
  int64_t n = 0;
  for (const RequestRecord& r : requests) n += r.result.ok() ? 0 : 1;
  return n;
}

std::vector<double> Phase::latencies_ms() const {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const RequestRecord& r : requests) {
    out.push_back(r.result.ok() ? r.latency_s * 1e3
                                : std::numeric_limits<double>::infinity());
  }
  return out;
}

Phase closed_loop(runtime::InferenceServer& server, const std::vector<Tensor>& pool,
                  double seconds, const Tracer* tracer) {
  Phase ph;
  const runtime::ServingStats before = server.stats();
  const auto t0 = Clock::now();
  auto last_done = t0;
  for (int64_t k = 0; since(t0) < seconds; ++k) {
    RequestRecord rec;
    rec.image = k % static_cast<int64_t>(pool.size());
    const auto sent = Clock::now();
    std::future<runtime::InferenceResult> fut =
        server.submit(pool[static_cast<size_t>(rec.image)]);
    // Poll rather than block, so the client's own wake-up is not timed.
    while (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    }
    const auto done = Clock::now();
    rec.result = fut.get();
    rec.lag_s = to_seconds(sent - last_done);
    rec.submit_s = rec.due_s = tracer ? tracer->at(sent) : to_seconds(sent - t0);
    rec.latency_s = to_seconds(done - sent);
    last_done = done;
    ph.requests.push_back(std::move(rec));
  }
  server.drain();
  ph.stats = stats_since(before, server.stats());
  ph.wall_s = since(t0);
  return ph;
}

constexpr auto kSpinTail = std::chrono::microseconds(200);

Phase open_loop(runtime::InferenceServer& server, const std::vector<Tensor>& pool,
                double rate, double seconds, uint64_t seed, const Tracer* tracer) {
  Phase ph;
  Rng rng(seed);
  std::vector<std::future<runtime::InferenceResult>> futures;
  const runtime::ServingStats before = server.stats();
  const auto t0 = Clock::now();
  double due = 0.0;
  for (;;) {
    due += -std::log(1.0 - rng.uniform()) / rate;
    if (due >= seconds) break;
    const auto due_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due));
    // Sleep most of the gap and spin the rest, so a late wake-up does not
    // become generator lag.
    std::this_thread::sleep_until(due_at - kSpinTail);
    while (Clock::now() < due_at) {
    }
    const auto sent = Clock::now();
    RequestRecord rec;
    rec.image = rng.uniform_int(static_cast<int64_t>(pool.size()));
    rec.lag_s = to_seconds(sent - due_at);
    rec.due_s = tracer ? tracer->at(due_at) : due;
    rec.submit_s = tracer ? tracer->at(sent) : to_seconds(sent - t0);
    futures.push_back(server.submit(pool[static_cast<size_t>(rec.image)]));
    ph.requests.push_back(std::move(rec));
  }
  server.drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    RequestRecord& rec = ph.requests[i];
    if (futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++ph.unresolved;
      if (futures[i].wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
        rec.result.status = runtime::Status::kRejected;
        rec.result.error = "unresolved after drain";
        continue;
      }
    }
    rec.result = futures[i].get();
    // Timed from the scheduled send: a late generator delays the request.
    rec.latency_s = rec.lag_s + rec.result.total_s;
  }
  ph.stats = stats_since(before, server.stats());
  ph.wall_s = since(t0);
  return ph;
}

std::vector<double> trace_requests(const Phase& phase,
                                   const std::vector<BatchRecord>& batches,
                                   Tracer& tracer) {
  std::vector<double> dispatch_s;
  std::vector<BatchRecord> sorted = batches;
  std::sort(sorted.begin(), sorted.end(),
            [](const BatchRecord& a, const BatchRecord& b) { return a.start_s < b.start_s; });
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const RequestRecord& r = phase.requests[i];
    const auto rid = static_cast<int64_t>(i);
    Tracer::Span req;
    req.name = "request";
    req.start_s = r.due_s;
    req.end_s = r.submit_s + r.result.total_s;
    req.request = rid;
    req.args = "\"status\": \"" + std::string(runtime::status_name(r.result.status)) + "\"";
    const int64_t root = tracer.add(std::move(req));
    Tracer::Span queue;
    queue.name = "runtime.server.queue";
    queue.start_s = r.submit_s;
    queue.end_s = r.submit_s + r.result.queue_s;
    queue.parent = root;
    queue.request = rid;
    tracer.add(std::move(queue));
    if (!r.result.ok()) continue;
    // The batch this request rode in: the first one of its size that
    // started after the request left the queue.
    const double claimed = r.submit_s + r.result.queue_s;
    auto it = std::lower_bound(sorted.begin(), sorted.end(), claimed - 1e-4,
                               [](const BatchRecord& b, double t) { return b.start_s < t; });
    while (it != sorted.end() && it->images != r.result.batch_size) ++it;
    if (it == sorted.end()) continue;
    Tracer::Span eng;
    eng.name = "runtime.engine";
    eng.start_s = it->start_s;
    eng.end_s = it->end_s;
    eng.parent = root;
    eng.request = rid;
    eng.args = "\"batch_span\": " + std::to_string(it->span);
    tracer.add(std::move(eng));
    dispatch_s.push_back(r.result.total_s - r.result.queue_s - (it->end_s - it->start_s));
  }
  return dispatch_s;
}

namespace {

/// Stand-in TA for timing the simulator's own invoke cost: acknowledges the
/// payload size and does nothing else.
class EchoTA : public tee::TrustedApp {
 public:
  uint32_t invoke(uint32_t, const std::vector<uint8_t>& in, std::vector<uint8_t>& out,
                  tee::TaContext&) override {
    tee::pack_i64(out, static_cast<int64_t>(in.size()));
    return tee::kTeeSuccess;
  }
};

/// A stage block frozen the way DeployedTBNet freezes it: clone, fold
/// inference BatchNorm, pre-pack for `ctx`.
std::unique_ptr<nn::Layer> freeze(const nn::Layer& block, ExecutionContext& ctx) {
  std::unique_ptr<nn::Layer> copy = block.clone();
  if (simd::fast_kernels_enabled()) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(copy.get())) {
      nn::fold_batchnorm_inference(*seq);
    }
  }
  copy->prepare_inference(ctx);
  return copy;
}

/// The engine's payload layout: rank, dims, then the floats.
void pack_tensor(std::vector<uint8_t>& buf, const Tensor& t) {
  tee::pack_i64(buf, t.shape().ndim());
  for (int64_t d : t.shape().dims()) tee::pack_i64(buf, d);
  tee::pack_floats(buf, t.data(), t.numel());
}

Tensor unpack_tensor(const std::vector<uint8_t>& buf, size_t* off) {
  const int64_t rank = tee::unpack_i64(buf, off);
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < rank; ++i) dims.push_back(tee::unpack_i64(buf, off));
  Shape shape(dims);
  return Tensor(shape, tee::unpack_floats(buf, off, shape.numel()));
}

constexpr int kReplayReps = 31;

}  // namespace

void replay_stages(core::TwoBranchModel& product, const nn::Sequential& victim,
                   const Tensor& batch, const std::vector<BatchRecord>& batches,
                   Tracer& tracer, Report& report) {
  const int stages = product.num_stages();
  const int64_t n = batch.dim(0);
  const auto per_image = static_cast<double>(n);
  ExecutionContext ree_ctx(tee::World::kNormal);
  ExecutionContext tee_ctx(tee::World::kSecure);
  std::vector<std::unique_ptr<nn::Layer>> exposed(static_cast<size_t>(stages));
  std::vector<std::unique_ptr<nn::Layer>> secure(static_cast<size_t>(stages));
  for (int i = 0; i < stages; ++i) {
    const core::FusionStage& st = product.stage(i);
    secure[static_cast<size_t>(i)] = freeze(*st.secure, tee_ctx);
    if (st.fused) exposed[static_cast<size_t>(i)] = freeze(*st.exposed, ree_ctx);
  }

  std::vector<std::vector<double>> ree_s(static_cast<size_t>(stages));
  std::vector<std::vector<double>> ta_s(static_cast<size_t>(stages));
  std::vector<double> marshal_s, fuse_s;
  std::vector<size_t> payloads;  // bytes of each invoke's input, engine order
  Tensor logits;
  const int64_t root = tracer.open("replay");
  for (int rep = 0; rep <= kReplayReps; ++rep) {  // rep 0 warms up
    Tracer* t = rep == 1 ? &tracer : nullptr;
    double marshal = 0.0, fuse = 0.0;
    std::vector<size_t> sizes;
    std::vector<uint8_t> buf;
    Tensor acc;
    marshal += timed(t, "tee.marshal", root, [&] {
      buf.clear();
      pack_tensor(buf, batch);
      size_t off = 0;
      acc = unpack_tensor(buf, &off);
    });
    sizes.push_back(buf.size());
    Tensor r = batch;
    for (int i = 0; i < stages; ++i) {
      const auto si = static_cast<size_t>(i);
      const core::FusionStage& st = product.stage(i);
      const std::string tag = ".s" + std::to_string(i);
      Tensor r_in_tee;
      if (st.fused) {
        const double d = timed(t, "nn.ree_forward" + tag, root, [&] {
          r = exposed[si]->forward(ree_ctx, r, false);
        });
        if (rep > 0) ree_s[si].push_back(d);
        marshal += timed(t, "tee.marshal" + tag, root, [&] {
          buf.clear();
          tee::pack_i64(buf, i);
          pack_tensor(buf, r);
          size_t off = 0;
          tee::unpack_i64(buf, &off);
          r_in_tee = unpack_tensor(buf, &off);
        });
        sizes.push_back(buf.size());
      }
      Tensor out;
      const double d = timed(t, "nn.ta_forward" + tag, root, [&] {
        out = secure[si]->forward(tee_ctx, acc, false);
      });
      if (rep > 0) ta_s[si].push_back(d);
      if (st.fused) {
        fuse += timed(t, "core.fuse" + tag, root, [&] {
          Tensor aligned = core::gather_channels(r_in_tee, st.channel_map);
          add(tee_ctx, out, aligned, out);
        });
      }
      acc = std::move(out);
    }
    marshal += timed(t, "tee.marshal.logits", root, [&] {
      buf.clear();
      pack_tensor(buf, acc);
      size_t off = 0;
      logits = unpack_tensor(buf, &off);
    });
    if (rep > 0) {
      marshal_s.push_back(marshal);
      fuse_s.push_back(fuse);
      payloads = sizes;
    }
  }
  tracer.close(root);

  // The simulator's own invoke cost: the same payload sizes pushed into an
  // echo TA under rpi3 timing, minus the stall the session injected.
  tee::SecureWorld echo_world;
  echo_world.install("perfbench-echo", std::make_unique<EchoTA>());
  tee::TeeContext echo_ctx(echo_world);
  echo_ctx.faults().set_rate(0.0);
  tee::TeeSession session = echo_ctx.open_session("perfbench-echo");
  session.simulate_timing(tee::DeviceProfile::rpi3());
  payloads.push_back(0);  // GetLogits carries no input
  std::vector<double> sim_s;
  std::vector<uint8_t> out;
  for (int rep = 0; rep <= kReplayReps; ++rep) {
    for (size_t bytes : payloads) {
      const std::vector<uint8_t> payload(bytes, 0x5a);
      const double stall0 = session.simulated_overhead_s();
      const auto t0 = Clock::now();
      session.invoke(runtime::kCmdPushStage, payload, &out);
      const double dt = since(t0);
      if (rep > 0) sim_s.push_back(dt - (session.simulated_overhead_s() - stall0));
    }
  }
  const double invoke_sim_s = median(sim_s);

  // The traced phase's engine batches: all of them, and those of the size
  // replayed (their span is what the replay's parts must add up to).
  std::vector<double> batch_s, same_s, same_stall_s;
  double busy_s = 0.0, stall_total_s = 0.0;
  int64_t images = 0, switches = 0, bytes_in = 0;
  for (const BatchRecord& b : batches) {
    const double d = b.end_s - b.start_s;
    batch_s.push_back(d);
    busy_s += d;
    stall_total_s += b.stall_s;
    images += b.images;
    switches += b.switches;
    bytes_in += b.bytes_in;
    if (b.images == n) {
      same_s.push_back(d);
      same_stall_s.push_back(b.stall_s);
    }
  }
  const auto nb = static_cast<int64_t>(batches.size());
  const double nbd = std::max<double>(1.0, static_cast<double>(nb));
  report.set("runtime.engine.batch_ms_p50", median(batch_s) * 1e3, "ms", nb);
  report.set("runtime.engine.ms_per_image", images ? busy_s / images * 1e3 : 0.0, "ms", images);
  report.set("tee.invokes_per_batch", static_cast<double>(switches) / nbd, "count", nb);
  report.set("tee.stall_ms_per_batch", stall_total_s / nbd * 1e3, "ms", nb);
  report.set("tee.stall_share", busy_s > 0 ? stall_total_s / busy_s : 0.0, "share", nb);
  report.set("tee.bytes_in_per_image",
             images ? static_cast<double>(bytes_in) / static_cast<double>(images) : 0.0,
             "bytes", images);
  report.set("tee.invoke_sim_us", invoke_sim_s * 1e6, "us",
             static_cast<int64_t>(sim_s.size()));
  report.set("replay.batch", per_image, "count");

  double ree_total = 0.0, ta_total = 0.0;
  for (int i = 0; i < stages; ++i) {
    const auto si = static_cast<size_t>(i);
    const std::string tag = ".s" + std::to_string(i);
    if (!ree_s[si].empty()) {
      const double v = median(ree_s[si]) / per_image;
      ree_total += v;
      report.set("nn.ree_forward_ms" + tag, v * 1e3, "ms", kReplayReps);
    }
    const double v = median(ta_s[si]) / per_image;
    ta_total += v;
    report.set("nn.ta_forward_ms" + tag, v * 1e3, "ms", kReplayReps);
  }
  const double marshal = median(marshal_s) / per_image;
  const double fuse = median(fuse_s) / per_image;
  report.set("nn.ree_forward_ms", ree_total * 1e3, "ms", kReplayReps);
  report.set("nn.ta_forward_ms", ta_total * 1e3, "ms", kReplayReps);
  report.set("tee.marshal_ms_per_image", marshal * 1e3, "ms", kReplayReps);
  report.set("core.fuse_ms_per_image", fuse * 1e3, "ms", kReplayReps);

  // Engine span of the replayed batch size minus every part the replay
  // measured: what the engine spends outside the public calls.
  const double engine_s = same_s.empty() ? median(batch_s) : median(same_s);
  const auto invokes = static_cast<double>(payloads.size());
  const double stall_s = same_stall_s.empty() ? stall_total_s / nbd : median(same_stall_s);
  const double crossing = (stall_s + invokes * invoke_sim_s) / per_image + marshal;
  const double attributed = ree_total + ta_total + fuse + crossing;
  report.set("replay.engine_batch_ms", engine_s * 1e3, "ms");
  report.set("replay.parts_batch_ms", attributed * per_image * 1e3, "ms");
  report.set("replay.stall_batch_ms", stall_s * 1e3, "ms");
  report.set("runtime.engine.unattributed_ms_per_image",
             (engine_s / per_image - attributed) * 1e3, "ms",
             static_cast<int64_t>(same_s.size()));

  // Kernel rates from the static MAC counts at the replayed batch.
  const runtime::TwoBranchFootprint fp = runtime::measure_two_branch(product, Shape{3, 32, 32});
  double ree_macs = 0.0, tee_macs = 0.0;
  for (const tee::StageCost& c : fp.stages) {
    ree_macs += static_cast<double>(c.exposed_macs);
    tee_macs += static_cast<double>(c.secure_macs);
  }
  report.set("nn.ree_gmacs", ree_total > 0 ? ree_macs / ree_total / 1e9 : 0.0, "GMAC/s");
  report.set("nn.ta_gmacs", ta_total > 0 ? tee_macs / ta_total / 1e9 : 0.0, "GMAC/s");

  // tee::CostModel's forecast for the same product on the paper's device.
  const runtime::DeploymentProfile prof = runtime::profile_deployment(
      product, victim, tee::CostModel(tee::DeviceProfile::rpi3()), Shape{3, 32, 32});
  double m_ree = 0.0, m_tee = 0.0, m_xfer = 0.0;
  for (const runtime::StageProfile& s : prof.stages) {
    const std::string tag = ".s" + std::to_string(s.stage);
    report.set("model.ree_ms" + tag, s.ree_seconds * 1e3, "ms");
    report.set("model.tee_ms" + tag, s.tee_seconds * 1e3, "ms");
    report.set("model.transfer_ms" + tag, s.transfer_seconds * 1e3, "ms");
    m_ree += s.ree_seconds;
    m_tee += s.tee_seconds;
    m_xfer += s.transfer_seconds;
  }
  const tee::TimelineResult& tl = prof.tbnet_timeline;
  const double serial = tl.ree_busy_s + tl.tee_busy_s + tl.transfer_s;
  const double m_sum = m_ree + m_tee + m_xfer;
  report.set("model.ree_ms", m_ree * 1e3, "ms");
  report.set("model.tee_ms", m_tee * 1e3, "ms");
  report.set("model.transfer_ms", m_xfer * 1e3, "ms");
  report.set("model.makespan_ms", tl.makespan_s * 1e3, "ms");
  report.set("model.overlap_share", serial > 0 ? 1.0 - tl.makespan_s / serial : 0.0, "share");
  report.set("model.ree_share", m_sum > 0 ? m_ree / m_sum : 0.0, "share");
  report.set("model.tee_share", m_sum > 0 ? m_tee / m_sum : 0.0, "share");
  report.set("model.transfer_share", m_sum > 0 ? m_xfer / m_sum : 0.0, "share");
  report.set("model.ree_ratio", m_ree > 0 ? ree_total / m_ree : 0.0, "ratio");
  report.set("model.tee_ratio", m_tee > 0 ? (ta_total + fuse) / m_tee : 0.0, "ratio");
  report.set("model.transfer_ratio", m_xfer > 0 ? crossing / m_xfer : 0.0, "ratio");
  report.set("model.latency_ratio",
             tl.makespan_s > 0 ? engine_s / per_image / tl.makespan_s : 0.0, "ratio");
  report.set("model.measured_share_ree", engine_s > 0 ? ree_total * per_image / engine_s : 0.0,
             "share");
  report.set("model.measured_share_tee",
             engine_s > 0 ? (ta_total + fuse) * per_image / engine_s : 0.0, "share");
  report.set("model.measured_share_crossing",
             engine_s > 0 ? crossing * per_image / engine_s : 0.0, "share");

  // The replay must compute what the engine serves, or its split would
  // describe a different program.
  const Tensor reference = product.forward(batch, false);
  std::vector<Tensor> rows;
  const int64_t classes = logits.dim(1);
  for (int64_t b = 0; b < n; ++b) {
    rows.emplace_back(Shape{classes},
                      std::vector<float>(logits.data() + b * classes,
                                         logits.data() + (b + 1) * classes));
  }
  report.check("replay parity", check_parity(rows, reference));
}

}  // namespace perfbench
