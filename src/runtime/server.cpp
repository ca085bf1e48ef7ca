#include "runtime/server.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "nn/serialize.h"
#include "tee/fault.h"
#include "tensor/simd.h"

namespace tbnet::runtime {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kRejected:
      return "rejected";
    case Status::kExpired:
      return "expired";
    case Status::kEngineError:
      return "engine_error";
    case Status::kIntegrityError:
      return "integrity_error";
  }
  return "unknown";
}

InferenceServer::FixedPool InferenceServer::fixed_pool(
    std::vector<BatchFn> engines, std::vector<RecoverFn> recovery, Config cfg) {
  if (engines.empty()) {
    throw std::invalid_argument("InferenceServer: no engine functions");
  }
  if (!recovery.empty() && recovery.size() != engines.size()) {
    throw std::invalid_argument(
        "InferenceServer: recovery functions must be empty or one per engine");
  }
  cfg.min_workers = cfg.max_workers = static_cast<int>(engines.size());
  recovery.resize(engines.size());
  // Invoked once per slot, at construction: each engine moves to its slot.
  EngineFactory factory = [engines = std::move(engines),
                           recovery = std::move(recovery)](int w) mutable {
    const auto slot = static_cast<size_t>(w);
    return std::make_pair(std::move(engines[slot]), std::move(recovery[slot]));
  };
  return {std::move(factory), std::move(cfg)};
}

InferenceServer::InferenceServer(std::vector<BatchFn> engines,
                                 std::vector<RecoverFn> recovery, Config cfg)
    : InferenceServer(
          fixed_pool(std::move(engines), std::move(recovery), std::move(cfg))) {}

InferenceServer::InferenceServer(FixedPool pool)
    : InferenceServer(std::move(pool.factory), std::move(pool.cfg)) {}

InferenceServer::InferenceServer(EngineFactory factory, Config cfg)
    : factory_(std::move(factory)), cfg_(cfg), start_(Clock::now()) {
  if (!factory_) {
    throw std::invalid_argument("InferenceServer: null engine factory");
  }
  if (cfg_.min_workers < 1 || cfg_.max_workers < cfg_.min_workers) {
    throw std::invalid_argument(
        "InferenceServer: need 1 <= min_workers <= max_workers");
  }
  if (cfg_.max_batch <= 0) {
    throw std::invalid_argument("InferenceServer: max_batch must be positive");
  }
  if (cfg_.queue_capacity < 0) {
    throw std::invalid_argument(
        "InferenceServer: queue_capacity must be >= 0 (0 = unbounded)");
  }
  if (cfg_.input_chw.ndim() != 0 && cfg_.input_chw.ndim() != 3) {
    throw std::invalid_argument("InferenceServer: input_chw must be CHW, got " +
                                cfg_.input_chw.str());
  }
  expected_chw_ = cfg_.input_chw;
  // Every slot exists from the start — engines_/recovery_/control_ never
  // reallocate, so run_batch's unlocked engines_[w] read stays valid for the
  // server's lifetime. Slots above min_workers hold a null BatchFn until the
  // autoscaler builds one; their health (kParked) keeps their worker thread
  // from ever claiming work before then.
  const size_t slots = static_cast<size_t>(cfg_.max_workers);
  engines_.resize(slots);
  recovery_.resize(slots);
  control_.resize(slots);
  stats_.per_worker.resize(slots);
  stats_.workers_high_water = cfg_.min_workers;
  last_tick_ = start_;
  for (int w = 0; w < cfg_.max_workers; ++w) {
    if (w < cfg_.min_workers) {
      auto built = factory_(w);
      if (!built.first) {
        throw std::invalid_argument("InferenceServer: null engine for worker " +
                                    std::to_string(w));
      }
      engines_[static_cast<size_t>(w)] = std::move(built.first);
      recovery_[static_cast<size_t>(w)] = std::move(built.second);
    } else {
      control_[static_cast<size_t>(w)].health = WorkerHealth::kParked;
      stats_.per_worker[static_cast<size_t>(w)].health = WorkerHealth::kParked;
    }
  }
  workers_.reserve(slots);
  for (int w = 0; w < cfg_.max_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::resolve_failure(Pending& p, Status status,
                                      std::string error) {
  InferenceResult r;
  r.status = status;
  r.error = std::move(error);
  r.queue_s = seconds_between(p.enqueued, Clock::now());
  r.total_s = r.queue_s;
  p.promise.set_value(std::move(r));
}

int InferenceServer::live_workers_locked() const {
  int live = 0;
  for (const WorkerControl& wc : control_) {
    if (wc.health != WorkerHealth::kDead) ++live;
  }
  return live;
}

int InferenceServer::active_workers_locked() const {
  int active = 0;
  for (const WorkerControl& wc : control_) {
    if (wc.health != WorkerHealth::kDead &&
        wc.health != WorkerHealth::kParked) {
      ++active;
    }
  }
  return active;
}

int64_t InferenceServer::queued_total_locked() const {
  int64_t total = 0;
  for (const std::deque<Pending>& lane : lanes_) {
    total += static_cast<int64_t>(lane.size());
  }
  return total;
}

bool InferenceServer::lanes_empty_locked() const {
  for (const std::deque<Pending>& lane : lanes_) {
    if (!lane.empty()) return false;
  }
  return true;
}

void InferenceServer::enqueue_locked(Pending p) {
  std::deque<Pending>& lane = lanes_[static_cast<size_t>(p.priority)];
  // Earliest-deadline-first within the lane, stable for ties: walk from the
  // back past strictly-later deadlines. No-deadline requests (time max) stay
  // FIFO among themselves behind every deadlined one; the common all-FIFO /
  // monotone-deadline traffic inserts at the back in O(1).
  auto it = lane.end();
  while (it != lane.begin() && std::prev(it)->deadline > p.deadline) --it;
  lane.insert(it, std::move(p));
}

InferenceServer::Pending InferenceServer::pop_shed_victim_locked() {
  for (std::deque<Pending>& lane : lanes_) {  // lowest priority first
    if (!lane.empty()) {
      Pending victim = std::move(lane.front());
      lane.pop_front();
      return victim;
    }
  }
  throw std::logic_error("InferenceServer: shed with empty lanes");
}

std::deque<InferenceServer::Pending> InferenceServer::take_queue_locked() {
  std::deque<Pending> taken;
  for (int lane = kPriorityLanes - 1; lane >= 0; --lane) {
    for (Pending& p : lanes_[static_cast<size_t>(lane)]) {
      taken.push_back(std::move(p));
    }
    lanes_[static_cast<size_t>(lane)].clear();
  }
  return taken;
}

bool InferenceServer::trip_breaker_locked(int w) {
  WorkerControl& wc = control_[static_cast<size_t>(w)];
  if (wc.health != WorkerHealth::kHealthy) return false;
  wc.strikes = 0;
  ++stats_.quarantines;
  ++stats_.per_worker[static_cast<size_t>(w)].quarantines;
  if (recovery_[static_cast<size_t>(w)]) {
    wc.health = WorkerHealth::kQuarantined;
    wc.recovery_attempts = 0;
    wc.next_recovery = Clock::now() + cfg_.recovery_backoff;
    supervisor_cv_.notify_all();
  } else {
    // No way back: a breaker trip without a RecoverFn is terminal.
    wc.health = WorkerHealth::kDead;
  }
  return true;
}

std::future<InferenceResult> InferenceServer::submit(Tensor image_chw) {
  return submit(std::move(image_chw), cfg_.default_deadline,
                Priority::kNormal);
}

std::future<InferenceResult> InferenceServer::submit(
    Tensor image_chw, std::chrono::microseconds deadline) {
  return submit(std::move(image_chw), deadline, Priority::kNormal);
}

std::future<InferenceResult> InferenceServer::submit(
    Tensor image_chw, std::chrono::microseconds deadline, Priority priority) {
  Pending p;
  p.image = std::move(image_chw);
  p.enqueued = Clock::now();
  p.deadline = deadline.count() > 0 ? p.enqueued + deadline
                                    : Clock::time_point::max();
  p.priority = priority;
  std::future<InferenceResult> fut = p.promise.get_future();

  // A malformed request resolves Rejected on its own future — it must never
  // reach a coalesced batch, where the stacking throw would take its
  // innocent batch-mates down with it.
  std::string reject;
  if (p.image.shape().ndim() != 3) {
    reject = "expected a CHW image, got " + p.image.shape().str();
  }

  Pending shed_victim;
  bool have_victim = false;
  {
    MutexLock lock(mu_);
    if (reject.empty() && stop_) reject = "submit after shutdown";
    // With every worker dead there is no engine that will ever run this
    // request; admitting it would strand the future until shutdown.
    if (reject.empty() && live_workers_locked() == 0) {
      reject = "no live workers";
    }
    if (reject.empty()) {
      if (expected_chw_.ndim() == 0) {
        expected_chw_ = p.image.shape();  // first accept pins the shape
      } else if (p.image.shape() != expected_chw_) {
        reject = "image shape " + p.image.shape().str() +
                 " does not match the serving shape " + expected_chw_.str();
      }
    }
    if (reject.empty() && cfg_.queue_capacity > 0 &&
        queued_total_locked() >= cfg_.queue_capacity) {
      switch (cfg_.admission) {
        case AdmissionPolicy::kBlock:
          // Backpressure: park this submitter until a worker frees space
          // (or there is no worker left to ever free it).
          space_cv_.wait(lock, [this] {
            mu_.assert_held();  // wait re-acquires mu_ before evaluating
            return stop_ || live_workers_locked() == 0 ||
                   queued_total_locked() < cfg_.queue_capacity;
          });
          if (stop_) {
            reject = "submit blocked at shutdown";
          } else if (live_workers_locked() == 0) {
            reject = "no live workers";
          }
          break;
        case AdmissionPolicy::kReject:
          reject = "queue full (capacity " +
                   std::to_string(cfg_.queue_capacity) + ")";
          break;
        case AdmissionPolicy::kShedOldest:
          // The victim — the lowest lane's front, so low-priority traffic
          // absorbs overload first — hands its in-flight slot to the new
          // request: in_flight_ is net unchanged within this critical
          // section and drain() never observes a spurious zero.
          shed_victim = pop_shed_victim_locked();
          have_victim = true;
          ++stats_.shed;
          --in_flight_;
          break;
      }
    }
    if (reject.empty()) {
      enqueue_locked(std::move(p));
      ++in_flight_;
      stats_.max_queue_depth =
          std::max(stats_.max_queue_depth, queued_total_locked());
    } else {
      ++stats_.rejected;
    }
  }
  if (have_victim) {
    resolve_failure(shed_victim, Status::kRejected,
                    "shed under overload (queue capacity " +
                        std::to_string(cfg_.queue_capacity) + ")");
  }
  if (!reject.empty()) {
    resolve_failure(p, Status::kRejected, std::move(reject));
    return fut;
  }
  // Only claimable workers wait on queue_cv_ (non-Healthy ones sit on
  // park_cv_): the first to take mu_ claims the request, and the others
  // find the lanes empty and wait again.
  queue_cv_.notify_all();
  return fut;
}

void InferenceServer::drain() {
  // Requeued riders keep their in_flight_ slot, so this also waits for work
  // bounced off a quarantined worker to be re-served (possibly by the same
  // worker after recovery). With max_recovery_attempts <= 0 and a recovery
  // that never succeeds, that wait is unbounded — cap the attempts (the
  // exhausted worker dies and the backlog resolves) when drain() must
  // terminate without a healthy engine.
  MutexLock lock(mu_);
  idle_cv_.wait(lock, [this] {
    mu_.assert_held();  // wait re-acquires mu_ before evaluating
    return in_flight_ == 0;
  });
}

void InferenceServer::shutdown() {
  // Claim the thread handles under the lock so concurrent shutdown() calls
  // (or shutdown racing the destructor) never join the same thread twice.
  std::vector<std::thread> claimed;
  std::thread supervisor;
  {
    MutexLock lock(mu_);
    stop_ = true;
    for (std::thread& w : workers_) {
      if (w.joinable()) claimed.push_back(std::move(w));
    }
    if (supervisor_.joinable()) supervisor = std::move(supervisor_);
  }
  queue_cv_.notify_all();
  park_cv_.notify_all();   // non-Healthy workers exit their park wait
  space_cv_.notify_all();  // blocked submitters resolve Rejected
  supervisor_cv_.notify_all();
  for (std::thread& w : claimed) w.join();
  if (supervisor.joinable()) supervisor.join();
  // Healthy workers drained the queue before exiting; anything still queued
  // had only quarantined/dead workers left and resolves Rejected here so no
  // future ever hangs across shutdown.
  std::deque<Pending> leftover;
  {
    MutexLock lock(mu_);
    leftover = take_queue_locked();
    stats_.rejected += static_cast<int64_t>(leftover.size());
  }
  if (leftover.empty()) return;
  for (Pending& p : leftover) {
    resolve_failure(p, Status::kRejected,
                    "shutdown with no healthy worker left to serve the queue");
  }
  MutexLock lock(mu_);
  in_flight_ -= static_cast<int64_t>(leftover.size());
  if (in_flight_ == 0) idle_cv_.notify_all();
}

ServingStats InferenceServer::stats() const {
  MutexLock lock(mu_);
  ServingStats snap = stats_;
  snap.uptime_s = seconds_between(start_, Clock::now());
  snap.isa = simd::isa_name();
  snap.int8_isa = simd::int8_isa_name();
  for (size_t w = 0; w < control_.size(); ++w) {
    snap.per_worker[w].health = control_[w].health;
  }
  return snap;
}

void InferenceServer::worker_loop(int worker) {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    {
      MutexLock lock(mu_);
      // A non-Healthy worker must not claim work — and must not camp on
      // queue_cv_ while it waits to be restored: a non-claimable waiter on
      // queue_cv_ could consume a queue notification meant for the worker
      // that can actually serve the request (lost wakeup), and in an
      // elastic server Parked slots are the steady-state MAJORITY. It parks
      // here, on park_cv_, until the supervisor restores it (park_cv_ is
      // notified on recovery and scale-up) or shutdown; queue_cv_ only ever
      // carries claimable waiters.
      park_cv_.wait(lock, [this, worker] {
        mu_.assert_held();  // wait re-acquires mu_ before evaluating
        return stop_ || control_[static_cast<size_t>(worker)].health ==
                            WorkerHealth::kHealthy;
      });
      if (control_[static_cast<size_t>(worker)].health !=
          WorkerHealth::kHealthy) {
        return;  // only stop_ releases a non-Healthy worker from park_cv_
      }
      // Healthy: wait for work. Breaker trips are self-inflicted (only this
      // worker's own run_batch quarantines it), but the AUTOSCALER can park
      // a Healthy worker from the supervisor thread whenever the lock is
      // free — it notifies queue_cv_ when it does, and the wait releases on
      // the health flip, so the worker returns to park_cv_ without claiming.
      // That makes scale-down prompt without ever abandoning a claimed batch.
      queue_cv_.wait(lock, [this, worker] {
        mu_.assert_held();  // wait re-acquires mu_ before evaluating
        return stop_ ||
               control_[static_cast<size_t>(worker)].health !=
                   WorkerHealth::kHealthy ||
               !lanes_empty_locked();
      });
      if (lanes_empty_locked() || control_[static_cast<size_t>(worker)]
                                          .health != WorkerHealth::kHealthy) {
        if (stop_) return;
        continue;
      }
      // Work-conserving: claim what is queued, up to max_batch, in this
      // same critical section; a free worker never idles beside queued
      // work waiting for company. Claim highest lane first, enforcing
      // deadlines at batch-formation time: an expired request resolves
      // kExpired without consuming a batch slot or ever touching an engine.
      // Lanes are EDF-ordered, so each lane's front is its most urgent
      // request and expiry checks stay O(1) amortized per request.
      const auto now = Clock::now();
      for (int ln = kPriorityLanes - 1; ln >= 0; --ln) {
        std::deque<Pending>& lane = lanes_[static_cast<size_t>(ln)];
        while (static_cast<int64_t>(batch.size()) < cfg_.max_batch &&
               !lane.empty()) {
          Pending pr = std::move(lane.front());
          lane.pop_front();
          if (pr.deadline <= now) {
            expired.push_back(std::move(pr));
          } else {
            batch.push_back(std::move(pr));
          }
        }
      }
      stats_.expired += static_cast<int64_t>(expired.size());
      // Requests may remain (more than max_batch queued): hand them to the
      // idle siblings instead of serializing behind this batch.
      if (!lanes_empty_locked()) queue_cv_.notify_all();
    }
    // Popping freed queue space: wake submitters blocked on admission.
    if (cfg_.queue_capacity > 0) space_cv_.notify_all();
    if (!expired.empty()) {
      for (Pending& pr : expired) {
        resolve_failure(pr, Status::kExpired,
                        "deadline exceeded before batch formation");
      }
      MutexLock lock(mu_);
      in_flight_ -= static_cast<int64_t>(expired.size());
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
    // run_batch handles the in_flight_ decrement and the drain() wakeup.
    if (!batch.empty()) run_batch(worker, std::move(batch));
    bool done;
    {
      MutexLock lock(mu_);
      done = stop_ && lanes_empty_locked();
    }
    if (done) return;
  }
}

void InferenceServer::run_batch(int worker, std::vector<Pending> batch) {
  const int64_t n = static_cast<int64_t>(batch.size());
  const auto batch_start = Clock::now();

  Tensor logits;
  bool failed = false;
  bool trip_now = false;  // first-strike trip: permanent / integrity failure
  Status fail_status = Status::kEngineError;
  std::string failure;
  try {
    // Stack the CHW images into one NCHW batch. submit() validated every
    // shape against the pinned serving shape, so a mismatch here is a
    // server bug, not client input — keep the defensive throw.
    const Shape& chw = batch.front().image.shape();
    Shape batched{n, chw.dim(0), chw.dim(1), chw.dim(2)};
    Tensor input(batched);
    const int64_t stride = chw.numel();
    for (int64_t i = 0; i < n; ++i) {
      if (batch[static_cast<size_t>(i)].image.shape() != chw) {
        throw std::logic_error(
            "InferenceServer: mixed image shapes in one batch (" +
            batch[static_cast<size_t>(i)].image.shape().str() + " vs " +
            chw.str() + ") — admission validation failed");
      }
      const float* src = batch[static_cast<size_t>(i)].image.data();
      std::copy(src, src + stride, input.data() + i * stride);
    }
    logits = engines_[static_cast<size_t>(worker)](input);
    if (logits.shape().ndim() != 2 || logits.dim(0) != n) {
      throw std::runtime_error("InferenceServer: engine returned " +
                               logits.shape().str() + " for batch of " +
                               std::to_string(n));
    }
  } catch (const tee::IntegrityFault& e) {
    // Corruption detected at the TEE transfer boundary: the channel is not
    // trustworthy for a blind replay, so this is a first-strike trip and
    // the riders surface kIntegrityError — never wrong logits.
    failed = true;
    trip_now = true;
    fail_status = Status::kIntegrityError;
    failure = e.what();
  } catch (const nn::IntegrityError& e) {
    // Corrupted model image detected while (re)deploying — same taxonomy.
    failed = true;
    trip_now = true;
    fail_status = Status::kIntegrityError;
    failure = e.what();
  } catch (const tee::PermanentFault& e) {
    // The engine's secure-world session is gone; consecutive-failure
    // counting would only burn more batches against a dead session.
    failed = true;
    trip_now = true;
    failure = e.what();
  } catch (const std::exception& e) {
    failed = true;
    failure = e.what();
  } catch (...) {
    failed = true;
    failure = "unknown engine failure";
  }
  const auto batch_end = Clock::now();
  const bool watchdog_overrun =
      cfg_.watchdog_timeout.count() > 0 &&
      batch_end - batch_start > cfg_.watchdog_timeout;

  // Stats first, promises second: anyone who has observed a request's
  // future resolve must also see it in stats(). Breaker/requeue decisions
  // live in the same critical section so a stats() snapshot never shows a
  // quarantine without its requeued riders (or vice versa).
  std::vector<Pending> resolve_now;
  std::deque<Pending> flushed;  // backlog failed because no worker is left
  int64_t requeued_count = 0;
  {
    MutexLock lock(mu_);
    if (watchdog_overrun) ++stats_.watchdog_trips;
    bool tripped = false;
    WorkerControl& wc = control_[static_cast<size_t>(worker)];
    if (cfg_.breaker_threshold > 0 && wc.health == WorkerHealth::kHealthy) {
      if (failed || watchdog_overrun) {
        ++wc.strikes;
        if ((failed && trip_now) || wc.strikes >= cfg_.breaker_threshold) {
          tripped = trip_breaker_locked(worker);
        }
      } else {
        wc.strikes = 0;  // the breaker counts CONSECUTIVE failures
      }
    }
    // Re-queue once: when this worker just tripped, its riders' failure is
    // the worker's fault, not theirs — bounce first-time riders back to the
    // queue front (order preserved) for a surviving worker, or for this one
    // after recovery. A rider only gets one bounce; with no non-dead worker
    // left there is nobody to bounce to.
    const bool can_requeue = failed && tripped && live_workers_locked() > 0;
    std::vector<Pending> requeue;
    for (Pending& p : batch) {
      if (can_requeue && !p.requeued) {
        p.requeued = true;
        requeue.push_back(std::move(p));
      } else {
        resolve_now.push_back(std::move(p));
      }
    }
    requeued_count = static_cast<int64_t>(requeue.size());
    stats_.requeued += requeued_count;
    // Each rider re-enters its own lane at EDF position — NOT a blind
    // push_front: requests enqueued while the batch ran may hold earlier
    // deadlines than the riders, and the lane's sort invariant is what
    // keeps enqueue_locked's back-walk and the O(1) front-expiry honest.
    // The batch was claimed front-first from EDF-sorted lanes and the
    // insert is stable, so riders keep their relative order and never lose
    // their lane by bouncing.
    for (Pending& rider : requeue) {
      enqueue_locked(std::move(rider));
    }
    // A requeued rider is NOT counted as an answered request here — the
    // batch that finally resolves it will count it — preserving the PR-7
    // identity: submits = requests + rejected + shed + expired.
    const int64_t resolved = static_cast<int64_t>(resolve_now.size());
    stats_.requests += resolved;
    stats_.batches += 1;
    if (failed) {
      (fail_status == Status::kIntegrityError ? stats_.integrity_errors
                                              : stats_.engine_errors) +=
          resolved;
    }
    // Images that actually rode along: the first image of a batch would have
    // been served anyway, so a batch resolving n coalesces n - 1 (counting
    // all n would let coalesced_images exceed requests - batches and
    // overstate the benefit).
    if (resolved > 1) stats_.coalesced_images += resolved - 1;
    stats_.max_batch_observed = std::max(stats_.max_batch_observed, n);
    stats_.batch_latency.record(seconds_between(batch_start, batch_end));
    for (const Pending& p : resolve_now) {
      stats_.request_latency.record(seconds_between(p.enqueued, batch_end));
    }
    WorkerStats& ws = stats_.per_worker[static_cast<size_t>(worker)];
    ws.batches += 1;
    ws.images += n;
    ws.busy_s += seconds_between(batch_start, batch_end);
    // The last live worker just died: nothing will ever serve the backlog,
    // so it resolves now with a typed error instead of hanging submitters.
    if (tripped && live_workers_locked() == 0) {
      flushed = take_queue_locked();
      stats_.requests += static_cast<int64_t>(flushed.size());
      stats_.engine_errors += static_cast<int64_t>(flushed.size());
    }
  }
  if (requeued_count > 0) queue_cv_.notify_all();

  for (Pending& p : resolve_now) {
    InferenceResult r;
    r.batch_size = n;
    r.queue_s = seconds_between(p.enqueued, batch_start);
    r.total_s = seconds_between(p.enqueued, batch_end);
    if (failed) {
      // The whole batch failed in one engine call; each rider resolves with
      // the same typed error instead of an exception tearing through every
      // waiting submitter.
      r.status = fail_status;
      r.error = failure;
      p.promise.set_value(std::move(r));
      continue;
    }
    // Index association with logits rows holds: on success nothing was
    // requeued, so resolve_now is the whole batch in claim order.
    const int64_t i = static_cast<int64_t>(&p - resolve_now.data());
    const int64_t classes = logits.dim(1);
    r.logits = Tensor(Shape{classes});
    const float* row = logits.data() + i * classes;
    std::copy(row, row + classes, r.logits.data());
    r.label = 0;
    for (int64_t j = 1; j < classes; ++j) {
      if (row[j] > row[r.label]) r.label = j;
    }
    p.promise.set_value(std::move(r));
  }
  for (Pending& p : flushed) {
    resolve_failure(p, Status::kEngineError,
                    "no live workers (" + failure + ")");
  }

  {
    MutexLock lock(mu_);
    in_flight_ -= static_cast<int64_t>(resolve_now.size() + flushed.size());
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
  if (!flushed.empty()) space_cv_.notify_all();
}

int InferenceServer::autoscale_tick(Clock::time_point now) {
  // Utilization since the previous tick: busy_s deltas of the workers in
  // rotation, over the wall time elapsed. This is the RECENT load signal —
  // lifetime utilization would take minutes to reflect a spike.
  const double elapsed = seconds_between(last_tick_, now);
  last_tick_ = now;
  int active = 0;
  int healthy = 0;
  double busy = 0.0;
  for (size_t w = 0; w < control_.size(); ++w) {
    WorkerControl& wc = control_[w];
    const double b = stats_.per_worker[w].busy_s;
    if (wc.health != WorkerHealth::kDead &&
        wc.health != WorkerHealth::kParked) {
      ++active;
      busy += b - wc.tick_busy_s;
    }
    if (wc.health == WorkerHealth::kHealthy) ++healthy;
    wc.tick_busy_s = b;
  }
  const double util =
      active > 0 && elapsed > 0.0 ? busy / (elapsed * active) : 0.0;
  const int64_t queued = queued_total_locked();
  if (now < next_scale_allowed_) return -1;  // cooldown: no action this tick

  // Scale UP when the backlog exceeds one batch round per healthy worker.
  const double backlog_limit = cfg_.scale_up_queue_factor *
                               static_cast<double>(cfg_.max_batch) *
                               static_cast<double>(std::max(1, healthy));
  if (static_cast<double>(queued) > backlog_limit &&
      active < cfg_.max_workers) {
    for (int w = 0; w < static_cast<int>(control_.size()); ++w) {
      WorkerControl& wc = control_[static_cast<size_t>(w)];
      if (wc.health != WorkerHealth::kParked) continue;
      next_scale_allowed_ = now + cfg_.autoscale_cooldown;
      if (!engines_[static_cast<size_t>(w)]) {
        // No engine yet: hand the slot to supervisor_loop to build one
        // outside the lock. Recovering keeps it out of every other scan
        // (claim loops, this tick) until the install completes.
        wc.health = WorkerHealth::kRecovering;
        return w;
      }
      // Engine survives parking, so unparking is free: flip it back in.
      wc.health = WorkerHealth::kHealthy;
      wc.strikes = 0;
      ++stats_.scale_ups;
      stats_.workers_high_water = std::max(
          stats_.workers_high_water,
          static_cast<int64_t>(active_workers_locked()));
      park_cv_.notify_all();  // the unparked worker finds the backlog itself
      return -1;
    }
    return -1;  // nothing parked (the rest are quarantined/recovering/dead)
  }

  // Scale DOWN when the pool is demonstrably idle: empty lanes and recent
  // utilization under the threshold. Parking the HIGHEST healthy slot keeps
  // the active set a prefix, and a parked worker finishes any batch it
  // already claimed — nothing in flight is abandoned (drain stays exact).
  if (cfg_.scale_down_utilization > 0.0 && healthy > cfg_.min_workers &&
      queued == 0 && util < cfg_.scale_down_utilization) {
    for (int w = static_cast<int>(control_.size()) - 1; w >= 0; --w) {
      WorkerControl& wc = control_[static_cast<size_t>(w)];
      if (wc.health != WorkerHealth::kHealthy) continue;
      wc.health = WorkerHealth::kParked;
      ++stats_.scale_downs;
      next_scale_allowed_ = now + cfg_.autoscale_cooldown;
      // Flush the parked worker out of its queue_cv_ wait (the predicate
      // releases on the health flip) so it migrates to park_cv_ instead of
      // consuming queue notifications it can no longer act on.
      queue_cv_.notify_all();
      break;
    }
  }
  return -1;
}

void InferenceServer::supervisor_loop() {
  // A pool with room to scale evaluates the scaling policy every
  // autoscale_interval; a fixed pool (min_workers == max_workers) never does.
  const bool elastic = cfg_.max_workers > cfg_.min_workers;
  MutexLock lock(mu_);
  for (;;) {
    if (stop_) return;
    const auto now = Clock::now();
    if (elastic && now >= last_tick_ + cfg_.autoscale_interval) {
      const int spawn = autoscale_tick(now);
      if (spawn >= 0) {
        // Build the new slot's engine on this thread, outside the lock —
        // deploying a TA image must not stall submitters or the healthy
        // workers. The slot is Recovering, so nothing else touches it.
        lock.unlock();
        BatchFn engine;
        RecoverFn recover;
        try {
          auto built = factory_(spawn);
          engine = std::move(built.first);
          recover = std::move(built.second);
        } catch (...) {
          engine = nullptr;
        }
        lock.lock();
        WorkerControl& wc = control_[static_cast<size_t>(spawn)];
        if (engine) {
          engines_[static_cast<size_t>(spawn)] = std::move(engine);
          recovery_[static_cast<size_t>(spawn)] = std::move(recover);
          wc.health = WorkerHealth::kHealthy;
          wc.strikes = 0;
          ++stats_.scale_ups;
          stats_.workers_high_water = std::max(
              stats_.workers_high_water,
              static_cast<int64_t>(active_workers_locked()));
          park_cv_.notify_all();  // the spawned worker claims the backlog
        } else {
          // Failed spawn: the slot returns to Parked (a later tick may
          // retry) and the failure is visible in the canary counter.
          wc.health = WorkerHealth::kParked;
          ++stats_.canary_failures;
        }
      }
      continue;
    }
    // The earliest due recovery among quarantined workers (if any).
    int due = -1;
    Clock::time_point earliest = Clock::time_point::max();
    for (int w = 0; w < static_cast<int>(control_.size()); ++w) {
      const WorkerControl& wc = control_[static_cast<size_t>(w)];
      if (wc.health == WorkerHealth::kQuarantined &&
          wc.next_recovery < earliest) {
        earliest = wc.next_recovery;
        due = w;
      }
    }
    // Elastic servers never park indefinitely — the next tick bounds every
    // wait so the scaling policy keeps sampling even without trips.
    Clock::time_point wake = earliest;
    if (elastic) wake = std::min(wake, last_tick_ + cfg_.autoscale_interval);
    if (wake == Clock::time_point::max()) {
      supervisor_cv_.wait(lock);  // woken by trips and shutdown
      continue;
    }
    if (now < wake) {
      supervisor_cv_.wait_until(lock, wake);
      continue;
    }
    if (due < 0 || Clock::now() < earliest) continue;  // only the tick is due
    WorkerControl& wc = control_[static_cast<size_t>(due)];
    wc.health = WorkerHealth::kRecovering;
    RecoverFn recover = recovery_[static_cast<size_t>(due)];
    lock.unlock();
    // The RecoverFn (e.g. DeployedTBNet::reopen + canary) runs outside the
    // lock: it re-deploys a TA image and runs an inference, which must not
    // stall submitters or the healthy workers. The recovering worker's own
    // thread is parked (non-Healthy workers never claim), so the engine is
    // not invoked concurrently.
    bool recovered = true;
    std::string error;
    try {
      recover();
    } catch (const std::exception& e) {
      recovered = false;
      error = e.what();
    } catch (...) {
      recovered = false;
      error = "unknown recovery failure";
    }
    lock.lock();
    std::deque<Pending> flushed;
    if (recovered) {
      wc.health = WorkerHealth::kHealthy;
      wc.strikes = 0;
      wc.recovery_attempts = 0;
      ++stats_.recoveries;
      ++stats_.per_worker[static_cast<size_t>(due)].recoveries;
      park_cv_.notify_all();  // the re-admitted worker may claim again
    } else {
      ++stats_.canary_failures;
      ++wc.recovery_attempts;
      if (cfg_.max_recovery_attempts > 0 &&
          wc.recovery_attempts >= cfg_.max_recovery_attempts) {
        wc.health = WorkerHealth::kDead;
        if (live_workers_locked() == 0) {
          flushed = take_queue_locked();
          stats_.requests += static_cast<int64_t>(flushed.size());
          stats_.engine_errors += static_cast<int64_t>(flushed.size());
        }
      } else {
        // Capped exponential backoff: attempt k waits base * 2^(k-1).
        auto backoff = cfg_.recovery_backoff;
        for (int k = 1; k < wc.recovery_attempts + 1 &&
                        backoff < cfg_.recovery_max_backoff;
             ++k) {
          backoff *= 2;
        }
        wc.next_recovery =
            Clock::now() + std::min(backoff, cfg_.recovery_max_backoff);
        wc.health = WorkerHealth::kQuarantined;
      }
    }
    if (!flushed.empty()) {
      lock.unlock();
      for (Pending& p : flushed) {
        resolve_failure(p, Status::kEngineError,
                        "no live workers (recovery exhausted: " + error + ")");
      }
      lock.lock();
      in_flight_ -= static_cast<int64_t>(flushed.size());
      if (in_flight_ == 0) idle_cv_.notify_all();
      space_cv_.notify_all();
    }
  }
}

}  // namespace tbnet::runtime
