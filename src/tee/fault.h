#pragma once
// Deterministic fault injection for the simulated TEE boundary.
//
// Real TrustZone deployments fail: SMC calls abort under scheduler pressure,
// shared-memory registrations fail transiently, TAs crash and take their
// sessions with them, and DMA'd payloads arrive with flipped bits. The
// serving stack's robustness machinery (bounded retry with backoff in
// DeployedTBNet, typed EngineError results and circuit breakers at the
// InferenceServer) needs those failures on demand, so the FaultInjector sits
// at the optee_api boundaries — session open, command invoke, payload
// transfer — and throws TransientFault / PermanentFault (or flips payload
// bits, for kCorruption) either by seeded random sampling (set_rate) or
// from scripted outcomes tests use to target exact boundaries:
//   * script(kind, count) — a site-agnostic FIFO consumed by every check()
//     (script kNone to let one crossing pass, then the fault kind to fire on
//     the next), and
//   * script_at(kind, site, nth) — per-site targeting that fires on exactly
//     the nth FUTURE crossing of that site ("open" / "invoke" / "transfer"),
//     so recovery tests don't depend on rate-based sampling or on knowing
//     the global crossing order.
//
// Every injection site fires BEFORE the TA executes, so a faulted open or
// invoke has no secure-world side effects and retrying it is always safe.
// Exit-path faults (result lost after the TA already ran) would need
// sequence-numbered commands to retry safely; the simulated TAs don't
// implement that protocol, so the injector deliberately doesn't model them.
//
// One injector lives on each TeeContext and is shared by every session the
// context opens; sessions constructed directly (no context) inject nothing.
// All methods are thread-safe — parallel serving opens one session per
// dispatch worker, but multi-context benches may share an injector.

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/thread_annotations.h"

namespace tbnet::tee {

/// A failure the caller may retry: the boundary crossing failed before the
/// TA executed (SMC abort, transient shared-memory failure). Bounded
/// retry with backoff is the correct response.
class TransientFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A failure retry cannot fix (TA panicked, session torn down). Callers
/// must surface it immediately instead of burning retry budget.
class PermanentFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Data corruption detected at a boundary (wire-frame checksum mismatch on
/// a transfer). Deliberately NOT retried inline: a channel that corrupts
/// payloads is not trustworthy for a blind replay, so serving surfaces it
/// as Status::kIntegrityError and the supervision layer quarantines and
/// recovers the worker (tear down + re-deploy + canary) instead.
class IntegrityFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  enum class Kind {
    kNone = 0,    ///< scripted no-op: lets exactly one check() pass
    kTransient,   ///< check() throws TransientFault
    kPermanent,   ///< check() throws PermanentFault
    kCorruption,  ///< check_transfer() flips seeded payload bits in transit
  };

  /// Seed 0x5eed and rate 0: nothing fires until set_rate() or a script.
  FaultInjector();
  FaultInjector(uint64_t seed, double rate, double permanent_fraction = 0.0,
                double corruption_fraction = 0.0);

  /// Reconfigures the random sampler (benches flip the rate mid-run, and
  /// the chaos soak kills a worker by setting rate=1, permanent=1 on its
  /// context). Scripted faults are unaffected. All fractions clamp to
  /// [0, 1]; a sampled fault is permanent with `permanent_fraction`, else a
  /// corruption with `corruption_fraction`, else transient.
  void set_rate(double rate, double permanent_fraction = 0.0,
                double corruption_fraction = 0.0);
  double rate() const;

  /// Enqueues `count` scripted outcomes, consumed FIFO by any-site check()
  /// ahead of random sampling. kNone entries deterministically skip
  /// boundaries: to fault the second crossing only, script {kNone,
  /// kTransient}.
  void script(Kind kind, int count = 1);

  /// Targets one specific boundary: fires on exactly the `nth` FUTURE
  /// crossing of `site` (nth = 1 means the very next one), regardless of
  /// what other sites do in between. Site-targeted entries are consulted
  /// before the FIFO queue. kCorruption entries only have an effect at a
  /// payload-bearing crossing (check_transfer); elsewhere they are consumed
  /// and counted but inject nothing.
  void script_at(Kind kind, const char* site, int64_t nth = 1);

  void clear_script();
  int64_t scripted_pending() const;  ///< FIFO + site-targeted entries

  /// One boundary crossing: throws TransientFault or PermanentFault when a
  /// fault (scripted or sampled) fires, else returns. `site` names the
  /// boundary ("open" / "invoke" / "transfer") in the exception text and is
  /// what script_at() entries match against. A kCorruption outcome at this
  /// payload-less overload is consumed and counted but injects nothing.
  void check(const char* site);

  /// A payload-bearing crossing (the "transfer" boundary): behaves like
  /// check(), and when the outcome is kCorruption returns a copy of
  /// `payload` with 1–8 seeded bit-flips (the in-transit damage) instead of
  /// throwing. Returns nullopt when nothing fired (or the payload is empty —
  /// there is nothing to corrupt). The caller models the secure side's
  /// frame verification; see tee/optee_api.cpp.
  std::optional<std::vector<uint8_t>> check_transfer(
      const char* site, const std::vector<uint8_t>& payload);

  /// Crossings of `site` observed so far (check + check_transfer), for
  /// tests that pin Nth-crossing scripts to absolute positions.
  int64_t crossings(const char* site) const;

  int64_t faults_injected() const;  ///< total injected (all kinds)
  int64_t transients_injected() const;
  int64_t permanents_injected() const;
  int64_t corruptions_injected() const;

 private:
  struct Target {
    Kind kind;
    std::string site;
    int64_t at_crossing;  ///< absolute crossing number of `site` to fire on
  };

  /// Consumes the outcome for one crossing of `site` (targeted entries
  /// first, then the FIFO, then sampling) and bumps the crossing counter.
  Kind consume_locked(const char* site) TS_REQUIRES(mu_);

  mutable Mutex mu_;
  uint64_t state_ TS_GUARDED_BY(mu_);
  double rate_ TS_GUARDED_BY(mu_);
  double permanent_fraction_ TS_GUARDED_BY(mu_);
  double corruption_fraction_ TS_GUARDED_BY(mu_);
  std::deque<Kind> scripted_ TS_GUARDED_BY(mu_);
  std::vector<Target> targeted_ TS_GUARDED_BY(mu_);
  std::unordered_map<std::string, int64_t> crossings_ TS_GUARDED_BY(mu_);
  int64_t transients_ TS_GUARDED_BY(mu_) = 0;
  int64_t permanents_ TS_GUARDED_BY(mu_) = 0;
  int64_t corruptions_ TS_GUARDED_BY(mu_) = 0;
};

}  // namespace tbnet::tee
