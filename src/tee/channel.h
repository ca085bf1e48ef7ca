#pragma once
// OneWayChannel — the REE -> TEE data path with direction enforcement.
//
// TBNet's security argument (paper §3.2) hinges on intermediate feature maps
// flowing only from the normal world into the secure world. The channel is a
// hard invariant here: any attempt to push a payload in the secure->normal
// direction throws SecurityViolation. The channel also keeps transfer
// statistics (count, bytes) that feed the latency model and the experiment
// reports — plain counters, so its memory stays flat over any uptime.
//
// A `Policy::kBidirectional` mode exists solely to model *prior-art*
// baselines (DarkneTZ-style partitioning returns TEE feature maps to the
// REE in plaintext); payloads sent secure->normal under that policy are
// tallied as leaked bytes, which is what the substitute-layer attack feeds
// on.

#include <cstdint>

#include "tee/world.h"
#include "tensor/thread_annotations.h"

namespace tbnet::tee {

class OneWayChannel {
 public:
  enum class Policy {
    kOneWayIntoTee,  ///< TBNet: normal->secure only
    kBidirectional,  ///< prior-art baselines; secure->normal counted as leak
  };

  explicit OneWayChannel(Policy policy = Policy::kOneWayIntoTee)
      : policy_(policy) {}

  /// Registers a payload crossing worlds. Throws SecurityViolation for a
  /// secure->normal push under the one-way policy.
  ///
  /// All methods are thread-safe: in parallel serving every dispatch
  /// worker's session pushes through its context's channel while bench /
  /// example code polls the byte counters from the submitting thread.
  void push(World from, World to, int64_t bytes);

  Policy policy() const { return policy_; }
  int64_t transfer_count() const {
    MutexLock lock(mu_);
    return transfers_;
  }
  int64_t total_bytes() const {
    MutexLock lock(mu_);
    return total_bytes_;
  }
  int64_t bytes_into_tee() const {
    MutexLock lock(mu_);
    return into_tee_;
  }
  /// Bytes that left the TEE in plaintext (0 under the one-way policy).
  int64_t leaked_bytes() const {
    MutexLock lock(mu_);
    return leaked_;
  }

  void reset();

 private:
  const Policy policy_;  ///< fixed at construction, safe to read unlocked
  mutable Mutex mu_;
  int64_t transfers_ TS_GUARDED_BY(mu_) = 0;
  int64_t total_bytes_ TS_GUARDED_BY(mu_) = 0;
  int64_t into_tee_ TS_GUARDED_BY(mu_) = 0;
  int64_t leaked_ TS_GUARDED_BY(mu_) = 0;
};

}  // namespace tbnet::tee
