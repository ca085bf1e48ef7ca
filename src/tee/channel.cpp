#include "tee/channel.h"

#include <stdexcept>

namespace tbnet::tee {

void OneWayChannel::push(World from, World to, int64_t bytes) {
  if (bytes < 0) throw std::invalid_argument("OneWayChannel: negative payload");
  if (from == to) {
    throw std::invalid_argument("OneWayChannel: transfer within one world");
  }
  if (from == World::kSecure && policy_ == Policy::kOneWayIntoTee) {
    throw SecurityViolation(
        "one-way channel violation: attempted to push " +
        std::to_string(bytes) + " B from TEE to REE");
  }
  MutexLock lock(mu_);
  ++transfers_;
  total_bytes_ += bytes;
  if (to == World::kSecure) into_tee_ += bytes;
  if (from == World::kSecure) leaked_ += bytes;
}

void OneWayChannel::reset() {
  MutexLock lock(mu_);
  transfers_ = 0;
  total_bytes_ = 0;
  into_tee_ = 0;
  leaked_ = 0;
}

}  // namespace tbnet::tee
