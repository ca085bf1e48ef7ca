#include "tee/optee_api.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

#include "tensor/bytes.h"
#include "tensor/crc32c.h"

namespace tbnet::tee {
namespace {

/// Busy-waits `seconds` on the steady clock: the CPU is seized for the
/// whole SMC + context save/restore, as on the device. A stall that slept
/// would also pay the host's wake-up latency.
void spin_for(double seconds) {
  if (seconds <= 0.0) return;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

void SecureWorld::install(const std::string& uuid,
                          std::unique_ptr<TrustedApp> ta) {
  if (!ta) throw std::invalid_argument("SecureWorld::install: null TA");
  // on_install may claim secure memory for weights — potentially slow and
  // self-locking (the pool has its own mutex), so it runs before the table
  // lock; the TA only becomes visible to lookup() fully initialized.
  TaContext ctx{&memory_};
  ta->on_install(ctx);
  MutexLock lock(mu_);
  tas_[uuid] = std::move(ta);
}

TrustedApp* SecureWorld::lookup(const std::string& uuid) {
  MutexLock lock(mu_);
  auto it = tas_.find(uuid);
  if (it == tas_.end()) {
    throw std::invalid_argument("SecureWorld: no TA installed as " + uuid);
  }
  return it->second.get();
}

TeeSession::TeeSession(SecureWorld& world, OneWayChannel& channel,
                       const std::string& uuid, int64_t max_result_bytes,
                       FaultInjector* faults)
    : world_(world),
      channel_(channel),
      ta_(world.lookup(uuid)),
      max_result_bytes_(max_result_bytes),
      faults_(faults) {
  // The open boundary can fail like any other crossing; firing here (after
  // TA lookup, before the caller holds a session) keeps re-opening safe.
  if (faults_ != nullptr) faults_->check("open");
}

// Single-threaded handoff out of TeeContext::open_session: `other` is a
// temporary no second thread can reach yet, so its guarded counters are
// read without its mutex (the mutex itself is not movable, and constructors
// are outside the thread-safety analysis anyway).
TeeSession::TeeSession(TeeSession&& other) noexcept
    : world_(other.world_),
      channel_(other.channel_),
      ta_(other.ta_),
      max_result_bytes_(other.max_result_bytes_),
      switches_(other.switches_),
      timing_(other.timing_),
      simulated_overhead_s_(other.simulated_overhead_s_),
      faults_(other.faults_) {}

uint32_t TeeSession::invoke(uint32_t command, const std::vector<uint8_t>& in,
                            std::vector<uint8_t>* out) {
  // One timing snapshot per invoke: simulate_timing() is a setup-time call,
  // and copying the profile out here keeps every spin_for stall below
  // outside the lock (a counter poll must never block behind a simulated
  // world switch).
  std::optional<DeviceProfile> timing;
  {
    MutexLock lock(mu_);
    timing = timing_;
  }
  // Both fault sites fire BEFORE the channel push and the TA execution, so
  // a faulted invoke leaves no secure-world state behind and retrying the
  // identical command is safe (see tee/fault.h).
  const std::vector<uint8_t>* body = &in;
  std::optional<std::vector<uint8_t>> damaged;
  if (faults_ != nullptr) {
    faults_->check("invoke");
    damaged = faults_->check_transfer("transfer", in);
    if (damaged) {
      // The secure side verifies a CRC32C frame checksum over each shared-
      // memory transfer before touching the payload. A flipped bit fails
      // that verification here; a collision (2^-32) would let the damaged
      // payload through, which is exactly the residual risk of a 32-bit
      // frame check — so the damaged bytes flow on in that case.
      if (crc32c(damaged->data(), damaged->size()) !=
          crc32c(in.data(), in.size())) {
        throw IntegrityFault(
            "transfer frame checksum mismatch — payload corrupted in "
            "transit");
      }
      body = &*damaged;
    }
  }
  // Entry switch: parameters cross into the secure world.
  channel_.push(World::kNormal, World::kSecure,
                static_cast<int64_t>(body->size()));
  {
    MutexLock lock(mu_);
    ++switches_;
  }
  if (timing) {
    // Entry: client-API invoke overhead + SMC switch + payload transfer.
    const double stall =
        timing->invoke_overhead_s + timing->world_switch_s +
        static_cast<double>(body->size()) / timing->channel_bytes_per_s;
    spin_for(stall);
    MutexLock lock(mu_);
    simulated_overhead_s_ += stall;
  }

  std::vector<uint8_t> result;
  TaContext ctx{&world_.memory()};
  const uint32_t status = ta_->invoke(command, *body, result, ctx);

  // Exit switch: only the (capped) result may leave.
  if (static_cast<int64_t>(result.size()) > max_result_bytes_) {
    throw SecurityViolation(
        "TA attempted to return " + std::to_string(result.size()) +
        " B (cap " + std::to_string(max_result_bytes_) +
        " B) — intermediate data must not leave the TEE");
  }
  if (!result.empty()) {
    // Returning the final result is the one sanctioned secure->normal flow;
    // it bypasses the feature-map channel by construction (it is the
    // API-level return value), so it is not pushed through `channel_`.
    MutexLock lock(mu_);
    ++switches_;
  }
  if (timing) {
    // Control always returns to the normal world after an invoke (the SMC
    // return path), so the exit switch is stalled for even when no result
    // bytes cross. `switches_` keeps the result-bearing counting convention
    // used by the experiment reports.
    const double stall =
        timing->world_switch_s +
        static_cast<double>(result.size()) / timing->channel_bytes_per_s;
    spin_for(stall);
    MutexLock lock(mu_);
    simulated_overhead_s_ += stall;
  }
  if (out != nullptr) *out = std::move(result);
  return status;
}

namespace {

/// Runs `read` on the bytes of `buf` from *offset on, then advances *offset
/// past what it consumed; a rejected read leaves *offset as it was.
template <typename Read>
auto read_at(const std::vector<uint8_t>& buf, size_t* offset, Read read) {
  ByteReader r(
      std::span<const uint8_t>(buf).subspan(std::min(*offset, buf.size())));
  auto value = read(r);
  *offset += r.pos();
  return value;
}

}  // namespace

void pack_i64(std::vector<uint8_t>& buf, int64_t v) { put_i64(buf, v); }

int64_t unpack_i64(const std::vector<uint8_t>& buf, size_t* offset) {
  return read_at(buf, offset, [](ByteReader& r) { return r.i64("payload"); });
}

void pack_floats(std::vector<uint8_t>& buf, const float* data, int64_t count) {
  put_floats(buf, data, count);
}

std::vector<float> unpack_floats(const std::vector<uint8_t>& buf,
                                 size_t* offset, int64_t count) {
  return read_at(buf, offset,
                 [count](ByteReader& r) { return r.floats(count, "payload"); });
}

}  // namespace tbnet::tee
