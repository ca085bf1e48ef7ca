#pragma once
// A miniature OP-TEE-style client/TA interface.
//
// Mirrors the GlobalPlatform Client API surface that real OP-TEE deployments
// use (contexts, sessions, command invocation with byte-buffer parameters),
// backed by the simulated secure world. A real TrustZone backend could be
// slotted behind the same interface; everything above it (runtime/, bench/)
// would not change.
//
// Security semantics enforced here:
//   * command inputs cross the channel normal->secure (always legal),
//   * command outputs cross secure->normal and are capped at
//     `max_result_bytes` — large enough for logits, far too small for
//     feature maps. Oversized outputs throw SecurityViolation. This is the
//     mechanical form of TBNet's one-way design: the TEE only ever releases
//     final inference results.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tee/channel.h"
#include "tee/device_profile.h"
#include "tee/fault.h"
#include "tee/secure_memory.h"
#include "tee/world.h"
#include "tensor/thread_annotations.h"

namespace tbnet::tee {

/// Facilities a trusted application sees inside the secure world.
struct TaContext {
  SecureMemoryPool* memory = nullptr;
};

/// Base class for simulated trusted applications.
class TrustedApp {
 public:
  virtual ~TrustedApp() = default;

  /// Called once when the TA is installed; the place to claim secure memory
  /// for model weights and other resident state.
  virtual void on_install(TaContext& ctx) { (void)ctx; }

  /// Handles one command; writes the (small) result into `out`.
  /// Returns a TEE-style status code (0 = TEE_SUCCESS).
  virtual uint32_t invoke(uint32_t command, const std::vector<uint8_t>& in,
                          std::vector<uint8_t>& out, TaContext& ctx) = 0;
};

/// The device's secure world: secure memory + installed TAs. The TA table
/// is mutex-guarded: in supervised serving the recovery path re-installs a
/// TA from the supervisor thread while healthy workers' sessions look TAs
/// up concurrently.
class SecureWorld {
 public:
  explicit SecureWorld(int64_t secure_mem_budget = 0)
      : memory_(secure_mem_budget) {}

  /// Installs a TA under a UUID-like name. on_install (which may claim
  /// secure memory for weights) runs before the TA becomes visible, so a
  /// concurrent lookup never sees a half-installed TA.
  void install(const std::string& uuid, std::unique_ptr<TrustedApp> ta);
  bool has_ta(const std::string& uuid) const {
    MutexLock lock(mu_);
    return tas_.count(uuid) != 0;
  }

  SecureMemoryPool& memory() { return memory_; }

 private:
  friend class TeeSession;
  TrustedApp* lookup(const std::string& uuid);

  SecureMemoryPool memory_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<TrustedApp>> tas_
      TS_GUARDED_BY(mu_);
};

inline constexpr uint32_t kTeeSuccess = 0;
inline constexpr uint32_t kTeeErrorBadParameters = 0xFFFF0006;
inline constexpr uint32_t kTeeErrorBadState = 0xFFFF0007;
inline constexpr int64_t kDefaultMaxResultBytes = 4096;

/// A session from normal-world client code to one TA.
class TeeSession {
 public:
  /// `faults` (usually the owning TeeContext's injector) gates every
  /// boundary crossing this session performs: "open" once here, then
  /// "invoke" and "transfer" at the top of every invoke(). All sites fire
  /// before the TA executes, so a faulted call has no secure-world side
  /// effects and is safe to retry. A kCorruption fault at the "transfer"
  /// site flips payload bits in transit; the frame checksum the secure side
  /// verifies catches it and the invoke throws IntegrityFault (not retried —
  /// see tee/fault.h). nullptr = no injection.
  TeeSession(SecureWorld& world, OneWayChannel& channel,
             const std::string& uuid,
             int64_t max_result_bytes = kDefaultMaxResultBytes,
             FaultInjector* faults = nullptr);

  /// Move-construction is the single-threaded handoff out of
  /// TeeContext::open_session into its long-term owner (e.g. DeployedTBNet's
  /// unique_ptr): the source is a temporary no other thread has seen, so
  /// reading its counters without the (non-movable) mutex is safe.
  /// Constructors are outside the thread-safety analysis.
  TeeSession(TeeSession&& other) noexcept;
  TeeSession& operator=(TeeSession&&) = delete;

  /// Invokes a TA command. Input bytes are pushed normal->secure through the
  /// channel; output bytes are checked against the result cap.
  uint32_t invoke(uint32_t command, const std::vector<uint8_t>& in,
                  std::vector<uint8_t>* out = nullptr);

  int64_t world_switches() const {
    MutexLock lock(mu_);
    return switches_;
  }

  /// Device-faithful timing: when set, every invoke busy-waits the caller for
  /// the profile's world-switch latency (entry, plus exit when a result
  /// crosses back) and the payload's shared-memory transfer time. TA compute
  /// still runs at host speed; only the cross-world overheads the paper's
  /// Tables 1-3 attribute to TrustZone are injected. Used by the serving
  /// bench; off by default (invoke costs nothing but the simulation itself).
  void simulate_timing(const DeviceProfile& profile) {
    MutexLock lock(mu_);
    timing_ = profile;
  }
  /// Wall-clock seconds spent in injected switch/transfer stalls.
  double simulated_overhead_s() const {
    MutexLock lock(mu_);
    return simulated_overhead_s_;
  }

 private:
  SecureWorld& world_;
  OneWayChannel& channel_;
  TrustedApp* ta_;
  int64_t max_result_bytes_;
  /// Guards the counters a monitoring thread may poll (world_switches,
  /// simulated overhead) while a dispatch worker is mid-invoke. The lock is
  /// never held across TA execution or a timing stall — invoke copies
  /// timing_ out once and takes short lock scopes for each counter bump.
  mutable Mutex mu_;
  int64_t switches_ TS_GUARDED_BY(mu_) = 0;
  std::optional<DeviceProfile> timing_ TS_GUARDED_BY(mu_);
  double simulated_overhead_s_ TS_GUARDED_BY(mu_) = 0.0;
  FaultInjector* faults_ = nullptr;  ///< not owned; nullptr = no injection
};

/// Normal-world entry point, analogous to TEEC_Context.
class TeeContext {
 public:
  explicit TeeContext(SecureWorld& world,
                      OneWayChannel::Policy policy =
                          OneWayChannel::Policy::kOneWayIntoTee)
      : world_(world),
        channel_(policy),
        faults_(std::make_unique<FaultInjector>()) {}

  /// May throw TransientFault/PermanentFault when the context's injector
  /// fires at the "open" boundary (env-rated or scripted); the session is
  /// not created in that case, so re-opening is always safe.
  TeeSession open_session(const std::string& uuid,
                          int64_t max_result_bytes = kDefaultMaxResultBytes) {
    return TeeSession(world_, channel_, uuid, max_result_bytes,
                      faults_.get());
  }

  OneWayChannel& channel() { return channel_; }
  SecureWorld& world() { return world_; }

  /// The injector shared by every session this context opens; it injects
  /// nothing until set_rate() or a script arms it.
  FaultInjector& faults() { return *faults_; }
  const FaultInjector& faults() const { return *faults_; }

 private:
  SecureWorld& world_;
  OneWayChannel channel_;
  std::unique_ptr<FaultInjector> faults_;
};

/// Byte-packing helpers for command payloads: forwards to the bounded codec
/// in tensor/bytes.h. A read that does not fit throws std::runtime_error and
/// leaves *offset unchanged.
void pack_i64(std::vector<uint8_t>& buf, int64_t v);
int64_t unpack_i64(const std::vector<uint8_t>& buf, size_t* offset);
void pack_floats(std::vector<uint8_t>& buf, const float* data, int64_t count);
std::vector<float> unpack_floats(const std::vector<uint8_t>& buf,
                                 size_t* offset, int64_t count);

}  // namespace tbnet::tee
