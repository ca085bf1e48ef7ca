#include "tee/fault.h"

#include <algorithm>

namespace tbnet::tee {
namespace {

constexpr uint64_t kDefaultSeed = 0x5eed;

/// splitmix64: tiny, seedable, and good enough for Bernoulli sampling.
uint64_t splitmix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(uint64_t* state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

FaultInjector::FaultInjector() : FaultInjector(kDefaultSeed, 0.0) {}

FaultInjector::FaultInjector(uint64_t seed, double rate,
                             double permanent_fraction,
                             double corruption_fraction)
    : state_(seed),
      rate_(clamp01(rate)),
      permanent_fraction_(clamp01(permanent_fraction)),
      corruption_fraction_(clamp01(corruption_fraction)) {}

void FaultInjector::set_rate(double rate, double permanent_fraction,
                             double corruption_fraction) {
  MutexLock lock(mu_);
  rate_ = clamp01(rate);
  permanent_fraction_ = clamp01(permanent_fraction);
  corruption_fraction_ = clamp01(corruption_fraction);
}

double FaultInjector::rate() const {
  MutexLock lock(mu_);
  return rate_;
}

void FaultInjector::script(Kind kind, int count) {
  MutexLock lock(mu_);
  for (int i = 0; i < count; ++i) scripted_.push_back(kind);
}

void FaultInjector::script_at(Kind kind, const char* site, int64_t nth) {
  MutexLock lock(mu_);
  if (nth < 1) nth = 1;
  targeted_.push_back(Target{kind, site, crossings_[site] + nth});
}

void FaultInjector::clear_script() {
  MutexLock lock(mu_);
  scripted_.clear();
  targeted_.clear();
}

int64_t FaultInjector::scripted_pending() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(scripted_.size() + targeted_.size());
}

FaultInjector::Kind FaultInjector::consume_locked(const char* site) {
  const int64_t crossing = ++crossings_[site];
  // Site-targeted entries outrank the FIFO: a test that pinned "the 3rd
  // invoke" must fire there even if a rate or FIFO script is also active.
  for (auto it = targeted_.begin(); it != targeted_.end(); ++it) {
    if (it->site == site && it->at_crossing == crossing) {
      Kind kind = it->kind;
      targeted_.erase(it);
      return kind;
    }
  }
  if (!scripted_.empty()) {
    Kind kind = scripted_.front();
    scripted_.pop_front();
    return kind;
  }
  if (rate_ > 0.0 && uniform01(&state_) < rate_) {
    const double which = uniform01(&state_);
    if (which < permanent_fraction_) return Kind::kPermanent;
    if (which < permanent_fraction_ + corruption_fraction_) {
      return Kind::kCorruption;
    }
    return Kind::kTransient;
  }
  return Kind::kNone;
}

void FaultInjector::check(const char* site) {
  Kind kind;
  {
    MutexLock lock(mu_);
    kind = consume_locked(site);
    if (kind == Kind::kTransient) ++transients_;
    if (kind == Kind::kPermanent) ++permanents_;
    // kCorruption at a payload-less crossing: consumed, nothing to flip.
  }
  if (kind == Kind::kTransient) {
    throw TransientFault(std::string("injected transient fault at ") + site);
  }
  if (kind == Kind::kPermanent) {
    throw PermanentFault(std::string("injected permanent fault at ") + site);
  }
}

std::optional<std::vector<uint8_t>> FaultInjector::check_transfer(
    const char* site, const std::vector<uint8_t>& payload) {
  Kind kind;
  uint64_t damage_seed = 0;
  {
    MutexLock lock(mu_);
    kind = consume_locked(site);
    if (kind == Kind::kCorruption && payload.empty()) kind = Kind::kNone;
    if (kind == Kind::kTransient) ++transients_;
    if (kind == Kind::kPermanent) ++permanents_;
    if (kind == Kind::kCorruption) {
      ++corruptions_;
      damage_seed = splitmix64(&state_);
    }
  }
  if (kind == Kind::kTransient) {
    throw TransientFault(std::string("injected transient fault at ") + site);
  }
  if (kind == Kind::kPermanent) {
    throw PermanentFault(std::string("injected permanent fault at ") + site);
  }
  if (kind != Kind::kCorruption) return std::nullopt;
  std::vector<uint8_t> damaged = payload;
  const int flips = 1 + static_cast<int>(damage_seed % 8);
  for (int i = 0; i < flips; ++i) {
    const uint64_t r = splitmix64(&damage_seed);
    damaged[r % damaged.size()] ^= static_cast<uint8_t>(1u << (r >> 32) % 8);
  }
  return damaged;
}

int64_t FaultInjector::crossings(const char* site) const {
  MutexLock lock(mu_);
  auto it = crossings_.find(site);
  return it == crossings_.end() ? 0 : it->second;
}

int64_t FaultInjector::faults_injected() const {
  MutexLock lock(mu_);
  return transients_ + permanents_ + corruptions_;
}

int64_t FaultInjector::transients_injected() const {
  MutexLock lock(mu_);
  return transients_;
}

int64_t FaultInjector::permanents_injected() const {
  MutexLock lock(mu_);
  return permanents_;
}

int64_t FaultInjector::corruptions_injected() const {
  MutexLock lock(mu_);
  return corruptions_;
}

}  // namespace tbnet::tee
