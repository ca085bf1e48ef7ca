#pragma once
// Shared plumbing of the benchmark program: clocks, the run report (metrics
// with units and sample counts, plus the run stamp), an in-memory span
// recorder with chrome://tracing export, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double to_seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double since(Clock::time_point t0) { return to_seconds(Clock::now() - t0); }

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Peak resident set size of this process (getrusage), bytes.
int64_t peak_rss_bytes();

/// One reported number, its unit, and how many samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;
};

/// Everything one run reports: named metrics, the run stamp, and the
/// operation counts. Written as JSON by main.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> stamp;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1);
  /// Records a failed output check (an empty `failure` means it passed).
  void check(const std::string& name, const std::string& failure);
  std::string to_json() const;
};

/// Span recorder. Thread-safe (engine batch spans come from dispatch
/// workers); spans stay in memory until write_chrome at the end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the tracer's epoch
    double end_s = 0.0;
    int64_t id = 0;
    int64_t parent = -1;   ///< -1 = root
    int64_t request = -1;  ///< shared by one request's spans; -1 = none
    int64_t lane = 0;      ///< trace-viewer row (0 = main thread)
    std::string args;      ///< extra JSON members, e.g. "\"batch\": 4"
  };

  Tracer() : epoch_(Clock::now()) {}
  double at(Clock::time_point t) const { return to_seconds(t - epoch_); }
  double now() const { return at(Clock::now()); }
  /// Stores `span` and returns its id.
  int64_t add(Span span);
  /// Starts a span now (end = start until close) and returns its id.
  int64_t open(const std::string& name, int64_t parent = -1,
               int64_t request = -1);
  /// Ends span `id` now.
  void close(int64_t id);
  std::vector<Span> spans() const;
  /// Writes the chrome://tracing "X" events (one JSON array).
  void write_chrome(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call: returns its seconds and, when `tracer` is set, records a
/// span named `name` under `parent`.
template <typename Fn>
double timed(Tracer* tracer, const std::string& name, int64_t parent, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (tracer != nullptr) {
    Tracer::Span s;
    s.name = name;
    s.start_s = tracer->at(t0);
    s.end_s = tracer->at(t1);
    s.parent = parent;
    tracer->add(std::move(s));
  }
  return to_seconds(t1 - t0);
}

}  // namespace perfbench
