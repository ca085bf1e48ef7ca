#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// All significant digits; non-finite values become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

int64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // Linux reports KiB
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

void Report::check(const std::string& name, const std::string& failure) {
  if (!failure.empty()) check_failures.push_back(name + ": " + failure);
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (check_failures.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
       << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  os << "}, \"stamp\": {";
  first = true;
  for (const auto& [key, value] : stamp) {
    os << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  os << "}, \"check_failures\": [";
  for (size_t i = 0; i < check_failures.size(); ++i) {
    os << (i ? ", " : "") << json_string(check_failures[i]);
  }
  os << "]}";
  return os.str();
}

int64_t Tracer::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t Tracer::open(const std::string& name, int64_t parent, int64_t request) {
  Span s;
  s.name = name;
  s.start_s = s.end_s = now();
  s.parent = parent;
  s.request = request;
  return add(std::move(s));
}

void Tracer::close(int64_t id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<size_t>(id)).end_s = t;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  // Spans of a request overlap other requests' spans, so they are async
  // events keyed by the request id; the rest are complete ("X") events.
  std::vector<std::string> events;
  for (const Span& s : spans()) {
    std::string args = "{\"id\": " + std::to_string(s.id) +
                       ", \"parent\": " + std::to_string(s.parent) +
                       ", \"request\": " + std::to_string(s.request) +
                       (s.args.empty() ? "" : ", ") + s.args + "}";
    const std::string head = "{\"name\": " + json_string(s.name) +
                             ", \"pid\": 1, \"tid\": " + std::to_string(s.lane);
    if (s.request < 0) {
      events.push_back(head + ", \"ph\": \"X\", \"ts\": " + json_number(s.start_s * 1e6) +
                       ", \"dur\": " + json_number((s.end_s - s.start_s) * 1e6) +
                       ", \"args\": " + args + "}");
      continue;
    }
    const std::string async = head + ", \"cat\": \"request\", \"id\": " +
                              std::to_string(s.request);
    events.push_back(async + ", \"ph\": \"b\", \"ts\": " + json_number(s.start_s * 1e6) +
                     ", \"args\": " + args + "}");
    events.push_back(async + ", \"ph\": \"e\", \"ts\": " + json_number(s.end_s * 1e6) + "}");
  }
  out << "[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    out << events[i] << (i + 1 < events.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
