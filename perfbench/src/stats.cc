#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

uint64_t Tracer::begin(const std::string& name, uint64_t parent) {
  if (!enabled_) return 0;
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = next_id_++;
  open_[id] = spans_.size();
  spans_.push_back(Span{name, start, start, id, parent});
  return id;
}

void Tracer::end(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_us = end;
  open_.erase(it);
}

void Tracer::add(const std::string& name, double start_us, double end_us,
                 uint64_t id, uint64_t parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_us, end_us, id, parent});
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                  s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buffer;
  }
  out += "]}";
  return out;
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::map<std::string, MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buffer[128];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buffer, sizeof(buffer), "%.10g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
