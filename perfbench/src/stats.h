// Small numeric and bookkeeping helpers shared by the benchmark: a
// seeded generator, order statistics, a span recorder for the traced
// run, and the JSON the benchmark prints. Nothing here calls into the
// program under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: the benchmark's own generator, so its inputs depend only
// on --seed and never on the program's RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  uint64_t state_;
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

// One completed span: name, start/end in microseconds since the
// recorder's origin, its own id and its parent's (0 = root).
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
};

// Thread-safe in-memory span store, written out once at the end of a
// traced run (Chrome trace_event JSON).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  // Opens a span and returns its id (0 when disabled).
  uint64_t begin(const std::string& name, uint64_t parent);
  void end(uint64_t id);
  // Records an already-timed span (generator request spans).
  void add(const std::string& name, double start_us, double end_us,
           uint64_t id, uint64_t parent);
  uint64_t next_id();
  std::string chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;               // guarded by mutex_
  std::vector<Span> spans_;            // guarded by mutex_
  std::map<uint64_t, size_t> open_;    // guarded by mutex_
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, uint64_t parent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

// One named metric of the result line.
struct MetricValue {
  double value = 0;
  std::string unit;
};

// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::map<std::string, MetricValue>& metrics);

}  // namespace perfbench
