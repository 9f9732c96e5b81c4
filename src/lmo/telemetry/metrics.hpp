// Unified metrics vocabulary for every subsystem (the runtime's offload
// manager, the serving simulator, the DES performance model, the CLI).
//
// A MetricsRegistry owns typed metrics under hierarchical dot-names
// ("offload.transfer.retries", "serve.slo.attainment"). Recording is cheap
// and thread-safe: counters and gauges are single relaxed atomics, so hot
// paths pay one uncontended RMW; histograms take a mutex (they retain exact
// samples and are only recorded at request granularity). Snapshots are
// consistent name-sorted copies exportable as JSON or plaintext.
//
// Components own their registry (an OffloadManager's counters must not mix
// with a second manager's in the same process). Legacy stats structs (OffloadStats,
// ServeMetrics) are materialized *views* of a registry — the registry is
// the single source of truth, the structs are compatibility snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lmo::telemetry {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* to_string(MetricType type);

/// Monotonic event count. Relaxed atomic: exact under concurrency, no
/// ordering guarantees with respect to other metrics.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A double that can be set or accumulated (bytes moved, seconds spent).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Atomic accumulate (CAS loop; uncontended in practice).
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Retains every sample for exact quantiles (telemetry records at request /
/// run granularity, so sample counts stay small). Thread-safe.
class Histogram {
 public:
  void record(double x);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< NaN when empty
  double max() const;  ///< NaN when empty
  /// telemetry::percentile over the retained samples; NaN when empty.
  double percentile(double q) const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
  double sum_ = 0.0;
};

/// One exported metric. For counters `count` holds the value; for gauges
/// `value`; histograms fill count/value(sum) plus the summary fields.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram sample count
  double value = 0.0;       ///< gauge value / histogram sum
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// Consistent point-in-time copy of a registry, sorted by name. The export
/// format every `--metrics-out` flag writes.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// nullptr when absent.
  const MetricSample* find(const std::string& name) const;
  /// Typed reads; throw CheckError on missing name or type mismatch.
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  std::string to_json() const;
  std::string to_text() const;
  void save(const std::string& path) const;  ///< JSON; throws on I/O error
};

/// Turn an arbitrary label (resource name, task category) into a legal
/// metric-name component: lowercased, every character outside [a-z0-9_-]
/// mapped to '_'.
std::string sanitize_component(const std::string& label);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. References stay valid until the next reset().
  /// Throws CheckError on an ill-formed name or if `name` already exists
  /// with a different type.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  std::size_t size() const;
  MetricsSnapshot snapshot() const;

  /// Drop every metric (fresh-run semantics for reused registries). Every
  /// Counter/Gauge/Histogram reference handed out before is invalidated.
  void reset();

  /// Bumped by every reset(). A component that caches metric references
  /// re-resolves them when this differs from the value it cached under.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    MetricType type = MetricType::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& slot(const std::string& name, MetricType type);

  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace lmo::telemetry
