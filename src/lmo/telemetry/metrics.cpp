#include "lmo/telemetry/metrics.hpp"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "lmo/telemetry/json_util.hpp"
#include "lmo/telemetry/percentile.hpp"
#include "lmo/util/check.hpp"

namespace lmo::telemetry {

namespace {

// Dot-names: non-empty [a-z0-9_-] components joined by single dots.
// '-' is allowed because simulator resource labels ("p2p0-1") flow into
// metric names.
bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool prev_dot = false;
  for (char c : name) {
    if (c == '.') {
      if (prev_dot) return false;
      prev_dot = true;
      continue;
    }
    prev_dot = false;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void Gauge::add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void Histogram::record(double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(x);
  sum_ += x;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  double m = samples_.front();
  for (double s : samples_) m = s < m ? s : m;
  return m;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  double m = samples_.front();
  for (double s : samples_) m = s > m ? s : m;
  return m;
}

double Histogram::percentile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return telemetry::percentile(samples_, q);
}

const MetricSample* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const MetricSample* s = find(name);
  LMO_CHECK_MSG(s != nullptr, "no such metric: " + name);
  LMO_CHECK_MSG(s->type == MetricType::kCounter,
            "metric '" + name + "' is a " + to_string(s->type) +
                ", not a counter");
  return s->count;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  const MetricSample* s = find(name);
  LMO_CHECK_MSG(s != nullptr, "no such metric: " + name);
  LMO_CHECK_MSG(s->type == MetricType::kGauge,
            "metric '" + name + "' is a " + to_string(s->type) +
                ", not a gauge");
  return s->value;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    json::append_escaped(os, s.name);
    os << "\",\"type\":\"" << to_string(s.type) << "\"";
    switch (s.type) {
      case MetricType::kCounter:
        os << ",\"value\":" << s.count;
        break;
      case MetricType::kGauge:
        os << ",\"value\":";
        json::append_number(os, s.value);
        break;
      case MetricType::kHistogram:
        os << ",\"count\":" << s.count << ",\"sum\":";
        json::append_number(os, s.value);
        os << ",\"min\":";
        json::append_number(os, s.min);
        os << ",\"max\":";
        json::append_number(os, s.max);
        os << ",\"p50\":";
        json::append_number(os, s.p50);
        os << ",\"p95\":";
        json::append_number(os, s.p95);
        break;
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const MetricSample& s : samples) {
    os << s.name << " ";
    switch (s.type) {
      case MetricType::kCounter:
        os << s.count;
        break;
      case MetricType::kGauge:
        os << s.value;
        break;
      case MetricType::kHistogram:
        os << "count=" << s.count << " sum=" << s.value << " min=" << s.min
           << " max=" << s.max << " p50=" << s.p50 << " p95=" << s.p95;
        break;
    }
    os << "\n";
  }
  return os.str();
}

void MetricsSnapshot::save(const std::string& path) const {
  std::ofstream out(path);
  LMO_CHECK_MSG(out.good(), "cannot open metrics output file: " + path);
  out << to_json() << "\n";
  LMO_CHECK_MSG(out.good(), "failed writing metrics output file: " + path);
}

std::string sanitize_component(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const char lc =
        static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const bool ok = (lc >= 'a' && lc <= 'z') || (lc >= '0' && lc <= '9') ||
                    lc == '_' || lc == '-';
    out.push_back(ok ? lc : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

MetricsRegistry::Slot& MetricsRegistry::slot(const std::string& name,
                                             MetricType type) {
  LMO_CHECK_MSG(valid_metric_name(name), "ill-formed metric name: '" + name + "'");
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = slots_.try_emplace(name);
  Slot& s = it->second;
  if (inserted) {
    s.type = type;
    switch (type) {
      case MetricType::kCounter:
        s.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        s.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        s.histogram = std::make_unique<Histogram>();
        break;
    }
  } else {
    LMO_CHECK_MSG(s.type == type, "metric '" + name + "' already registered as " +
                                  to_string(s.type) + ", requested as " +
                                  to_string(type));
  }
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *slot(name, MetricType::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *slot(name, MetricType::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *slot(name, MetricType::kHistogram).histogram;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.samples.reserve(slots_.size());
  for (const auto& [name, s] : slots_) {
    MetricSample sample;
    sample.name = name;
    sample.type = s.type;
    switch (s.type) {
      case MetricType::kCounter:
        sample.count = s.counter->value();
        break;
      case MetricType::kGauge:
        sample.value = s.gauge->value();
        break;
      case MetricType::kHistogram:
        sample.count = s.histogram->count();
        sample.value = s.histogram->sum();
        sample.min = s.histogram->min();
        sample.max = s.histogram->max();
        sample.p50 = s.histogram->percentile(0.50);
        sample.p95 = s.histogram->percentile(0.95);
        break;
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;  // std::map iteration order keeps samples name-sorted
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace lmo::telemetry
