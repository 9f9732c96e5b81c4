// Statistics accumulators used by benchmarks and the profiling database:
// Welford running mean/variance, min/max, and exact percentiles over a
// retained sample vector.
#pragma once

#include <cstddef>
#include <vector>

namespace lmo::util {

/// Online mean/variance (Welford) plus min/max. O(1) memory.
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< sample variance (n-1); 0 when n < 2
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples; supports exact quantiles. Used where sample counts
/// are small (per-op profiles, bench repetitions).
class SampleSet {
 public:
  void add(double x);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double median() const { return quantile(0.5); }
  /// Linear-interpolated quantile, q in [0, 1]. Requires non-empty set.
  double quantile(double q) const;
  double min() const;
  double max() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void ensure_sorted() const;
};

}  // namespace lmo::util
