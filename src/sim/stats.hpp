#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ndc::sim {

/// Histogram over the paper's arrival-window buckets (Figures 2 and 3):
/// bucket `i` < 6 counts samples v <= kEdges[i] (and > kEdges[i-1]); bucket
/// 6 counts everything above 500 (the paper's "500+", which also absorbs
/// "never arrives" samples encoded as kNeverCycle).
class BucketHistogram {
 public:
  static constexpr std::array<std::uint64_t, 6> kEdges = {1, 10, 20, 50, 100, 500};

  void Add(std::uint64_t value);

  /// Fraction of samples in bucket i.
  double Fraction(std::size_t i) const;

  /// Fraction of samples in buckets 0..i (<= kEdges[i] for i < 6).
  double CumulativeFraction(std::size_t i) const;

  void MergeFrom(const BucketHistogram& other);

 private:
  std::array<std::uint64_t, kEdges.size() + 1> counts_{};
  std::uint64_t total_ = 0;
};

/// A named-counter view. Components count in plain integer members and
/// return their counters through one `StatSet stats() const`; benches,
/// tests and figures read them back by name. A key exists iff its value is
/// non-zero: Add with a zero delta is a no-op, so a counter that stayed at
/// zero never shows up as a key.
class StatSet {
 public:
  void Add(const std::string& name, std::uint64_t delta = 1) {
    if (delta != 0) counters_[name] += delta;
  }
  std::uint64_t Get(const std::string& name) const;
  const std::map<std::string, std::uint64_t>& all() const { return counters_; }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Geometric mean over strictly positive values; values <= 0 are clamped to
/// `floor` (used for "performance improvement" aggregation like the paper's
/// geo-means, where a slowdown is a ratio < 1 but still positive).
double GeometricMean(const std::vector<double>& values, double floor = 1e-9);

}  // namespace ndc::sim
