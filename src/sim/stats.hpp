#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ndc::sim {

/// Bucketed histogram matching the paper's arrival-window buckets
/// (1, 10, 20, 50, 100, 500, 500+). Bucket `i` counts samples
/// v <= edges[i] (and > edges[i-1]); the final implicit bucket counts
/// everything above the last edge (the paper's "500+", which also absorbs
/// "never arrives" samples encoded as kNeverCycle).
class BucketHistogram {
 public:
  explicit BucketHistogram(std::vector<std::uint64_t> edges = {1, 10, 20, 50, 100, 500});

  void Add(std::uint64_t value, std::uint64_t weight = 1);

  /// Count in bucket i (i == edges().size() is the overflow bucket).
  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  std::uint64_t total() const { return total_; }
  const std::vector<std::uint64_t>& edges() const { return edges_; }
  std::size_t num_buckets() const { return counts_.size(); }

  /// Fraction of samples in bucket i.
  double Fraction(std::size_t i) const;

  /// Cumulative fraction of samples <= edges[i].
  double CumulativeFraction(std::size_t i) const;

  /// Fraction of samples <= `edge`, where `edge` must be one of edges().
  /// The histogram keeps no raw samples, so the answer is only exact at a
  /// bucket boundary; a non-edge value is a caller bug and asserts in debug
  /// builds. In release builds a non-edge value degrades to the fraction at
  /// the largest edge <= `edge` (a documented floor, never an over-count).
  double FractionAtEdge(std::uint64_t edge) const;

  void MergeFrom(const BucketHistogram& other);

 private:
  std::vector<std::uint64_t> edges_;
  std::vector<std::uint64_t> counts_;  // edges_.size() + 1 entries
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
