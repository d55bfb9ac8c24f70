#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ndc::sim {

BucketHistogram::BucketHistogram(std::vector<std::uint64_t> edges) : edges_(std::move(edges)) {
  assert(std::is_sorted(edges_.begin(), edges_.end()));
  counts_.assign(edges_.size() + 1, 0);
}

void BucketHistogram::Add(std::uint64_t value, std::uint64_t weight) {
  std::size_t i = 0;
  while (i < edges_.size() && value > edges_[i]) ++i;
  counts_[i] += weight;
  total_ += weight;
}

double BucketHistogram::Fraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

double BucketHistogram::CumulativeFraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  std::uint64_t c = 0;
  for (std::size_t k = 0; k <= i && k < counts_.size(); ++k) c += counts_[k];
  return static_cast<double>(c) / static_cast<double>(total_);
}

double BucketHistogram::FractionAtEdge(std::uint64_t edge) const {
  assert(std::binary_search(edges_.begin(), edges_.end(), edge) &&
         "FractionAtEdge requires an exact bucket edge");
  if (total_ == 0) return 0.0;
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i] <= edge) c += counts_[i];
  }
  return static_cast<double>(c) / static_cast<double>(total_);
}

void BucketHistogram::MergeFrom(const BucketHistogram& other) {
  assert(edges_ == other.edges_);
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

std::uint64_t StatSet::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double GeometricMean(const std::vector<double>& values, double floor) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, floor));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace ndc::sim
