#include "obs/sampler.hpp"

#include <algorithm>

namespace ndc::obs {

const char* SignalName(Signal s) {
  switch (s) {
    case Signal::kDramAccess: return "dram_access";
    case Signal::kMcQueueWait: return "mc_queue_wait";
    case Signal::kNocBusy: return "noc_busy";
    case Signal::kNdcBusy: return "ndc_busy";
  }
  return "?";
}

void WindowSampler::NoteSlow(Signal s, sim::Cycle now, std::uint64_t delta) {
  std::size_t w = static_cast<std::size_t>(now / window_cycles_);
  if (w >= kMaxWindows) w = kMaxWindows - 1;
  auto& v = series_[static_cast<std::size_t>(s)];
  if (w >= v.size()) v.resize(w + 1, 0);
  v[w] += delta;
}

std::size_t WindowSampler::num_windows() const {
  std::size_t n = 0;
  for (const auto& v : series_) n = std::max(n, v.size());
  return n;
}

std::uint64_t WindowSampler::At(Signal s, std::size_t w) const {
  const auto& v = series_[static_cast<std::size_t>(s)];
  return w < v.size() ? v[w] : 0;
}

std::uint64_t WindowSampler::Total(Signal s) const {
  std::uint64_t t = 0;
  for (std::uint64_t d : series_[static_cast<std::size_t>(s)]) t += d;
  return t;
}

}  // namespace ndc::obs
