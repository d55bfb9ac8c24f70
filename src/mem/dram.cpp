#include "mem/dram.hpp"

#include <algorithm>

namespace ndc::mem {

sim::Cycle DramBank::Access(sim::Cycle now, std::uint64_t row) {
  sim::Cycle start = std::max(now, busy_until_);
  sim::Cycle latency;
  if (IsRowOpen(row)) {
    latency = params_->row_hit_latency;
  } else {
    latency = params_->row_miss_latency;
    open_row_ = static_cast<std::int64_t>(row);
  }
  busy_until_ = start + latency + params_->data_beat;
  return start + latency;
}

}  // namespace ndc::mem
