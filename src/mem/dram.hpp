#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace ndc::mem {

/// DRAM timing in core cycles, approximating the Table 1 device
/// (Micron DDR2-800, 4 banks/device, 16384 rows/bank, 4 KB row buffer).
struct DramParams {
  sim::Cycle row_hit_latency = 40;    ///< CAS only (open row)
  sim::Cycle row_miss_latency = 120;  ///< precharge + activate + CAS
  sim::Cycle data_beat = 4;           ///< per-request data transfer occupancy
  std::uint64_t num_rows = 16384;

  friend bool operator==(const DramParams&, const DramParams&) = default;
};

/// One DRAM bank with an open-row (row-buffer) policy. Requests are serviced
/// serially; `busy_until_` models the bank occupancy. The row-hit and
/// row-miss counters live in the MemCtrl that issues to the bank.
class DramBank {
 public:
  explicit DramBank(const DramParams& params) : params_(&params) {}

  /// True if `row` currently sits in the row buffer (an FR-FCFS "row hit").
  bool IsRowOpen(std::uint64_t row) const { return open_row_ == static_cast<std::int64_t>(row); }

  /// Services a read of `row` starting no earlier than `now`;
  /// returns the completion cycle and updates bank state.
  sim::Cycle Access(sim::Cycle now, std::uint64_t row);

 private:
  const DramParams* params_;
  std::int64_t open_row_ = -1;
  sim::Cycle busy_until_ = 0;
};

}  // namespace ndc::mem
