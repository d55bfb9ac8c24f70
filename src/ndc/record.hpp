#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "sim/types.hpp"

namespace ndc::runtime {

using arch::Loc;
using sim::Addr;
using sim::Cycle;
using sim::NodeId;

/// Observation of one (computation, location) pair from a profiling pass:
/// when each operand's data was present at the location.
struct LocObs {
  bool feasible = false;       ///< statically address-feasible (homes/MCs/banks/links)
  bool meet_ok = true;         ///< false if residency was lost before the partner arrived
  Cycle t_a = sim::kNeverCycle;  ///< operand A data present at the location
  Cycle t_b = sim::kNeverCycle;  ///< operand B data present at the location
  NodeId node = sim::kNoNode;  ///< mesh node hosting the component

  bool BothArrived() const { return t_a != sim::kNeverCycle && t_b != sim::kNeverCycle; }

  /// The paper's *arrival window*: cycles the first-arriving operand waits
  /// for the second, kNeverCycle when they never meet (Section 4.1).
  Cycle Window() const {
    if (!feasible || !meet_ok || !BothArrived()) return sim::kNeverCycle;
    return t_a > t_b ? t_a - t_b : t_b - t_a;
  }

  Cycle FirstArrival() const { return t_a < t_b ? t_a : t_b; }
  Cycle SecondArrival() const { return t_a < t_b ? t_b : t_a; }
};

/// Everything recorded for one dynamic NDC candidate (a computation c with
/// operands A and B) during an observation pass.
struct InstanceRecord {
  NodeId core = sim::kNoNode;
  std::uint32_t compute_idx = 0;  ///< trace slot of the computation
  std::uint32_t pc = 0;
  std::uint32_t site = 0;
  Addr a = 0, b = 0;
  bool local_l1 = false;  ///< an operand hit the local L1 (NDC skipped)
  Cycle a_at_core = sim::kNeverCycle;
  Cycle b_at_core = sim::kNeverCycle;
  Cycle conv_done = sim::kNeverCycle;  ///< conventional completion of c
  bool operand_reused_later = false;     ///< later access reuses A or B (L1-line grain)
  bool operand_reused_later_l2 = false;  ///< same, at L2-line (256 B) granularity
  std::array<LocObs, arch::kNumLocs> locs{};

  const LocObs& at(Loc l) const { return locs[static_cast<std::size_t>(l)]; }
  LocObs& at(Loc l) { return locs[static_cast<std::size_t>(l)]; }
};

/// Observation output of a whole profiling run, keyed by (core, trace slot),
/// which is stable across passes over the same traces. Each core's records
/// sit in one vector sorted by compute_idx.
class RunRecord {
 public:
  explicit RunRecord(int num_cores = 0) : per_core_(static_cast<std::size_t>(num_cores)) {}

  /// Room for `n` records of `core`, so that appending them does not
  /// reallocate.
  void Reserve(NodeId core, std::size_t n) { per_core_[static_cast<std::size_t>(core)].reserve(n); }

  /// The record of (core, compute_idx), inserted in order (with those two
  /// fields set) if absent. Appending in compute_idx order is O(1); any
  /// insert invalidates references to the core's other records.
  InstanceRecord& Get(NodeId core, std::uint32_t compute_idx) {
    auto& v = per_core_[static_cast<std::size_t>(core)];
    auto it = v.end();
    if (!v.empty() && v.back().compute_idx >= compute_idx) {
      it = std::ranges::lower_bound(v, compute_idx, {}, &InstanceRecord::compute_idx);
      if (it != v.end() && it->compute_idx == compute_idx) return *it;
    }
    it = v.insert(it, InstanceRecord{});
    it->core = core;
    it->compute_idx = compute_idx;
    return *it;
  }
  const InstanceRecord* Find(NodeId core, std::uint32_t compute_idx) const {
    const auto& v = per_core_[static_cast<std::size_t>(core)];
    auto it = std::ranges::lower_bound(v, compute_idx, {}, &InstanceRecord::compute_idx);
    return it == v.end() || it->compute_idx != compute_idx ? nullptr : &*it;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& v : per_core_) {
      for (const InstanceRecord& rec : v) fn(rec);
    }
  }

  std::size_t TotalInstances() const {
    std::size_t n = 0;
    for (const auto& v : per_core_) n += v.size();
    return n;
  }

  int num_cores() const { return static_cast<int>(per_core_.size()); }

 private:
  std::vector<std::vector<InstanceRecord>> per_core_;
};

/// The paper's *breakeven point* (Section 4.1) for one observed instance and
/// location: the largest arrival window for which performing the computation
/// at the location still beats conventional execution. Negative slack is
/// clamped to 0 ("NDC never wins here").
///
/// breakeven = conv_done - (first_arrival@loc + op_latency + return_latency)
Cycle BreakevenPoint(const InstanceRecord& rec, Loc loc, Cycle op_latency,
                     Cycle return_latency);

/// Return-path latency estimate for an 8-byte NDC result from `from` to
/// `to` on an uncontended mesh.
Cycle ResultReturnLatency(const noc::Mesh& mesh, const noc::NetworkParams& np, NodeId from,
                          NodeId to);

/// Scans a trace and marks, for every NDC-candidate computation, whether
/// either operand's L1 line is accessed again later in the same trace
/// (the data-reuse signal used by the oracle and by Algorithm 2's gating).
std::vector<bool> ComputeFutureReuse(std::span<const arch::Instr> trace,
                                     std::uint64_t l1_line_bytes);

}  // namespace ndc::runtime
