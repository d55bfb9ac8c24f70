#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "ndc/slab.hpp"
#include "sim/types.hpp"

namespace ndc::runtime {

using arch::Loc;
using sim::Addr;
using sim::Cycle;
using sim::NodeId;

/// Observation of one (computation, location) pair from a profiling pass:
/// when each operand's data was present at the location.
struct LocObs {
  Cycle t_a = sim::kNeverCycle;  ///< operand A data present at the location
  Cycle t_b = sim::kNeverCycle;  ///< operand B data present at the location
  NodeId node = sim::kNoNode;  ///< mesh node hosting the component
  bool feasible = false;       ///< statically address-feasible (homes/MCs/banks/links)
  bool meet_ok = true;         ///< false if residency was lost before the partner arrived

  bool BothArrived() const { return t_a != sim::kNeverCycle && t_b != sim::kNeverCycle; }

  /// The paper's *arrival window*: cycles the first-arriving operand waits
  /// for the second, kNeverCycle when they never meet (Section 4.1).
  Cycle Window() const {
    if (!feasible || !meet_ok || !BothArrived()) return sim::kNeverCycle;
    return t_a > t_b ? t_a - t_b : t_b - t_a;
  }

  Cycle FirstArrival() const { return t_a < t_b ? t_a : t_b; }
};

/// Everything recorded for one dynamic NDC candidate (a computation c with
/// operands A and B) during an observation pass. Its operands' slots and
/// addresses are read from the trace, through (core, compute_idx).
struct InstanceRecord {
  NodeId core = sim::kNoNode;
  std::uint32_t compute_idx = 0;  ///< trace slot of the computation
  std::uint32_t pc = 0;
  bool local_l1 = false;  ///< an operand hit the local L1 (NDC skipped)
  bool operand_reused_later = false;     ///< later access reuses A or B (L1-line grain)
  bool operand_reused_later_l2 = false;  ///< same, at L2-line (256 B) granularity
  Cycle conv_done = sim::kNeverCycle;  ///< conventional completion of c
  std::array<LocObs, arch::kNumLocs> locs{};

  const LocObs& at(Loc l) const { return locs[static_cast<std::size_t>(l)]; }
  LocObs& at(Loc l) { return locs[static_cast<std::size_t>(l)]; }
};

/// Observation output of a whole profiling run, keyed by (core, trace slot),
/// which is stable across passes over the same traces. The records sit in a
/// slab: appended in any order while a run observes, then sorted once by
/// (core, compute_idx), after which Find and ForEach read them.
class RunRecord {
 public:
  /// Appends the record of (core, compute_idx), with those two fields set.
  /// References to earlier records stay valid.
  InstanceRecord& Append(NodeId core, std::uint32_t compute_idx) {
    InstanceRecord& rec = recs_.Append();
    rec.core = core;
    rec.compute_idx = compute_idx;
    return rec;
  }
  /// The `i`-th record in append order (until Sort()).
  InstanceRecord& operator[](std::size_t i) { return recs_[i]; }

  /// Orders the records by (core, compute_idx), moving each one once.
  void Sort();

  /// The record of (core, compute_idx), or null. Requires sorted records.
  const InstanceRecord* Find(NodeId core, std::uint32_t compute_idx) const {
    std::uint64_t key = Key(core, compute_idx);
    std::size_t lo = 0, hi = recs_.size();
    while (lo < hi) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (KeyOf(recs_[mid]) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < recs_.size() && KeyOf(recs_[lo]) == key ? &recs_[lo] : nullptr;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < recs_.size(); ++i) fn(recs_[i]);
  }

  std::size_t TotalInstances() const { return recs_.size(); }

  /// Bytes the records hold, counting every slot of the slab's chunks.
  std::size_t Bytes() const { return recs_.Bytes(); }

 private:
  static std::uint64_t Key(NodeId core, std::uint32_t compute_idx) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(core)) << 32) | compute_idx;
  }
  static std::uint64_t KeyOf(const InstanceRecord& rec) { return Key(rec.core, rec.compute_idx); }

  Slab<InstanceRecord, 1024> recs_;
};

/// The paper's *breakeven point* (Section 4.1) for one observed instance and
/// location: the largest arrival window for which performing the computation
/// at the location still beats conventional execution. Negative slack is
/// clamped to 0 ("NDC never wins here").
///
/// breakeven = conv_done - (first_arrival@loc + op_latency + return_latency)
Cycle BreakevenPoint(const InstanceRecord& rec, Loc loc, Cycle op_latency,
                     Cycle return_latency);

/// Scans a trace and marks, for every NDC-candidate computation, whether
/// either operand's L1 line is accessed again later in the same trace
/// (the data-reuse signal used by the oracle and by Algorithm 2's gating).
std::vector<bool> ComputeFutureReuse(std::span<const arch::Instr> trace,
                                     std::uint64_t l1_line_bytes);

}  // namespace ndc::runtime
