#include "ndc/record.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace ndc::runtime {

void RunRecord::Sort() {
  // Sort a permutation, then apply it in place cycle by cycle: a 120-B
  // record moves once instead of once per swap.
  std::vector<std::uint32_t> from(recs_.size());
  std::iota(from.begin(), from.end(), 0u);
  std::ranges::sort(from, {}, [this](std::uint32_t i) { return KeyOf(recs_[i]); });
  for (std::uint32_t k = 0; k < from.size(); ++k) {
    if (from[k] == k) continue;
    InstanceRecord held = recs_[k];
    std::uint32_t j = k;
    while (from[j] != k) {
      recs_[j] = recs_[from[j]];
      std::uint32_t next = from[j];
      from[j] = j;
      j = next;
    }
    recs_[j] = held;
    from[j] = j;
  }
}

Cycle BreakevenPoint(const InstanceRecord& rec, Loc loc, Cycle op_latency,
                     Cycle return_latency) {
  const LocObs& obs = rec.at(loc);
  if (!obs.feasible || !obs.BothArrived() || rec.conv_done == sim::kNeverCycle) return 0;
  Cycle ndc_base = obs.FirstArrival() + op_latency + return_latency;
  if (ndc_base >= rec.conv_done) return 0;
  return rec.conv_done - ndc_base;
}

std::vector<bool> ComputeFutureReuse(std::span<const arch::Instr> trace,
                                     std::uint64_t l1_line_bytes) {
  std::vector<bool> reused(trace.size(), false);
  // Last trace index at which each L1 line is accessed by a Load or Store.
  std::unordered_map<sim::Addr, std::uint32_t> last_access;
  last_access.reserve(trace.size());
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    const arch::Instr& in = trace[i];
    if (in.kind() == arch::Instr::Kind::kLoad || in.kind() == arch::Instr::Kind::kStore) {
      last_access[in.addr() / l1_line_bytes * l1_line_bytes] = i;
    }
  }
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    const arch::Instr& in = trace[i];
    bool is_site = (in.kind() == arch::Instr::Kind::kCompute && in.ndc_candidate()) ||
                   in.kind() == arch::Instr::Kind::kPreCompute;
    if (!is_site || in.dep0() < 0 || in.dep1() < 0) continue;
    for (std::int32_t dep : {in.dep0(), in.dep1()}) {
      const arch::Instr& ld = trace[static_cast<std::size_t>(dep)];
      if (ld.kind() != arch::Instr::Kind::kLoad) continue;
      auto it = last_access.find(ld.addr() / l1_line_bytes * l1_line_bytes);
      if (it != last_access.end() && it->second > i) {
        reused[i] = true;
        break;
      }
    }
  }
  return reused;
}

}  // namespace ndc::runtime
