#include "ndc/policy.hpp"

#include <algorithm>

namespace ndc::runtime {

bool FirstFeasibleLoc(std::uint8_t feasible_mask, std::uint8_t control_mask, Loc* out) {
  std::uint8_t m = feasible_mask & control_mask;
  for (Loc l : kTrialOrder) {
    if (m & arch::LocBit(l)) {
      *out = l;
      return true;
    }
  }
  return false;
}

Decision AlwaysWaitPolicy::Decide(NodeId, std::uint32_t, std::uint32_t, Addr, Addr,
                                  std::uint8_t feasible_mask) {
  Decision d;
  Loc loc;
  if (!FirstFeasibleLoc(feasible_mask, cfg_->control_register, &loc)) return d;
  d.offload = true;
  d.loc = loc;
  d.timeout = cfg_->default_timeout;  // "wait until the second operand arrives"
  return d;
}

FractionWaitPolicy::FractionWaitPolicy(const arch::ArchConfig& cfg, const RunRecord& profile,
                                       double fraction)
    : cfg_(&cfg), profile_(&profile), fraction_(fraction) {}

Decision FractionWaitPolicy::Decide(NodeId core, std::uint32_t compute_idx, std::uint32_t,
                                    Addr, Addr, std::uint8_t feasible_mask) {
  Decision d;
  Loc loc;
  if (!FirstFeasibleLoc(feasible_mask, cfg_->control_register, &loc)) return d;
  Cycle window = sim::kNeverCycle;
  if (const InstanceRecord* rec = profile_->Find(core, compute_idx)) {
    window = rec->at(loc).Window();
  }
  if (window == sim::kNeverCycle) window = 500;  // CDF cap for "never meets"
  d.offload = true;
  d.loc = loc;
  d.timeout = std::max<Cycle>(1, static_cast<Cycle>(static_cast<double>(window) * fraction_));
  return d;
}

Decision LastWaitPolicy::Decide(NodeId core, std::uint32_t, std::uint32_t pc, Addr, Addr,
                                std::uint8_t feasible_mask) {
  Decision d;
  Loc loc;
  if (!FirstFeasibleLoc(feasible_mask, cfg_->control_register, &loc)) return d;
  auto it = last_.find({core, pc});
  Cycle guess = it == last_.end() ? kFirstGuess : it->second;
  if (guess == sim::kNeverCycle) return d;  // last time they never met: skip NDC
  d.offload = true;
  d.loc = loc;
  d.timeout = std::max<Cycle>(1, guess);
  return d;
}

void LastWaitPolicy::ObserveWindow(NodeId core, std::uint32_t pc, Cycle window) {
  last_[{core, pc}] = window;
}

int MarkovWaitPolicy::Bucket(Cycle w) {
  if (w == sim::kNeverCycle) return 6;
  if (w <= 1) return 0;
  if (w <= 10) return 1;
  if (w <= 20) return 2;
  if (w <= 50) return 3;
  if (w <= 100) return 4;
  if (w <= 500) return 5;
  return 6;
}

Cycle MarkovWaitPolicy::BucketTimeout(int b) {
  switch (b) {
    case 0: return 1;
    case 1: return 10;
    case 2: return 20;
    case 3: return 50;
    case 4: return 100;
    case 5: return 500;
    default: return 0;  // "never" bucket: predict no meeting
  }
}

Decision MarkovWaitPolicy::Decide(NodeId core, std::uint32_t, std::uint32_t pc, Addr, Addr,
                                  std::uint8_t feasible_mask) {
  Decision d;
  Loc loc;
  if (!FirstFeasibleLoc(feasible_mask, cfg_->control_register, &loc)) return d;
  auto it = state_.find({core, pc});
  int predicted = 3;  // cold prediction: middle bucket
  if (it != state_.end() && it->second.last_bucket >= 0) {
    const auto& row = it->second.counts[static_cast<std::size_t>(it->second.last_bucket)];
    int best = -1;
    std::uint32_t best_count = 0;
    for (int b = 0; b < 7; ++b) {
      if (row[static_cast<std::size_t>(b)] > best_count) {
        best_count = row[static_cast<std::size_t>(b)];
        best = b;
      }
    }
    predicted = best >= 0 ? best : it->second.last_bucket;
  }
  Cycle timeout = BucketTimeout(predicted);
  if (timeout == 0) return d;
  d.offload = true;
  d.loc = loc;
  d.timeout = timeout;
  return d;
}

void MarkovWaitPolicy::ObserveWindow(NodeId core, std::uint32_t pc, Cycle window) {
  PcState& st = state_[{core, pc}];
  int b = Bucket(window);
  if (st.last_bucket >= 0) {
    ++st.counts[static_cast<std::size_t>(st.last_bucket)][static_cast<std::size_t>(b)];
  }
  st.last_bucket = b;
}

OraclePolicy::OraclePolicy(const arch::ArchConfig& cfg, const RunRecord& profile)
    : cfg_(&cfg), profile_(&profile), mesh_(cfg.mesh_width, cfg.mesh_height) {}

Decision OraclePolicy::Decide(NodeId core, std::uint32_t compute_idx, std::uint32_t, Addr,
                              Addr, std::uint8_t feasible_mask) {
  Decision d;
  const InstanceRecord* rec = profile_->Find(core, compute_idx);
  if (rec == nullptr) return d;
  // Favor data locality over NDC whenever an operand has a later reuse
  // (the paper's oracle uses a single reuse as the threshold, k = 0).
  if (rec->operand_reused_later) return d;
  // The paper's rule: perform NDC iff the arrival window is within the
  // breakeven point; otherwise resort to conventional computing. Among
  // qualifying locations, pick the one with the largest slack.
  Cycle best_slack = 0;
  for (Loc loc : kTrialOrder) {
    if (!(feasible_mask & cfg_->control_register & arch::LocBit(loc))) continue;
    // Memory-side computation also squashes the L2 fill: gate on L2-line
    // reuse for those locations.
    if ((loc == Loc::kMemCtrl || loc == Loc::kMemBank) && rec->operand_reused_later_l2) {
      continue;
    }
    const LocObs& obs = rec->at(loc);
    Cycle window = obs.Window();
    if (window == sim::kNeverCycle) continue;
    Cycle ret = noc::ResultReturnLatency(mesh_, cfg_->noc, obs.node, core);
    Cycle breakeven = BreakevenPoint(*rec, loc, cfg_->compute_latency, ret);
    if (breakeven == 0 || window > breakeven) continue;  // past breakeven: skip NDC
    Cycle slack = breakeven - window;
    if (!d.offload || slack > best_slack) {
      best_slack = slack;
      d.offload = true;
      d.loc = loc;
      // The oracle waits only until the breakeven point (Section 4.4);
      // since window <= breakeven here, this bounds the loss to zero on
      // profile timing and tolerates live-run drift up to the slack.
      d.timeout = breakeven + 1;
    }
  }
  return d;
}

}  // namespace ndc::runtime
