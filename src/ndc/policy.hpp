#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "arch/config.hpp"
#include "ndc/record.hpp"
#include "sim/types.hpp"

namespace ndc::runtime {

/// A run-time offload decision for one NDC candidate whose operands both
/// missed the local L1.
struct Decision {
  bool offload = false;
  Loc loc = Loc::kCacheCtrl;
  Cycle timeout = 0;
};

/// The component trial order of Section 5.2.1: "the order of components
/// tried exactly matches the path followed by a data access" — network
/// router first, then L2 bank, then (router again on the L2-miss path, which
/// shares the kLinkBuffer location kind), then memory queue, then memory
/// bank. Expressed over location kinds.
inline constexpr std::array<Loc, 4> kTrialOrder = {
    Loc::kLinkBuffer, Loc::kCacheCtrl, Loc::kMemCtrl, Loc::kMemBank};

/// First location in trial order present in `feasible_mask` (and allowed by
/// `control_mask`); returns false if none.
bool FirstFeasibleLoc(std::uint8_t feasible_mask, std::uint8_t control_mask, Loc* out);

/// A hardware-side waiting strategy (Section 4.4). Policies decide whether
/// and where to offload a candidate computation and how long the first
/// operand may wait (the time-out register value).
class Policy {
 public:
  virtual ~Policy() = default;
  /// Called when both operand loads of a candidate have issued and both
  /// missed the local L1. `feasible_mask` has a bit per Loc that is
  /// address-feasible for this instance.
  virtual Decision Decide(NodeId core, std::uint32_t compute_idx, std::uint32_t pc, Addr a,
                          Addr b, std::uint8_t feasible_mask) = 0;

  /// Feedback for online predictors: the arrival window eventually observed
  /// at the decided location (kNeverCycle if the operands never met).
  virtual void ObserveWindow(NodeId /*core*/, std::uint32_t /*pc*/, Cycle /*window*/) {}
};

/// The paper's "Default" bar (Figure 4): always offload at the first
/// feasible location and wait until the second operand arrives.
class AlwaysWaitPolicy final : public Policy {
 public:
  explicit AlwaysWaitPolicy(const arch::ArchConfig& cfg) : cfg_(&cfg) {}
  Decision Decide(NodeId, std::uint32_t, std::uint32_t, Addr, Addr,
                  std::uint8_t feasible_mask) override;

 private:
  const arch::ArchConfig* cfg_;
};

/// The paper's Wait(x%) bars: wait at most `fraction` of this instance's
/// *actual* arrival window (known from a profiling pass over the same
/// traces). Unknown/never windows fall back to `fraction` of the 500-cycle
/// CDF cap.
class FractionWaitPolicy final : public Policy {
 public:
  FractionWaitPolicy(const arch::ArchConfig& cfg, const RunRecord& profile, double fraction);
  Decision Decide(NodeId core, std::uint32_t compute_idx, std::uint32_t, Addr, Addr,
                  std::uint8_t feasible_mask) override;

 private:
  const arch::ArchConfig* cfg_;
  const RunRecord* profile_;
  double fraction_;
};

/// The paper's "Last Wait" predictor: assume the next arrival window of a
/// given PC equals the last one observed (Section 4.4), and kFirstGuess
/// cycles before the PC's first observation.
class LastWaitPolicy final : public Policy {
 public:
  static constexpr Cycle kFirstGuess = 50;

  explicit LastWaitPolicy(const arch::ArchConfig& cfg) : cfg_(&cfg) {}
  Decision Decide(NodeId core, std::uint32_t, std::uint32_t pc, Addr, Addr,
                  std::uint8_t feasible_mask) override;
  void ObserveWindow(NodeId core, std::uint32_t pc, Cycle window) override;

 private:
  const arch::ArchConfig* cfg_;
  std::map<std::pair<NodeId, std::uint32_t>, Cycle> last_;
};

/// A first-order Markov-chain window predictor over the CDF buckets
/// (mentioned in Section 4.4 as performing similarly to Last Wait).
class MarkovWaitPolicy final : public Policy {
 public:
  explicit MarkovWaitPolicy(const arch::ArchConfig& cfg) : cfg_(&cfg) {}
  Decision Decide(NodeId core, std::uint32_t, std::uint32_t pc, Addr, Addr,
                  std::uint8_t feasible_mask) override;
  void ObserveWindow(NodeId core, std::uint32_t pc, Cycle window) override;

 private:
  static int Bucket(Cycle w);
  static Cycle BucketTimeout(int b);
  struct PcState {
    int last_bucket = -1;
    // transition counts [from][to]
    std::array<std::array<std::uint32_t, 7>, 7> counts{};
  };
  const arch::ArchConfig* cfg_;
  std::map<std::pair<NodeId, std::uint32_t>, PcState> state_;
};

/// The oracle of Section 4.4: per dynamic instance, uses the profiled
/// timings to pick the best location (or conventional execution), waits
/// exactly until the known meeting time, and favors data locality whenever
/// one of the operands has a later reuse.
class OraclePolicy final : public Policy {
 public:
  OraclePolicy(const arch::ArchConfig& cfg, const RunRecord& profile);
  Decision Decide(NodeId core, std::uint32_t compute_idx, std::uint32_t, Addr, Addr,
                  std::uint8_t feasible_mask) override;

 private:
  const arch::ArchConfig* cfg_;
  const RunRecord* profile_;
  noc::Mesh mesh_;
};

}  // namespace ndc::runtime
