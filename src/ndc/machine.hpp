#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/config.hpp"
#include "arch/core.hpp"
#include "arch/memory_port.hpp"
#include "arch/trace.hpp"
#include "fault/conservation.hpp"
#include "fault/injector.hpp"
#include "mem/cache.hpp"
#include "mem/memctrl.hpp"
#include "ndc/policy.hpp"
#include "ndc/record.hpp"
#include "obs/obs.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/stats.hpp"
#include "sync/sync.hpp"

namespace ndc::runtime {

/// How a Machine run treats NDC.
struct MachineOptions {
  /// Record per-candidate operand arrival times at every feasible location
  /// (Section 4's quantification). No offloads are performed.
  bool observe = false;
  /// Hardware-side waiting policy applied to NDC candidates (Section 4.4
  /// strategies). Null = candidates run conventionally.
  Policy* policy = nullptr;
  /// Execute compiler-inserted PreCompute offloads (Section 5). When false
  /// they fall back to conventional execution (used for baselines).
  bool honor_precompute = true;
  /// Observation bundle (request tracer, decision log, metrics registry).
  /// Null (the default) means no observation: with NDC_OBS=OFF every hook
  /// compiles out entirely, and even with NDC_OBS=ON a null pointer reduces
  /// each hook to one predictable branch. Never affects simulated timing.
  obs::Observability* obs = nullptr;
  /// Fault injector driving this run (null = fault-free). The machine wires
  /// it into the NoC/MC fault hooks and applies its resilience budgets
  /// (timeout retry with backoff, degrade-to-host on exhaustion). Hooks are
  /// installed per fault class only when the schedule actually contains
  /// windows of that class, so an empty schedule leaves every simulated path
  /// bit-identical to a fault-free run.
  fault::FaultInjector* faults = nullptr;
  /// Sync-engine tuning (service occupancy per op). The subsystem itself is
  /// demand-driven: traces without kSync instructions never touch it, so
  /// sync-free runs stay bit-identical to pre-sync builds.
  sync::SyncParams sync;
  /// Simulation threads for conservative-window parallel execution
  /// (DESIGN.md §14). 1 (the default) is the historical sequential engine.
  /// Above 1 the machine shards into mesh quadrants and runs them
  /// concurrently between lookahead barriers when the run is eligible
  /// (baseline runs: no observe/policy/faults/obs, no kSync or kPreCompute
  /// instructions, mesh at least 2x2); ineligible runs silently degrade to
  /// the sequential engine, and their results equal those at 1. On eligible
  /// runs every value >= 2 is one deterministic schedule: RunResult and
  /// StatSet are identical for all of them, but they differ from 1 in
  /// same-cycle tie-breaks between shards, so makespan, event counts and
  /// cache counters may move slightly (the small-scale swim baseline runs
  /// 1,540,580 events at 1 thread and 1,541,156 at 2 or more).
  /// Tie-break-insensitive outcomes (offloads, NDC successes, fallbacks)
  /// stay exact. See DESIGN.md §14.
  int sim_threads = 1;
};

/// Aggregate results of one simulation run.
struct RunResult {
  sim::Cycle makespan = 0;  ///< max core finish cycle (execution time)
  std::uint64_t events = 0;

  std::uint64_t l1_hits = 0, l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  double L1MissRate() const {
    auto t = l1_hits + l1_misses;
    return t ? static_cast<double>(l1_misses) / static_cast<double>(t) : 0.0;
  }
  double L2MissRate() const {
    auto t = l2_hits + l2_misses;
    return t ? static_cast<double>(l2_misses) / static_cast<double>(t) : 0.0;
  }

  std::uint64_t candidates = 0;     ///< candidate computations (both loads seen)
  std::uint64_t local_l1_skips = 0; ///< skipped: an operand was in the local L1
  std::uint64_t offloads = 0;       ///< offload attempts
  std::uint64_t ndc_success = 0;    ///< computations actually performed near data
  std::uint64_t fallbacks = 0;      ///< offloads that fell back to the core
  std::array<std::uint64_t, arch::kNumLocs> ndc_at_loc{};  ///< successes per location

  sim::StatSet stats;  ///< merged component counters
  std::shared_ptr<RunRecord> records;  ///< observation data (observe mode)

  /// Final values of atomically-updated cells (sync runs only; empty
  /// otherwise). Keyed by address; the reproducibility tests compare these
  /// maps across same-seed runs.
  std::map<sim::Addr, std::int64_t> sync_values;
};

/// The simulated manycore machine of Section 2: a WxH mesh of
/// (core + private L1 + shared NUCA L2 bank) nodes, four memory controllers
/// with FR-FCFS DRAM scheduling, and NDC compute units with service tables
/// and time-out registers at link buffers, L2 cache controllers, memory
/// controllers, and memory banks.
class Machine final : public arch::MemoryPort {
 public:
  explicit Machine(const arch::ArchConfig& cfg, MachineOptions opts = {});
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Installs one trace per core (missing cores idle).
  void LoadProgram(std::vector<arch::Trace> traces);

  /// Runs to completion (or `limit`) and returns aggregate results.
  /// Per the EventQueue clock contract, eq().now() == `limit` afterwards
  /// even when the simulation drained earlier: the whole bounded window
  /// elapsed.
  /// Observability end-of-run stamps (unfinished request records, never-met
  /// decisions) therefore carry `limit`, not the last event's cycle.
  RunResult Run(sim::Cycle limit = 2'000'000'000ull);

  // --- MemoryPort (called by cores) ---
  void IssueLoad(sim::NodeId core, std::uint32_t idx, sim::Addr addr) override;
  void IssueStore(sim::NodeId core, std::uint32_t idx, sim::Addr addr) override;
  void IssuePreCompute(sim::NodeId core, std::uint32_t idx, const arch::Instr& instr) override;
  void IssueSync(sim::NodeId core, std::uint32_t idx, const arch::Instr& instr) override;

  // --- component access (tests, benches) ---
  const arch::ArchConfig& config() const { return cfg_; }
  sim::EventQueue& eq() { return eq_; }
  /// Sharded engine of the last Run (null when the run was sequential —
  /// sim_threads == 1 or the run was ineligible for sharding).
  sim::ShardedEventQueue* sharded_queue() { return sharded_ ? sq_.get() : nullptr; }
  noc::Network& network() { return *net_; }
  mem::Cache& l1(sim::NodeId n) { return *l1_[static_cast<std::size_t>(n)]; }
  mem::Cache& l2(sim::NodeId n) { return *l2_[static_cast<std::size_t>(n)]; }
  mem::MemCtrl& mc(sim::McId m) { return *mcs_[static_cast<std::size_t>(m)]; }
  arch::Core& core(sim::NodeId n) { return *cores_[static_cast<std::size_t>(n)]; }
  const mem::AddressMap& amap() const { return amap_; }
  sync::SyncManager& sync_manager() { return *sync_; }

  /// Snapshot of the request-conservation counters (call after Run drains):
  /// fault::CheckConservation(GatherConservation()) must report ok — no
  /// request lost, however hostile the fault schedule.
  fault::ConservationInputs GatherConservation() const;

 private:
  // Identification of the two operand loads feeding a candidate/precompute.
  struct CandInfo {
    std::uint32_t site_idx = 0;  ///< trace slot of the Compute/PreCompute
    std::array<std::uint32_t, 2> load_idx{};
    bool is_precompute = false;
  };

  enum class InstState { kPending, kWaiting, kComputed, kAborted, kConventional };

  // One dynamic NDC candidate in flight.
  struct Instance {
    std::uint64_t uid = 0;
    sim::NodeId core = sim::kNoNode;
    std::uint32_t site_idx = 0;
    std::uint32_t pc = 0, site = 0;
    arch::Op op = arch::Op::kAdd;
    std::array<std::uint32_t, 2> load_idx{};
    std::array<sim::Addr, 2> addr{};
    bool is_precompute = false;
    bool offloaded = false;
    Loc planned = Loc::kCacheCtrl;
    sim::Cycle timeout = 0;
    sim::Cycle cur_timeout = 0;  ///< current wait window (grows with backoff)
    int retries_used = 0;        ///< wait windows re-armed after a timeout
    InstState state = InstState::kPending;
    std::uint8_t feasible_mask = 0;

    // Routing plan (responses toward the core / L2) and shared links.
    std::array<noc::Route, 2> route_home_to_core{};
    std::array<noc::Route, 2> route_mc_to_home{};
    noc::Signature shared_links;
    sim::LinkId obs_link = sim::kNoLink;  ///< link used for observation timing
    bool fallback_done = false;

    // Waiting state.
    int waiting_op = -1;
    sim::LinkId held_link = sim::kNoLink;
    std::uint64_t held_packet = 0;
    std::function<void()> resume;  // held response continuation (non-link locs)
    std::uint64_t wait_token = 0;
    int service_key = -1;

    // Progress bookkeeping.
    std::array<sim::Cycle, 2> at_core{sim::kNeverCycle, sim::kNeverCycle};
    std::array<sim::Cycle, 2> at_planned{sim::kNeverCycle, sim::kNeverCycle};
    bool window_reported = false;

    // Observation (observe mode).
    std::array<LocObs, arch::kNumLocs> obs{};
    bool local_l1 = false;

    // Request-trace tokens of the two operand loads (0 = untraced).
    std::array<std::uint64_t, 2> obs_tok{};
  };

  enum class AbortReason { kTimeout, kPartnerDone, kRetriesExhausted };

  // -- memory path --
  // `rtok` is the request-trace token of the load making its way through the
  // hierarchy (0 = untraced; always 0 when observation is off).
  void StartL1Miss(sim::NodeId core, std::uint32_t idx, sim::Addr addr, Instance* inst,
                   int operand, std::uint64_t rtok);
  void AccessL2(sim::NodeId home, sim::NodeId core, std::uint32_t idx, sim::Addr addr,
                std::uint64_t tag, std::uint64_t rtok);
  void L2DataReady(sim::NodeId home, sim::NodeId core, std::uint32_t idx, sim::Addr addr,
                   std::uint64_t tag, std::uint64_t rtok);
  void McDataReady(sim::McId mc, sim::NodeId home, sim::NodeId core, std::uint32_t idx,
                   sim::Addr addr, std::uint64_t tag, std::uint64_t rtok);
  void SendResponseToCore(sim::NodeId home, sim::NodeId core, std::uint32_t idx,
                          sim::Addr addr, std::uint64_t tag, std::uint64_t rtok);
  void DeliverToCore(sim::NodeId core, std::uint32_t idx, sim::Addr addr, std::uint64_t tag,
                     std::uint64_t rtok);
  void SendLocal(sim::NodeId from, sim::NodeId to, int bytes, noc::Route route,
                 std::uint64_t tag, int kind, noc::Network::DeliverFn fn,
                 std::uint64_t rtok = 0);

  // -- NDC engine --
  void OnSecondLoadIssued(sim::NodeId core, const CandInfo& cand, sim::Addr a, sim::Addr b);
  std::uint8_t ComputeFeasibility(Instance& inst);
  void PlanRoutes(Instance& inst);
  noc::HopAction OnHop(noc::Packet& p, sim::LinkId link, sim::Cycle now);
  /// Operand data became available at a non-link location. Returns true if
  /// the machine should NOT forward the data onward (held or consumed).
  bool OnOperandAtLoc(Instance& inst, int operand, Loc loc, sim::NodeId node, int service_key,
                      std::function<void()> resume);
  void MeetAndCompute(Instance& inst, Loc loc, sim::NodeId node);
  /// Arms (or re-arms) the wait-timeout timer for a waiting instance using
  /// its current (possibly backed-off) window.
  void ArmWaitTimeout(Instance& inst);
  /// A wait window expired: retry with backoff if the resilience budget
  /// allows, otherwise abort (degrading to host-core execution).
  void OnWaitTimeout(Instance& inst);
  void AbortWait(Instance& inst, AbortReason reason);
  void OnOperandAtCore(Instance& inst, int operand, sim::Cycle when);
  void MaybeFallback(Instance& inst);
  void RecordObs(Instance& inst, int operand, Loc loc, sim::NodeId node, sim::Cycle t);
  void ReportWindow(Instance& inst);
  bool ServiceTableReserve(Loc loc, int key);
  void ServiceTableRelease(Loc loc, int key);

  Instance* FindInstance(sim::NodeId core, std::uint32_t site_idx);
  Instance* InstanceByUid(std::uint64_t uid);

  // -- conservative-window sharding (DESIGN.md §14) --
  /// True when this program/option combination may run sharded: baseline
  /// runs only (no observe/policy/faults/obs and no kSync/kPreCompute
  /// instructions — those subsystems keep cross-shard state), on a mesh
  /// with at least 2x2 quadrants.
  bool ShardingEligible() const;
  /// Builds the sharded engine on first eligible Run: quadrant shard map,
  /// per-shard queues with the NoC lookahead, core/MC queue rebinding, and
  /// up-front creation of every candidate instance (the map must be
  /// structurally immutable while shards run concurrently).
  void SetupSharding();
  void PreCreateInstances();

  void FinalizeRecords(RunResult& result);

  /// True when this run observes itself. Folds to `false` at compile time
  /// under NDC_OBS=OFF, removing every instrumentation block it guards.
  bool ObsOn() const { return obs::kObsEnabled && opts_.obs != nullptr; }
  /// Records the one-and-only audit entry for a candidate decision.
  void RecordDecision(const Instance& inst, obs::DecisionKind kind, std::int8_t planned_loc);
  void ResolveDecision(const Instance& inst, obs::Outcome outcome, std::int8_t met_loc);
  void MaterializeStats();
  void MirrorRegistry(const RunResult& r);

  arch::ArchConfig cfg_;
  MachineOptions opts_;
  sim::EventQueue eq_;
  noc::Mesh mesh_;

  // Conservative-window sharding state. `ceq()` is the queue of the shard
  // executing the current event — the plain queue on sequential runs; it
  // must only be used from inside event callbacks once sharded.
  std::unique_ptr<sim::ShardedEventQueue> sq_;
  std::vector<int> shard_of_node_;
  bool sharded_ = false;
  sim::EventQueue& ceq() { return sharded_ ? sq_->current() : eq_; }
  mem::AddressMap amap_;
  std::unique_ptr<noc::Network> net_;
  std::vector<std::unique_ptr<mem::Cache>> l1_;
  std::vector<std::unique_ptr<mem::Cache>> l2_;
  std::vector<sim::Cycle> l2_busy_until_;
  std::vector<std::unique_ptr<mem::MemCtrl>> mcs_;
  std::vector<sim::NodeId> mc_nodes_;
  std::vector<std::unique_ptr<arch::Core>> cores_;
  std::unique_ptr<sync::SyncManager> sync_;

  // Trace preprocessing: per core, map load slot -> (candidate, operand).
  std::vector<std::vector<std::int32_t>> load_to_cand_;  // cand*2 + operand, -1 none
  std::vector<std::vector<CandInfo>> cands_;
  std::vector<std::vector<bool>> future_reuse_;     // per core/slot, L1-line grain
  std::vector<std::vector<bool>> future_reuse_l2_;  // per core/slot, L2-line grain

  // Live instances keyed by (core, site trace slot) and by uid.
  std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> site_to_uid_;
  std::unordered_map<std::uint64_t, Instance> instances_;
  std::uint64_t next_uid_ = 1;
  std::uint64_t next_wait_token_ = 1;

  /// Per-shard machine state touched on the candidate hot path (one lane on
  /// sequential runs). Keeping the candidate counters and the memoized
  /// route-pair cache per shard lets concurrent shards bump and memoize
  /// without sharing a written cache line; counters merge in shard order at
  /// materialization.
  struct alignas(64) ShardLane {
    sim::RawCounter candidates, local_l1_skips;
    // Memoized route-pair overlap results, keyed by (srcA,dstA,srcB,dstB).
    std::unordered_map<std::uint64_t, noc::RoutePair> route_pairs;
  };
  std::deque<ShardLane> lanes_;
  ShardLane& lane() {
    return sharded_
               ? lanes_[static_cast<std::size_t>(sim::ShardedEventQueue::CurrentShard())]
               : lanes_.front();
  }

  const noc::RoutePair& OverlapFor(sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                                   sim::NodeId b_dst, bool reroute);

  std::array<std::map<int, int>, arch::kNumLocs> service_tables_;
  std::vector<int> active_offloads_;  // per-core offload-table occupancy

  std::shared_ptr<RunRecord> records_;
  // Hot-path counters (plain bumps; string keys only at materialization).
  // The candidate-path counters live in lanes_ (they are hit under
  // sharding); everything below is only reachable on sequential runs
  // (offload/policy/fault paths) or after the run completes.
  sim::RawCounter offloads_, success_, fallbacks_,
      plan_infeasible_, offload_table_full_, service_table_full_, abort_timeout_,
      abort_partner_done_, incomplete_cores_;
  // Resilience counters: touched only when a fault schedule enables retries,
  // so their StatSet keys never appear in fault-free runs (goldens frozen).
  sim::RawCounter retries_, degraded_;
  sim::StatSet stats_;
  std::array<std::uint64_t, arch::kNumLocs> ndc_at_loc_{};
};

}  // namespace ndc::runtime
