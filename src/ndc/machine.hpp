#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/config.hpp"
#include "arch/core.hpp"
#include "arch/memory_port.hpp"
#include "arch/trace.hpp"
#include "fault/conservation.hpp"
#include "mem/cache.hpp"
#include "mem/memctrl.hpp"
#include "ndc/policy.hpp"
#include "ndc/record.hpp"
#include "obs/obs.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

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

  /// Installs one trace per core (missing cores idle). Throws
  /// std::invalid_argument when there are more traces than cores.
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

  // --- component access (tests, benches) ---
  const arch::ArchConfig& config() const { return cfg_; }
  sim::EventQueue& eq() { return eq_; }
  noc::Network& network() { return *net_; }
  mem::Cache& l1(sim::NodeId n) { return *l1_[static_cast<std::size_t>(n)]; }
  mem::Cache& l2(sim::NodeId n) { return *l2_[static_cast<std::size_t>(n)]; }
  mem::MemCtrl& mc(sim::McId m) { return *mcs_[static_cast<std::size_t>(m)]; }
  arch::Core& core(sim::NodeId n) { return *cores_[static_cast<std::size_t>(n)]; }
  const mem::AddressMap& amap() const { return amap_; }

  /// Snapshot of the request-conservation counters (call after Run drains):
  /// fault::CheckConservation(GatherConservation()) must report ok — no
  /// request lost.
  fault::ConservationInputs GatherConservation() const;

 private:
  // Identification of the two operand loads feeding a candidate/precompute.
  struct CandInfo {
    std::uint32_t site_idx = 0;  ///< trace slot of the Compute/PreCompute
    std::array<std::uint32_t, 2> load_idx{};
    bool is_precompute = false;
  };

  enum class InstState { kPending, kWaiting, kComputed, kAborted, kConventional };

  /// A response held at a non-link NDC location, as a plain record of the
  /// forward it was about to take: MC -> home L2 bank, or home -> core. An
  /// aborted wait replays it through ForwardToHome / SendResponseToCore; a
  /// meeting discards it.
  struct HeldResponse {
    enum class Leg : std::uint8_t { kNone, kMcToHome, kHomeToCore };
    Leg leg = Leg::kNone;
    sim::McId mc = 0;  ///< kMcToHome only
    sim::Payload msg;
    std::uint64_t tag = 0;
    std::uint64_t rtok = 0;
  };

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
    InstState state = InstState::kPending;
    std::uint8_t feasible_mask = 0;

    // Routing plan (responses toward the core / L2), as ids in the
    // network's route table.
    std::array<noc::RouteId, 2> route_home_to_core{noc::kXyRoute, noc::kXyRoute};
    std::array<noc::RouteId, 2> route_mc_to_home{noc::kXyRoute, noc::kXyRoute};
    sim::LinkId obs_link = sim::kNoLink;  ///< link used for observation timing
    bool fallback_done = false;

    // Waiting state.
    int waiting_op = -1;
    sim::LinkId held_link = sim::kNoLink;
    std::uint64_t held_packet = 0;
    HeldResponse resume;  // held response (non-link locs)
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

  enum class AbortReason { kTimeout, kPartnerDone };

  // -- memory path --
  // A load making its way through the hierarchy is `msg` (requesting core,
  // its trace slot, the address and its home bank), its NDC `tag` (0 = not
  // an operand of a live instance) and `rtok`, its request-trace token
  // (0 = untraced; always 0 when observation is off).
  void StartL1Miss(sim::NodeId core, std::uint32_t idx, sim::Addr addr, Instance* inst,
                   int operand, std::uint64_t rtok);
  void AccessL2(const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok);
  void L2DataReady(const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok);
  void McDataReady(sim::McId mc, const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok);
  void ForwardToHome(sim::McId mc, const sim::Payload& msg, std::uint64_t tag,
                     std::uint64_t rtok);
  void SendResponseToCore(const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok);
  void DeliverToCore(const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok);
  /// Sends a message of `kind` to `to`; on arrival OnDeliver dispatches it.
  /// A same-node message skips the network but still pays one router
  /// pipeline transit.
  void SendLocal(sim::NodeId from, sim::NodeId to, int bytes, noc::RouteId route,
                 std::uint64_t tag, int kind, const sim::Payload& msg, std::uint64_t rtok = 0);
  /// The one receiver of the machine's messages: dispatches on packet kind.
  void OnDeliver(const noc::Packet& p);

  // -- NDC engine --
  void OnSecondLoadIssued(sim::NodeId core, const CandInfo& cand, sim::Addr a, sim::Addr b);
  std::uint8_t ComputeFeasibility(Instance& inst);
  void PlanRoutes(Instance& inst);
  noc::HopAction OnHop(noc::Packet& p, sim::LinkId link, sim::Cycle now);
  /// Operand data became available at a non-link location. Returns true if
  /// the machine should NOT forward the data onward (held or consumed).
  bool OnOperandAtLoc(Instance& inst, int operand, Loc loc, sim::NodeId node, int service_key,
                      const HeldResponse& resume);
  void MeetAndCompute(Instance& inst, Loc loc, sim::NodeId node);
  /// Arms the wait-timeout timer for a waiting instance; on expiry the
  /// wait aborts and the instance falls back to host-core execution.
  void ArmWaitTimeout(Instance& inst);
  void AbortWait(Instance& inst, AbortReason reason);
  void OnOperandAtCore(Instance& inst, int operand, sim::Cycle when);
  void MaybeFallback(Instance& inst);
  void RecordObs(Instance& inst, int operand, Loc loc, sim::NodeId node, sim::Cycle t);
  void ReportWindow(Instance& inst);
  bool ServiceTableReserve(Loc loc, int key);
  void ServiceTableRelease(Loc loc, int key);

  Instance* FindInstance(sim::NodeId core, std::uint32_t site_idx);
  Instance* InstanceByUid(std::uint64_t uid);
  /// Appends a fresh instance to the slab and assigns it the next uid.
  Instance& NewInstance();

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
  mem::AddressMap amap_;
  std::unique_ptr<noc::Network> net_;
  std::vector<std::unique_ptr<mem::Cache>> l1_;
  std::vector<std::unique_ptr<mem::Cache>> l2_;
  std::vector<sim::Cycle> l2_busy_until_;
  std::vector<std::unique_ptr<mem::MemCtrl>> mcs_;
  std::vector<sim::NodeId> mc_nodes_;
  std::vector<std::unique_ptr<arch::Core>> cores_;

  // Trace preprocessing: per core, map load slot -> (candidate, operand).
  std::vector<std::vector<std::int32_t>> load_to_cand_;  // cand*2 + operand, -1 none
  std::vector<std::vector<CandInfo>> cands_;
  std::vector<std::vector<bool>> future_reuse_;     // per core/slot, L1-line grain
  std::vector<std::vector<bool>> future_reuse_l2_;  // per core/slot, L2-line grain

  // Instances live in a slab indexed by uid - 1, in fixed chunks that are
  // never freed or moved during a run (pointers stay valid). A chunk stays
  // below glibc's 128 KiB initial mmap threshold: a larger block would be
  // mmapped and, once freed, raise the dynamic threshold and with it the
  // heap's peak RSS.
  static constexpr std::size_t kInstancesPerChunk = 128;
  std::vector<std::unique_ptr<Instance[]>> instance_chunks_;
  // Per core, site trace slot -> uid of its instance (0 = none yet). Uids
  // are stored in 32 bits, so a run may create at most 2^32 - 1 instances
  // (asserted where a uid is stored).
  std::vector<std::vector<std::uint32_t>> site_to_uid_;
  std::uint64_t next_uid_ = 1;
  std::uint64_t next_wait_token_ = 1;

  // Memoized route-pair overlap results, keyed by (srcA,dstA,srcB,dstB).
  std::unordered_map<std::uint64_t, noc::RouteIdPair> route_pairs_;

  const noc::RouteIdPair& OverlapFor(sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                                     sim::NodeId b_dst, bool reroute);

  std::array<std::map<int, int>, arch::kNumLocs> service_tables_;
  std::vector<int> active_offloads_;  // per-core offload-table occupancy

  std::shared_ptr<RunRecord> records_;
  // Hot-path counters (plain bumps; string keys only at materialization).
  sim::RawCounter candidates_, local_l1_skips_, offloads_, success_, fallbacks_,
      plan_infeasible_, offload_table_full_, service_table_full_, abort_timeout_,
      abort_partner_done_, incomplete_cores_;
  sim::StatSet stats_;
  std::array<std::uint64_t, arch::kNumLocs> ndc_at_loc_{};
};

}  // namespace ndc::runtime
