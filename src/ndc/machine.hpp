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
  /// Observation bundle (request tracer, decision log, trace sink).
  /// Null (the default) means no observation, which reduces each hook to
  /// one predictable branch. Never affects simulated timing.
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

  sim::StatSet stats;  ///< merged counters: machine, network, MCs and cores
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
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Installs one trace per core (missing cores idle). Throws
  /// std::invalid_argument when there are more traces than cores, or when
  /// a dep does not name an earlier slot of its own trace.
  ///
  /// This overload borrows: the cores read the caller's instructions in
  /// place, so the caller keeps `traces` alive and unmodified until Run()
  /// returns. Nothing is copied.
  void LoadProgram(const std::vector<arch::Trace>& traces);
  /// This overload owns: it moves `traces` (never copies them) into the
  /// machine, which then borrows from its own vector, so a temporary is safe.
  void LoadProgram(std::vector<arch::Trace>&& traces);

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

  /// The machine's own counters by name ("ndc.offloads", "ndc.at.<loc>",
  /// "run.incomplete_cores", ...). Run() merges these with every
  /// component's stats() into RunResult::stats.
  sim::StatSet stats() const;

  /// Bytes of per-run state held in per-slot and per-candidate containers
  /// (the machine's and its cores'): element size times element count,
  /// where a slab counts every element of its allocated chunks. The traces
  /// themselves are not counted. Deterministic for a given program and
  /// options, unlike RSS.
  std::size_t RunStateBytes() const;

  /// sizeof the record every NDC candidate gets (offloaded or not).
  static constexpr std::size_t CandidateRecordBytes();

 private:
  /// Append-only storage in fixed chunks that are never freed or moved
  /// during a run, so references stay valid. A chunk stays below glibc's
  /// 128 KiB initial mmap threshold: a larger block would be mmapped and,
  /// once freed, raise the dynamic threshold and with it the heap's peak RSS.
  template <typename T, std::size_t kPerChunk>
  class Slab {
   public:
    static_assert(sizeof(T) * kPerChunk < 128 * 1024,
                  "a slab chunk must stay below glibc's initial mmap threshold");
    std::size_t size() const { return size_; }
    T& operator[](std::size_t i) { return chunks_[i / kPerChunk][i % kPerChunk]; }
    const T& operator[](std::size_t i) const { return chunks_[i / kPerChunk][i % kPerChunk]; }
    T& Append() {
      if (size_ % kPerChunk == 0) chunks_.push_back(std::make_unique<T[]>(kPerChunk));
      return (*this)[size_++];
    }
    void Clear() {
      chunks_.clear();
      size_ = 0;
    }
    std::size_t Bytes() const { return chunks_.size() * kPerChunk * sizeof(T); }

   private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
  };

  // A candidate site of a core's trace: a Compute/PreCompute whose two deps
  // are loads feeding no other site. Its identity (pc, site, op, operand
  // slots and addresses, pre-compute or not) is read from the trace.
  struct CandInfo {
    std::uint32_t site_idx = 0;  ///< trace slot of the Compute/PreCompute
    std::uint32_t uid = 0;       ///< its instance (0 = none yet)
  };

  enum class InstState : std::uint8_t { kPending, kWaiting, kComputed, kAborted, kConventional };

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

  // One dynamic NDC candidate: what every candidate needs, offloaded or not.
  struct Instance {
    std::array<sim::Cycle, 2> at_core{sim::kNeverCycle, sim::kNeverCycle};
    std::uint32_t uid = 0;
    sim::NodeId core = sim::kNoNode;
    std::uint32_t site_idx = 0;
    std::uint32_t off = 0;  ///< 1 + its index in the offload slab; 0 = not offloaded
    InstState state = InstState::kPending;
    std::uint8_t feasible_mask = 0;
    bool fallback_done = false;
    bool local_l1 = false;  ///< an operand was in the local L1 (NDC skipped)

    bool offloaded() const { return off != 0; }
  };

  // The state of an offloaded candidate, created where the engine decides
  // to offload. Only offloaded instances (and the wait states only they
  // reach) read it.
  struct Offload {
    Loc planned = Loc::kCacheCtrl;
    bool window_reported = false;
    int waiting_op = -1;
    int service_key = -1;
    sim::Cycle timeout = 0;
    // Routing plan (responses toward the core / L2), as ids in the
    // network's route table.
    std::array<noc::RouteId, 2> route_home_to_core{noc::kXyRoute, noc::kXyRoute};
    std::array<noc::RouteId, 2> route_mc_to_home{noc::kXyRoute, noc::kXyRoute};
    sim::LinkId obs_link = sim::kNoLink;  ///< the designated meeting link
    sim::LinkId held_link = sim::kNoLink;
    std::uint64_t held_packet = 0;
    std::uint64_t wait_token = 0;
    std::array<sim::Cycle, 2> at_planned{sim::kNeverCycle, sim::kNeverCycle};
    HeldResponse resume;  // held response (non-link locs)
  };

  // Per-candidate observation (observe mode only): operand arrival times at
  // every location, and the shared link whose timing stands for the link
  // buffer.
  struct ObsState {
    std::array<LocObs, arch::kNumLocs> locs{};
    sim::LinkId link = sim::kNoLink;
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
  // A candidate's identity, read from its core's trace.
  const arch::Instr& SiteInstr(const Instance& inst) const {
    return cores_[static_cast<std::size_t>(inst.core)]->trace()[inst.site_idx];
  }
  std::uint32_t LoadIdx(const Instance& inst, int operand) const {
    const arch::Instr& s = SiteInstr(inst);
    return static_cast<std::uint32_t>(operand == 0 ? s.dep0() : s.dep1());
  }
  sim::Addr OperandAddr(const Instance& inst, int operand) const {
    return cores_[static_cast<std::size_t>(inst.core)]->trace()[LoadIdx(inst, operand)].addr();
  }
  bool IsPrecompute(const Instance& inst) const {
    return SiteInstr(inst).kind() == arch::Instr::Kind::kPreCompute;
  }
  Offload& OffloadOf(const Instance& inst) { return offload_slab_[inst.off - 1]; }

  void OnSecondLoadIssued(Instance& inst);
  std::uint8_t ComputeFeasibility(const Instance& inst);
  /// Plans the candidate's response routes into `off` (when non-null) and
  /// returns the link whose timing stands for the link buffer: the first
  /// shared link along operand A's home->core route, else the MC segment's.
  sim::LinkId PlanRoutes(const Instance& inst, Offload* off);
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
  void RecordObs(const Instance& inst, int operand, Loc loc, sim::NodeId node, sim::Cycle t);
  void ReportWindow(Instance& inst);
  bool ServiceTableReserve(Loc loc, int key);
  void ServiceTableRelease(Loc loc, int key);

  /// The instance of the candidate whose site is trace slot `site_idx`, or
  /// null (not a candidate site, or no operand load issued yet).
  Instance* FindInstance(sim::NodeId core, std::uint32_t site_idx);
  Instance* InstanceByUid(std::uint64_t uid) {
    return uid == 0 || uid > instances_.size() ? nullptr : &instances_[uid - 1];
  }
  /// Appends a fresh instance (and its observe-only side entries) and
  /// assigns it the next uid.
  Instance& NewInstance();

  void FinalizeRecords(RunResult& result);

  /// True when this run observes itself.
  bool ObsOn() const { return opts_.obs != nullptr; }
  /// Records the one-and-only audit entry for a candidate decision.
  void RecordDecision(const Instance& inst, obs::DecisionKind kind, std::int8_t planned_loc);
  void ResolveDecision(const Instance& inst, obs::Outcome outcome, std::int8_t met_loc);

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

  // The traces a LoadProgram(&&) handed over; the cores borrow from them.
  std::vector<arch::Trace> owned_traces_;

  // Trace preprocessing: per core, map load slot -> (candidate, operand).
  std::vector<std::vector<std::int32_t>> load_to_cand_;  // cand*2 + operand, -1 none
  std::vector<std::vector<CandInfo>> cands_;
  std::vector<std::vector<bool>> future_reuse_;     // per core/slot, L1-line grain
  std::vector<std::vector<bool>> future_reuse_l2_;  // per core/slot, L2-line grain

  // Instances are indexed by uid - 1. Uids are stored in 32 bits, so a run
  // may create at most 2^32 - 1 instances (asserted in NewInstance).
  Slab<Instance, 1024> instances_;
  Slab<Offload, 512> offload_slab_;
  // Side arrays indexed by uid - 1, filled only in runs that read them:
  // obs_ in observe mode, obs_tok_ (request-trace tokens of the two operand
  // loads, 0 = untraced) when ObsOn().
  Slab<ObsState, 512> obs_;
  Slab<std::array<std::uint64_t, 2>, 4096> obs_tok_;
  std::uint64_t next_wait_token_ = 1;

  // Memoized route-pair overlap results, keyed by (srcA,dstA,srcB,dstB).
  std::unordered_map<std::uint64_t, noc::RouteIdPair> route_pairs_;

  const noc::RouteIdPair& OverlapFor(sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                                     sim::NodeId b_dst, bool reroute);

  std::array<std::map<int, int>, arch::kNumLocs> service_tables_;
  std::vector<int> active_offloads_;  // per-core offload-table occupancy

  std::shared_ptr<RunRecord> records_;
  // Counters (plain bumps; string keys only in stats()).
  std::uint64_t candidates_ = 0, local_l1_skips_ = 0, offloads_ = 0, success_ = 0,
                fallbacks_ = 0, plan_infeasible_ = 0, offload_table_full_ = 0,
                service_table_full_ = 0, abort_timeout_ = 0, abort_partner_done_ = 0,
                incomplete_cores_ = 0;
  std::array<std::uint64_t, arch::kNumLocs> ndc_at_loc_{};
};

constexpr std::size_t Machine::CandidateRecordBytes() { return sizeof(Instance); }
static_assert(Machine::CandidateRecordBytes() <= 48,
              "the per-candidate record grew: every NDC candidate pays for it");

}  // namespace ndc::runtime
