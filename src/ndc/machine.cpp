#include "ndc/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ndc::runtime {
namespace {

// Packet kinds on the NoC. Machine::OnDeliver is the receiver of each.
constexpr int kReq = 1;         // core -> home L2 bank (8 B)
constexpr int kRespToCore = 2;  // home L2 bank -> core (L1 line, 64 B)
constexpr int kReqToMc = 3;     // home L2 bank -> memory controller (8 B)
constexpr int kRespToHome = 4;  // memory controller -> home L2 bank (L2 line, 256 B)
constexpr int kWrite = 5;       // write-through traffic (64 B)
constexpr int kNdcResult = 6;   // NDC result feed-back to the core (8 B)

constexpr std::uint64_t Tag(std::uint64_t uid, int operand) {
  return (uid << 1) | static_cast<std::uint64_t>(operand);
}
constexpr std::uint64_t TagUid(std::uint64_t tag) { return tag >> 1; }
constexpr int TagOperand(std::uint64_t tag) { return static_cast<int>(tag & 1); }

std::uint64_t QuadKey(sim::NodeId a, sim::NodeId b, sim::NodeId c, sim::NodeId d,
                      bool reroute) {
  std::uint64_t k = 0;
  for (sim::NodeId v : {a, b, c, d}) k = (k << 10) | static_cast<std::uint64_t>(v & 0x3FF);
  return (k << 1) | (reroute ? 1 : 0);
}

}  // namespace

Machine::Machine(const arch::ArchConfig& cfg, MachineOptions opts)
    : cfg_(cfg),
      opts_(opts),
      mesh_(cfg.mesh_width, cfg.mesh_height),
      amap_(cfg.MakeAddressMap()) {
  net_ = std::make_unique<noc::Network>(mesh_, eq_, cfg_.noc);
  net_->set_hop_hook([this](noc::Packet& p, sim::LinkId l, sim::Cycle now) {
    return OnHop(p, l, now);
  });
  net_->set_deliver_hook([this](const noc::Packet& p) { OnDeliver(p); });
  int n = cfg_.num_nodes();
  l1_.reserve(static_cast<std::size_t>(n));
  l2_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    l1_.push_back(std::make_unique<mem::Cache>(cfg_.l1));
    l2_.push_back(std::make_unique<mem::Cache>(cfg_.l2));
  }
  l2_busy_until_.assign(static_cast<std::size_t>(n), 0);
  mc_nodes_ = cfg_.McNodes();
  for (int m = 0; m < cfg_.num_mcs; ++m) {
    mcs_.push_back(std::make_unique<mem::MemCtrl>(m, amap_, cfg_.dram, eq_));
    mcs_.back()->set_done_hook(
        [this, m](std::uint64_t tag, sim::Addr, const sim::Payload& msg, std::uint64_t rtok) {
          McDataReady(m, msg, tag, rtok);
        });
  }
  for (int i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<arch::Core>(i, cfg_, eq_, *this));
  }
  active_offloads_.assign(static_cast<std::size_t>(n), 0);
  if (opts_.observe) records_ = std::make_shared<RunRecord>();
  if (ObsOn()) {
    for (auto& m : mcs_) m->set_tracer(&opts_.obs->tracer);
  }
}

Machine::~Machine() = default;

void Machine::LoadProgram(std::vector<arch::Trace>&& traces) {
  owned_traces_ = std::move(traces);
  LoadProgram(owned_traces_);
}

void Machine::LoadProgram(const std::vector<arch::Trace>& traces) {
  int n = cfg_.num_nodes();
  if (traces.size() > static_cast<std::size_t>(n)) {
    throw std::invalid_argument("Machine::LoadProgram: " + std::to_string(traces.size()) +
                                " traces for " + std::to_string(n) + " cores");
  }
  load_to_cand_.assign(static_cast<std::size_t>(n), {});
  cands_.assign(static_cast<std::size_t>(n), {});
  future_reuse_.assign(static_cast<std::size_t>(n), {});
  future_reuse_l2_.assign(static_cast<std::size_t>(n), {});
  for (int c = 0; c < n; ++c) {
    std::span<const arch::Instr> t;
    if (static_cast<std::size_t>(c) < traces.size()) t = traces[static_cast<std::size_t>(c)];
    auto& l2c = load_to_cand_[static_cast<std::size_t>(c)];
    auto& cands = cands_[static_cast<std::size_t>(c)];
    l2c.assign(t.size(), -1);
    for (std::uint32_t i = 0; i < t.size(); ++i) {
      const arch::Instr& in = t[i];
      const auto self = static_cast<std::int32_t>(i);
      if (in.dep0() >= self || in.dep1() >= self) {
        throw std::invalid_argument("Machine::LoadProgram: core " + std::to_string(c) +
                                    " slot " + std::to_string(i) +
                                    " depends on a slot at or after itself");
      }
      bool site = (in.kind() == arch::Instr::Kind::kCompute && in.ndc_candidate()) ||
                  in.kind() == arch::Instr::Kind::kPreCompute;
      if (!site || in.dep0() < 0 || in.dep1() < 0) continue;
      auto d0 = static_cast<std::uint32_t>(in.dep0());
      auto d1 = static_cast<std::uint32_t>(in.dep1());
      if (t[d0].kind() != arch::Instr::Kind::kLoad || t[d1].kind() != arch::Instr::Kind::kLoad)
        continue;
      if (l2c[d0] != -1 || l2c[d1] != -1) continue;  // a load feeds one site only
      auto cand_id = static_cast<std::int32_t>(cands.size());
      cands.push_back(CandInfo{i, 0});
      l2c[d0] = cand_id * 2;
      l2c[d1] = cand_id * 2 + 1;
    }
    if (opts_.observe) {  // read only by FinalizeRecords
      future_reuse_[static_cast<std::size_t>(c)] = ComputeFutureReuse(t, cfg_.l1.line_bytes);
      future_reuse_l2_[static_cast<std::size_t>(c)] = ComputeFutureReuse(t, cfg_.l2.line_bytes);
    }
    cores_[static_cast<std::size_t>(c)]->SetTrace(t);
  }
}

RunResult Machine::Run(sim::Cycle limit) {
  for (auto& c : cores_) {
    if (!c->trace().empty()) c->Start();
  }
  eq_.RunUntilEmpty(limit);

  RunResult r;
  r.events = eq_.executed();
  for (auto& c : cores_) {
    if (c->trace().empty()) continue;
    if (!c->finished()) ++incomplete_cores_;
    r.makespan = std::max(r.makespan, c->finish_cycle());
  }
  for (auto& cache : l1_) {
    r.l1_hits += cache->hits();
    r.l1_misses += cache->misses();
  }
  for (auto& cache : l2_) {
    r.l2_hits += cache->hits();
    r.l2_misses += cache->misses();
  }
  r.candidates = candidates_;
  r.local_l1_skips = local_l1_skips_;
  r.offloads = offloads_;
  r.ndc_success = success_;
  r.fallbacks = fallbacks_;
  r.ndc_at_loc = ndc_at_loc_;
  r.stats = stats();
  auto merge = [&r](const sim::StatSet& s) {
    for (const auto& [k, v] : s.all()) r.stats.Add(k, v);
  };
  merge(net_->stats());
  for (auto& m : mcs_) merge(m->stats());
  for (auto& c : cores_) merge(c->stats());
  r.conservation = GatherConservation();
  if (opts_.observe) {
    FinalizeRecords();
    r.records = records_;
  }
  if (ObsOn()) opts_.obs->EndRun(eq_.now());
  return r;
}

// ---------------------------------------------------------------------------
// MemoryPort
// ---------------------------------------------------------------------------

void Machine::IssueLoad(sim::NodeId core, std::uint32_t idx, sim::Addr addr) {
  auto c = static_cast<std::size_t>(core);
  std::uint64_t rtok = 0;
  if (ObsOn()) rtok = opts_.obs->tracer.Begin(core, idx, addr, eq_.now());
  Instance* inst = nullptr;
  int operand = -1;
  std::int32_t lc = load_to_cand_[c][idx];
  if (lc >= 0) {
    CandInfo& cand = cands_[c][static_cast<std::size_t>(lc) / 2];
    operand = lc % 2;
    inst = InstanceByUid(cand.uid);
    if (inst == nullptr) {
      // First operand load of this site: create the dynamic instance.
      inst = &NewInstance(core, cand.site_idx);
      cand.uid = inst->uid;
    }
    // Second operand load issued? (the other load slot is already past the
    // in-order issue pointer, or it is this very slot when both deps alias).
    std::uint32_t other = LoadIdx(*inst, operand == 0 ? 1 : 0);
    if (other == idx || cores_[c]->issued(other)) OnSecondLoadIssued(*inst);
  }

  if (inst != nullptr && rtok != 0) {
    obs_tok_[inst->uid - 1][static_cast<std::size_t>(operand)] = rtok;
  }
  bool hit = l1_[c]->Access(addr);
  if (hit) {
    sim::Cycle done = eq_.now() + cfg_.l1.access_latency;
    if (ObsOn() && rtok != 0) opts_.obs->tracer.Finish(rtok, obs::Stage::kL1Hit, done);
    cores_[c]->Complete(idx, done);
    if (inst != nullptr) {
      std::uint64_t uid = inst->uid;
      eq_.ScheduleAt(done, [this, uid, operand, done] {
        if (Instance* i2 = InstanceByUid(uid)) OnOperandAtCore(*i2, operand, done);
      });
    }
    return;
  }
  std::uint64_t uid = inst ? inst->uid : 0;
  eq_.ScheduleAfter(cfg_.l1.access_latency, [this, core, idx, addr, uid, operand, rtok] {
    Instance* i2 = uid ? InstanceByUid(uid) : nullptr;
    StartL1Miss(core, idx, addr, i2, operand, rtok);
  });
}

void Machine::IssueStore(sim::NodeId core, std::uint32_t idx, sim::Addr addr) {
  (void)idx;
  auto c = static_cast<std::size_t>(core);
  l1_[c]->Access(addr);  // write-through, no-allocate
  sim::NodeId home = amap_.HomeBank(addr);
  eq_.ScheduleAfter(cfg_.l1.access_latency, [this, core, home, addr] {
    SendLocal(core, home, 64, noc::kXyRoute, 0, kWrite, sim::Payload{core, home, 0, addr});
  });
}

void Machine::IssuePreCompute(sim::NodeId core, std::uint32_t idx, const arch::Instr& instr) {
  (void)instr;
  Instance* inst = FindInstance(core, idx);
  if (inst == nullptr) {
    // Degenerate site (e.g. operand loads were deduplicated away): nothing
    // will complete it, so complete immediately as a 1-cycle no-op.
    cores_[static_cast<std::size_t>(core)]->Complete(idx, eq_.now() + 1);
    return;
  }
  // If both operands already reached the core conventionally, finish now.
  MaybeFallback(*inst);
}

// ---------------------------------------------------------------------------
// Memory path
// ---------------------------------------------------------------------------

void Machine::SendLocal(sim::NodeId from, sim::NodeId to, int bytes, noc::RouteId route,
                        std::uint64_t tag, int kind, const sim::Payload& msg, std::uint64_t rtok) {
  if (from == to) {
    auto deliver = [this, to, kind, tag, rtok, msg] {
      noc::Packet p;
      p.src = p.dst = to;
      p.tag = tag;
      p.kind = kind;
      p.obs_token = rtok;
      p.payload = msg;
      OnDeliver(p);
    };
    eq_.ScheduleAfter(cfg_.noc.router_pipeline, deliver);
    return;
  }
  noc::Packet p;
  p.src = from;
  p.dst = to;
  p.size_bytes = bytes;
  p.route = route;
  p.tag = tag;
  p.kind = kind;
  p.obs_token = rtok;
  p.payload = msg;
  net_->Send(std::move(p));
}

void Machine::OnDeliver(const noc::Packet& p) {
  const sim::Payload& msg = p.payload;
  std::uint64_t rtok = p.obs_token;
  switch (p.kind) {
    case kReq:
      AccessL2(msg, p.tag, rtok);
      return;
    case kReqToMc:
      if (ObsOn() && rtok != 0) opts_.obs->tracer.Stamp(rtok, obs::Stage::kMcEnqueue, eq_.now());
      mcs_[static_cast<std::size_t>(amap_.Mc(msg.addr))]->EnqueueRead(p.tag, msg.addr, msg, rtok);
      return;
    case kRespToHome:
      if (ObsOn() && rtok != 0) opts_.obs->tracer.Stamp(rtok, obs::Stage::kHomeRefill, eq_.now());
      l2_[static_cast<std::size_t>(msg.home)]->Fill(msg.addr);
      L2DataReady(msg, p.tag, rtok);
      return;
    case kRespToCore:
      DeliverToCore(msg, p.tag, rtok);
      return;
    case kWrite:
      // Write-allocate at the L2 home bank (write-back policy; dirty
      // eviction write-back traffic is not modeled — see DESIGN.md).
      l2_[static_cast<std::size_t>(msg.home)]->Fill(msg.addr);
      return;
    case kNdcResult:
      cores_[static_cast<std::size_t>(msg.core)]->Complete(msg.idx, eq_.now());
      return;
    default:
      assert(false && "unknown packet kind");
      return;
  }
}

void Machine::StartL1Miss(sim::NodeId core, std::uint32_t idx, sim::Addr addr, Instance* inst,
                          int operand, std::uint64_t rtok) {
  if (ObsOn() && rtok != 0) opts_.obs->tracer.Stamp(rtok, obs::Stage::kL1Miss, eq_.now());
  sim::Payload msg{core, amap_.HomeBank(addr), idx, addr};
  std::uint64_t tag = inst ? Tag(inst->uid, operand) : 0;
  if (msg.home == core) {
    AccessL2(msg, tag, rtok);
    return;
  }
  SendLocal(core, msg.home, 8, noc::kXyRoute, tag, kReq, msg, rtok);
}

void Machine::AccessL2(const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok) {
  if (ObsOn() && rtok != 0) opts_.obs->tracer.Stamp(rtok, obs::Stage::kReqAtHome, eq_.now());
  auto h = static_cast<std::size_t>(msg.home);
  sim::Cycle start = std::max(eq_.now(), l2_busy_until_[h]);
  l2_busy_until_[h] = start + 2;  // bank occupancy (pipelined)
  bool hit = l2_[h]->Access(msg.addr);
  sim::Cycle ready = start + cfg_.l2.access_latency;
  if (hit) {
    eq_.ScheduleAt(ready, [this, msg, tag, rtok] {
      if (ObsOn() && rtok != 0) opts_.obs->tracer.Stamp(rtok, obs::Stage::kL2Hit, eq_.now());
      L2DataReady(msg, tag, rtok);
    });
    return;
  }
  eq_.ScheduleAt(ready, [this, msg, tag, rtok] {
    if (ObsOn() && rtok != 0) opts_.obs->tracer.Stamp(rtok, obs::Stage::kL2Miss, eq_.now());
    sim::NodeId mc_node = mc_nodes_[static_cast<std::size_t>(amap_.Mc(msg.addr))];
    SendLocal(msg.home, mc_node, 8, noc::kXyRoute, tag, kReqToMc, msg, rtok);
  });
}

void Machine::McDataReady(sim::McId mc, const sim::Payload& msg, std::uint64_t tag,
                          std::uint64_t rtok) {
  if (tag != 0) {
    if (Instance* inst = InstanceByUid(TagUid(tag))) {
      sim::NodeId mc_node = mc_nodes_[static_cast<std::size_t>(mc)];
      int operand = TagOperand(tag);
      int bank = amap_.DramBank(msg.addr);
      if (opts_.observe) {
        RecordObs(*inst, operand, Loc::kMemCtrl, mc_node, eq_.now());
        RecordObs(*inst, operand, Loc::kMemBank, mc_node, eq_.now());
      }
      Loc planned = inst->offloaded() ? OffloadOf(*inst).planned : Loc::kCacheCtrl;
      if (planned == Loc::kMemCtrl || planned == Loc::kMemBank) {
        int key = planned == Loc::kMemCtrl ? static_cast<int>(mc)
                                           : static_cast<int>(mc) * 64 + bank;
        HeldResponse held{HeldResponse::Leg::kMcToHome, mc, msg, tag, rtok};
        if (OnOperandAtLoc(*inst, operand, planned, mc_node, key, held)) return;
      }
    }
  }
  ForwardToHome(mc, msg, tag, rtok);
}

void Machine::ForwardToHome(sim::McId mc, const sim::Payload& msg, std::uint64_t tag,
                            std::uint64_t rtok) {
  Instance* inst = tag ? InstanceByUid(TagUid(tag)) : nullptr;
  noc::RouteId route = noc::kXyRoute;
  if (inst != nullptr && inst->offloaded()) {
    const Offload& off = OffloadOf(*inst);
    if (off.planned == Loc::kLinkBuffer) {
      route = off.route_mc_to_home[static_cast<std::size_t>(TagOperand(tag))];
    }
  }
  SendLocal(mc_nodes_[static_cast<std::size_t>(mc)], msg.home, 256, route, tag,
            kRespToHome, msg, rtok);
}

void Machine::L2DataReady(const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok) {
  if (tag != 0) {
    if (Instance* inst = InstanceByUid(TagUid(tag))) {
      int operand = TagOperand(tag);
      if (opts_.observe) {
        RecordObs(*inst, operand, Loc::kCacheCtrl, msg.home, eq_.now());
        // Residency check: if the partner operand arrived earlier, is its
        // line still resident now? (Paper: "x is replaced from the L2
        // cache before y reaches there".)
        LocObs& obs = (*records_)[inst->uid - 1].at(Loc::kCacheCtrl);
        int other = operand == 0 ? 1 : 0;
        sim::Cycle t_other = other == 0 ? obs.t_a : obs.t_b;
        if (obs.feasible && t_other != sim::kNeverCycle) {
          sim::Addr other_addr = OperandAddr(*inst, other);
          if (!l2_[static_cast<std::size_t>(msg.home)]->Contains(other_addr)) obs.meet_ok = false;
        }
      }
      if (inst->offloaded() && OffloadOf(*inst).planned == Loc::kCacheCtrl) {
        HeldResponse held{HeldResponse::Leg::kHomeToCore, 0, msg, tag, rtok};
        if (OnOperandAtLoc(*inst, operand, Loc::kCacheCtrl, msg.home, msg.home, held)) return;
      }
    }
  }
  SendResponseToCore(msg, tag, rtok);
}

void Machine::SendResponseToCore(const sim::Payload& msg, std::uint64_t tag,
                                 std::uint64_t rtok) {
  Instance* inst = tag ? InstanceByUid(TagUid(tag)) : nullptr;
  noc::RouteId route = noc::kXyRoute;
  if (inst != nullptr && inst->offloaded()) {
    const Offload& off = OffloadOf(*inst);
    if (off.planned == Loc::kLinkBuffer) {
      route = off.route_home_to_core[static_cast<std::size_t>(TagOperand(tag))];
    }
  }
  SendLocal(msg.home, msg.core, 64, route, tag, kRespToCore, msg, rtok);
}

void Machine::DeliverToCore(const sim::Payload& msg, std::uint64_t tag, std::uint64_t rtok) {
  l1_[static_cast<std::size_t>(msg.core)]->Fill(msg.addr);
  sim::Cycle now = eq_.now();
  if (ObsOn() && rtok != 0) opts_.obs->tracer.Finish(rtok, obs::Stage::kDeliver, now);
  cores_[static_cast<std::size_t>(msg.core)]->Complete(msg.idx, now);
  if (tag != 0) {
    if (Instance* inst = InstanceByUid(TagUid(tag))) {
      OnOperandAtCore(*inst, TagOperand(tag), now);
    }
  }
}

// ---------------------------------------------------------------------------
// NDC engine
// ---------------------------------------------------------------------------

void Machine::OnSecondLoadIssued(Instance& inst) {
  if (inst.state != InstState::kPending || inst.feasible_mask != 0 || inst.local_l1 ||
      inst.offloaded()) {
    // Already decided. Every path below that records a decision leaves
    // this state, so the decision log sees each uid once.
    return;
  }
  ++candidates_;

  sim::NodeId core = inst.core;
  auto c = static_cast<std::size_t>(core);
  sim::Addr a = OperandAddr(inst, 0), b = OperandAddr(inst, 1);
  // LD/ST-unit local-cache probe (Section 2): if an operand is already in
  // the local L1, perform the computation in the core.
  if (l1_[c]->Contains(a) || l1_[c]->Contains(b)) {
    inst.local_l1 = true;
    inst.state = InstState::kConventional;
    ++local_l1_skips_;
    RecordDecision(inst, obs::DecisionKind::kLocalL1Skip, -1);
    return;
  }

  const arch::Instr& site = SiteInstr(inst);
  bool is_precompute = site.kind() == arch::Instr::Kind::kPreCompute;
  if (!is_precompute && opts_.policy == nullptr && !opts_.observe && !ObsOn()) {
    // Nothing can offload it and nothing reads its feasible mask: skip the
    // route planning.
    inst.state = InstState::kConventional;
    return;
  }

  inst.feasible_mask = ComputeFeasibility(inst);

  if (opts_.observe) {
    obs_link_[inst.uid - 1] = PlanRoutes(inst, nullptr);  // XY-based shared links
    inst.state = InstState::kConventional;
    InstanceRecord& rec = (*records_)[inst.uid - 1];
    for (int l = 0; l < arch::kNumLocs; ++l) {
      rec.locs[static_cast<std::size_t>(l)].feasible = (inst.feasible_mask >> l) & 1;
    }
    RecordDecision(inst, obs::DecisionKind::kDeclined, -1);
    return;
  }

  Decision d;
  // The audit entry captures the *binding* reason a candidate ran
  // conventionally (the last gate that flipped the decision).
  obs::DecisionKind why = obs::DecisionKind::kDeclined;
  std::int8_t why_loc = -1;
  if (is_precompute) {
    std::uint8_t allowed = inst.feasible_mask & cfg_.control_register;
    if (allowed & arch::LocBit(site.planned_loc())) {
      d.offload = true;
      d.loc = site.planned_loc();
      d.timeout = site.timeout() ? site.timeout() : cfg_.default_timeout;
    } else {
      ++plan_infeasible_;
      why = obs::DecisionKind::kPlanInfeasible;
      why_loc = static_cast<std::int8_t>(site.planned_loc());
    }
  } else if (opts_.policy != nullptr) {
    d = opts_.policy->Decide(core, inst.site_idx, site.pc(), a, b, inst.feasible_mask);
  }

  if (cfg_.restrict_ops_to_addsub && !arch::IsAddSub(site.op())) {
    if (d.offload) {
      why = obs::DecisionKind::kOpRestricted;
      why_loc = static_cast<std::int8_t>(d.loc);
    }
    d.offload = false;
  }

  // LD/ST-unit offload table capacity (Section 2).
  if (d.offload && active_offloads_[c] >= cfg_.offload_table_entries) {
    ++offload_table_full_;
    why = obs::DecisionKind::kOffloadTableFull;
    why_loc = static_cast<std::int8_t>(d.loc);
    d.offload = false;
  }

  if (!d.offload) {
    inst.state = InstState::kConventional;
    RecordDecision(inst, why, why_loc);
    return;
  }
  Offload& off = offload_slab_.Append();
  inst.off = static_cast<std::uint32_t>(offload_slab_.size());
  off.planned = d.loc;
  off.timeout = std::max<sim::Cycle>(1, d.timeout);
  ++active_offloads_[c];
  ++offloads_;
  RecordDecision(inst, obs::DecisionKind::kOffload, static_cast<std::int8_t>(d.loc));
  off.obs_link = PlanRoutes(inst, &off);
  if (!is_precompute) cores_[c]->MarkExternal(inst.site_idx);
}

std::uint8_t Machine::ComputeFeasibility(const Instance& inst) {
  std::uint8_t mask = 0;
  sim::Addr a = OperandAddr(inst, 0), b = OperandAddr(inst, 1);
  sim::NodeId ha = amap_.HomeBank(a), hb = amap_.HomeBank(b);
  sim::McId ma = amap_.Mc(a), mb = amap_.Mc(b);
  if (ha == hb) mask |= arch::LocBit(Loc::kCacheCtrl);
  if (ma == mb) {
    mask |= arch::LocBit(Loc::kMemCtrl);
    if (amap_.DramBank(a) == amap_.DramBank(b)) mask |= arch::LocBit(Loc::kMemBank);
  }
  bool reroute = IsPrecompute(inst) && cfg_.allow_reroute && !opts_.observe;
  const noc::RouteIdPair& p1 = OverlapFor(ha, inst.core, hb, inst.core, reroute);
  bool link = p1.shared_links > 0;
  if (!link) {
    sim::NodeId mna = mc_nodes_[static_cast<std::size_t>(ma)];
    sim::NodeId mnb = mc_nodes_[static_cast<std::size_t>(mb)];
    const noc::RouteIdPair& p2 = OverlapFor(mna, ha, mnb, hb, reroute);
    link = p2.shared_links > 0;
  }
  if (link) mask |= arch::LocBit(Loc::kLinkBuffer);
  return mask;
}

const noc::RouteIdPair& Machine::OverlapFor(sim::NodeId a_src, sim::NodeId a_dst,
                                            sim::NodeId b_src, sim::NodeId b_dst, bool reroute) {
  std::uint64_t key = QuadKey(a_src, a_dst, b_src, b_dst, reroute);
  auto it = route_pairs_.find(key);
  if (it != route_pairs_.end()) return it->second;
  noc::RouteTable& routes = net_->routes();
  noc::RouteIdPair p = reroute ? routes.MaxOverlapPair(a_src, a_dst, b_src, b_dst)
                               : routes.XyPair(a_src, a_dst, b_src, b_dst);
  return route_pairs_.emplace(key, p).first->second;
}

sim::LinkId Machine::PlanRoutes(const Instance& inst, Offload* off) {
  bool reroute = IsPrecompute(inst) && cfg_.allow_reroute && !opts_.observe;
  sim::Addr a = OperandAddr(inst, 0), b = OperandAddr(inst, 1);
  sim::NodeId ha = amap_.HomeBank(a), hb = amap_.HomeBank(b);
  sim::McId ma = amap_.Mc(a), mb = amap_.Mc(b);
  sim::NodeId mna = mc_nodes_[static_cast<std::size_t>(ma)];
  sim::NodeId mnb = mc_nodes_[static_cast<std::size_t>(mb)];
  const noc::RouteIdPair& p1 = OverlapFor(ha, inst.core, hb, inst.core, reroute);
  const noc::RouteIdPair& p2 = OverlapFor(mna, ha, mnb, hb, reroute);
  if (off != nullptr) {
    off->route_home_to_core = {p1.a, p1.b};
    off->route_mc_to_home = {p2.a, p2.b};
  }
  const noc::RouteTable& routes = net_->routes();
  for (sim::LinkId l : routes.Links(p1.a)) {
    if (p1.shared.Test(l)) return l;
  }
  for (sim::LinkId l : routes.Links(p2.a)) {
    if (p2.shared.Test(l)) return l;
  }
  return sim::kNoLink;
}

noc::HopAction Machine::OnHop(noc::Packet& p, sim::LinkId link, sim::Cycle now) {
  if (p.tag == 0) return noc::HopAction::kContinue;
  if (p.kind != kRespToCore && p.kind != kRespToHome) return noc::HopAction::kContinue;
  Instance* inst = InstanceByUid(TagUid(p.tag));
  if (inst == nullptr) return noc::HopAction::kContinue;
  int operand = TagOperand(p.tag);

  if (opts_.observe) {
    if (link == obs_link_[inst->uid - 1]) {
      RecordObs(*inst, operand, Loc::kLinkBuffer, mesh_.LinkSource(link), now);
    }
    return noc::HopAction::kContinue;
  }

  if (!inst->offloaded()) return noc::HopAction::kContinue;
  Offload& off = OffloadOf(*inst);
  if (off.planned != Loc::kLinkBuffer) return noc::HopAction::kContinue;
  // A single designated meeting link per package avoids hold races where
  // each operand waits at a different shared link.
  if (link != off.obs_link) return noc::HopAction::kContinue;

  if (off.at_planned[static_cast<std::size_t>(operand)] == sim::kNeverCycle) {
    off.at_planned[static_cast<std::size_t>(operand)] = now;
    ReportWindow(*inst);
  }

  int other = operand == 0 ? 1 : 0;
  switch (inst->state) {
    case InstState::kWaiting:
      if (off.waiting_op == other && off.held_link == link) {
        std::uint64_t held = off.held_packet;
        MeetAndCompute(*inst, Loc::kLinkBuffer, mesh_.LinkSource(link));
        net_->Squash(held);
        return noc::HopAction::kSquash;
      }
      return noc::HopAction::kContinue;
    case InstState::kPending: {
      if (inst->at_core[static_cast<std::size_t>(other)] != sim::kNeverCycle) {
        inst->state = InstState::kAborted;  // partner already done at core
        ResolveDecision(*inst, obs::Outcome::kFallbackPartnerDone, -1);
        return noc::HopAction::kContinue;
      }
      if (!ServiceTableReserve(Loc::kLinkBuffer, link)) {
        ++service_table_full_;
        inst->state = InstState::kAborted;
        ResolveDecision(*inst, obs::Outcome::kFallbackServiceTableFull, -1);
        return noc::HopAction::kContinue;
      }
      inst->state = InstState::kWaiting;
      off.waiting_op = operand;
      off.held_link = link;
      off.held_packet = p.id;
      off.service_key = link;
      ArmWaitTimeout(*inst);
      return noc::HopAction::kHold;
    }
    default:
      return noc::HopAction::kContinue;
  }
}

bool Machine::OnOperandAtLoc(Instance& inst, int operand, Loc loc, sim::NodeId node,
                             int service_key, const HeldResponse& resume) {
  Offload& off = OffloadOf(inst);
  if (off.at_planned[static_cast<std::size_t>(operand)] == sim::kNeverCycle) {
    off.at_planned[static_cast<std::size_t>(operand)] = eq_.now();
    ReportWindow(inst);
  }
  int other = operand == 0 ? 1 : 0;
  switch (inst.state) {
    case InstState::kWaiting:
      if (off.waiting_op == other) {
        // The waiting operand's held response is discarded: its data was
        // consumed by the near-data computation.
        off.resume.leg = HeldResponse::Leg::kNone;
        MeetAndCompute(inst, loc, node);
        return true;
      }
      return false;
    case InstState::kPending: {
      if (inst.at_core[static_cast<std::size_t>(other)] != sim::kNeverCycle) {
        inst.state = InstState::kAborted;
        ResolveDecision(inst, obs::Outcome::kFallbackPartnerDone, -1);
        return false;
      }
      if (!ServiceTableReserve(loc, service_key)) {
        ++service_table_full_;
        inst.state = InstState::kAborted;
        ResolveDecision(inst, obs::Outcome::kFallbackServiceTableFull, -1);
        return false;
      }
      inst.state = InstState::kWaiting;
      off.waiting_op = operand;
      off.resume = resume;
      off.service_key = service_key;
      ArmWaitTimeout(inst);
      return true;
    }
    default:
      return false;
  }
}

void Machine::MeetAndCompute(Instance& inst, Loc loc, sim::NodeId node) {
  Offload& off = OffloadOf(inst);
  ServiceTableRelease(loc, off.service_key);
  if (active_offloads_[static_cast<std::size_t>(inst.core)] > 0) {
    --active_offloads_[static_cast<std::size_t>(inst.core)];
  }
  inst.state = InstState::kComputed;
  off.waiting_op = -1;
  sim::Cycle now = eq_.now();
  ++success_;
  ++ndc_at_loc_[static_cast<std::size_t>(loc)];
  if (ObsOn()) {
    // Both operands end their lifetime here: their data never reaches the
    // core (the packets were squashed / the responses absorbed).
    const std::array<std::uint64_t, 2>& tok = obs_tok_[inst.uid - 1];
    opts_.obs->tracer.Finish(tok[0], obs::Stage::kNdcConsumed, now);
    opts_.obs->tracer.Finish(tok[1], obs::Stage::kNdcConsumed, now);
    opts_.obs->sink.Instant("ndc.meet", now, inst.core, inst.uid, "loc",
                            static_cast<std::uint64_t>(loc));
    ResolveDecision(inst, obs::Outcome::kNdcSuccess, static_cast<std::int8_t>(loc));
  }
  // Both operand loads are consumed by the near-data computation.
  auto c = static_cast<std::size_t>(inst.core);
  cores_[c]->Complete(LoadIdx(inst, 0), now);
  cores_[c]->Complete(LoadIdx(inst, 1), now);
  ReportWindow(inst);
  // CPU-feed: the 8-byte result travels back to the core after the op.
  sim::NodeId core = inst.core;
  std::uint32_t site_idx = inst.site_idx;
  eq_.ScheduleAfter(cfg_.compute_latency, [this, node, core, site_idx] {
    SendLocal(node, core, 8, noc::kXyRoute, 0, kNdcResult, sim::Payload{core, node, site_idx, 0});
  });
}

void Machine::ArmWaitTimeout(Instance& inst) {
  Offload& off = OffloadOf(inst);
  std::uint64_t token = next_wait_token_++;
  off.wait_token = token;
  std::uint64_t uid = inst.uid;
  eq_.ScheduleAfter(off.timeout, [this, uid, token] {
    Instance* i2 = InstanceByUid(uid);
    if (i2 != nullptr && i2->state == InstState::kWaiting && OffloadOf(*i2).wait_token == token) {
      AbortWait(*i2, AbortReason::kTimeout);
    }
  });
}

void Machine::AbortWait(Instance& inst, AbortReason reason) {
  Offload& off = OffloadOf(inst);
  ServiceTableRelease(off.planned, off.service_key);
  inst.state = InstState::kAborted;
  off.waiting_op = -1;
  obs::Outcome outcome = obs::Outcome::kFallbackTimeout;
  switch (reason) {
    case AbortReason::kTimeout:
      ++abort_timeout_;
      break;
    case AbortReason::kPartnerDone:
      ++abort_partner_done_;
      outcome = obs::Outcome::kFallbackPartnerDone;
      break;
  }
  if (ObsOn()) {
    opts_.obs->sink.Instant("ndc.abort", eq_.now(), inst.core, inst.uid);
    ResolveDecision(inst, outcome, -1);
  }
  if (off.held_packet != 0 && net_->IsHeld(off.held_packet)) {
    net_->Release(off.held_packet);
    off.held_packet = 0;
  } else if (off.resume.leg != HeldResponse::Leg::kNone) {
    HeldResponse r = off.resume;
    off.resume.leg = HeldResponse::Leg::kNone;
    if (r.leg == HeldResponse::Leg::kMcToHome) {
      ForwardToHome(r.mc, r.msg, r.tag, r.rtok);
    } else {
      SendResponseToCore(r.msg, r.tag, r.rtok);
    }
  }
}

void Machine::OnOperandAtCore(Instance& inst, int operand, sim::Cycle when) {
  inst.at_core[static_cast<std::size_t>(operand)] = when;
  int other = operand == 0 ? 1 : 0;
  if (inst.state == InstState::kWaiting && OffloadOf(inst).waiting_op == other) {
    // The partner operand finished conventionally: the planned meeting can
    // no longer happen (offload-table feedback aborts the wait).
    AbortWait(inst, AbortReason::kPartnerDone);
  }
  MaybeFallback(inst);
}

void Machine::MaybeFallback(Instance& inst) {
  if (inst.fallback_done || inst.state == InstState::kComputed) return;
  if (!inst.offloaded() && !IsPrecompute(inst)) return;  // core handles it
  if (inst.at_core[0] == sim::kNeverCycle || inst.at_core[1] == sim::kNeverCycle) return;
  inst.fallback_done = true;
  sim::Cycle done = std::max(inst.at_core[0], inst.at_core[1]);
  done = std::max(done, eq_.now()) + cfg_.compute_latency;
  cores_[static_cast<std::size_t>(inst.core)]->Complete(inst.site_idx, done);
  if (inst.offloaded()) {
    ++fallbacks_;
    if (ObsOn()) {
      opts_.obs->sink.Instant("ndc.fallback", eq_.now(), inst.core, inst.uid);
      // Catch-all: if no abort path resolved this offload, the operands
      // simply never met at the planned location.
      ResolveDecision(inst, obs::Outcome::kFallbackNeverMet, -1);
    }
    if (inst.state == InstState::kPending) inst.state = InstState::kAborted;
    if (active_offloads_[static_cast<std::size_t>(inst.core)] > 0) {
      --active_offloads_[static_cast<std::size_t>(inst.core)];
    }
  }
}

void Machine::RecordObs(const Instance& inst, int operand, Loc loc, sim::NodeId node,
                        sim::Cycle t) {
  LocObs& obs = (*records_)[inst.uid - 1].at(loc);
  sim::Cycle& slot = operand == 0 ? obs.t_a : obs.t_b;
  if (slot == sim::kNeverCycle) slot = t;
  obs.node = node;
}

void Machine::ReportWindow(Instance& inst) {
  if (opts_.policy == nullptr) return;
  Offload& off = OffloadOf(inst);
  if (off.window_reported || IsPrecompute(inst)) return;
  if (off.at_planned[0] == sim::kNeverCycle || off.at_planned[1] == sim::kNeverCycle) return;
  off.window_reported = true;
  sim::Cycle w = off.at_planned[0] > off.at_planned[1] ? off.at_planned[0] - off.at_planned[1]
                                                       : off.at_planned[1] - off.at_planned[0];
  opts_.policy->ObserveWindow(inst.core, SiteInstr(inst).pc(), w);
}

bool Machine::ServiceTableReserve(Loc loc, int key) {
  int& n = service_tables_[static_cast<std::size_t>(loc)][key];
  if (n >= cfg_.service_table_entries) return false;
  ++n;
  return true;
}

void Machine::ServiceTableRelease(Loc loc, int key) {
  auto& tbl = service_tables_[static_cast<std::size_t>(loc)];
  auto it = tbl.find(key);
  if (it != tbl.end() && it->second > 0) --it->second;
}

Machine::Instance* Machine::FindInstance(sim::NodeId core, std::uint32_t site_idx) {
  // A site's first dep is one of its operand loads, which maps back to it.
  auto c = static_cast<std::size_t>(core);
  std::int32_t dep = cores_[c]->trace()[site_idx].dep0();
  if (dep < 0) return nullptr;
  std::int32_t lc = load_to_cand_[c][static_cast<std::size_t>(dep)];
  if (lc < 0) return nullptr;
  const CandInfo& cand = cands_[c][static_cast<std::size_t>(lc) / 2];
  return cand.site_idx == site_idx ? InstanceByUid(cand.uid) : nullptr;
}

Machine::Instance& Machine::NewInstance(sim::NodeId core, std::uint32_t site_idx) {
  assert(instances_.size() < UINT32_MAX && "instance uids are 32-bit");
  Instance& inst = instances_.Append();
  inst.uid = static_cast<std::uint32_t>(instances_.size());
  inst.core = core;
  inst.site_idx = site_idx;
  if (opts_.observe) {
    records_->Append(core, site_idx);
    obs_link_.Append() = sim::kNoLink;  // set when its second load issues
  }
  if (ObsOn()) obs_tok_.Append();
  return inst;
}

void Machine::RecordDecision(const Instance& inst, obs::DecisionKind kind,
                             std::int8_t planned_loc) {
  if (!ObsOn()) return;
  opts_.obs->decisions.Record(inst.uid, inst.core, inst.site_idx, kind, planned_loc,
                              eq_.now());
  if (kind == obs::DecisionKind::kOffload) {
    opts_.obs->sink.Instant("ndc.offload", eq_.now(), inst.core, inst.uid, "loc",
                            static_cast<std::uint64_t>(planned_loc));
  }
}

void Machine::ResolveDecision(const Instance& inst, obs::Outcome outcome, std::int8_t met_loc) {
  if (!ObsOn()) return;
  opts_.obs->decisions.Resolve(inst.uid, outcome, met_loc, eq_.now());
}

sim::StatSet Machine::stats() const {
  sim::StatSet s;
  s.Add("ndc.candidates", candidates_);
  s.Add("ndc.local_l1_skips", local_l1_skips_);
  s.Add("ndc.offloads", offloads_);
  s.Add("ndc.success", success_);
  s.Add("ndc.fallbacks", fallbacks_);
  s.Add("ndc.plan_infeasible", plan_infeasible_);
  s.Add("ndc.offload_table_full", offload_table_full_);
  s.Add("ndc.service_table_full", service_table_full_);
  s.Add("ndc.abort.timeout", abort_timeout_);
  s.Add("ndc.abort.partner_done", abort_partner_done_);
  s.Add("run.incomplete_cores", incomplete_cores_);
  for (int l = 0; l < arch::kNumLocs; ++l) {
    s.Add(std::string("ndc.at.") + arch::LocName(static_cast<Loc>(l)),
          ndc_at_loc_[static_cast<std::size_t>(l)]);
  }
  return s;
}

std::size_t Machine::RunStateBytes() const {
  std::size_t bytes = instances_.Bytes() + offload_slab_.Bytes() + obs_link_.Bytes() +
                      obs_tok_.Bytes() + (records_ ? records_->Bytes() : 0);
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    bytes += cores_[c]->RunStateBytes();
    if (c < load_to_cand_.size()) {
      bytes += load_to_cand_[c].capacity() * sizeof(std::int32_t) +
               cands_[c].capacity() * sizeof(CandInfo) +
               (future_reuse_[c].capacity() + future_reuse_l2_[c].capacity() + 7) / 8;
    }
  }
  return bytes;
}

fault::ConservationInputs Machine::GatherConservation() const {
  fault::ConservationInputs in;
  in.offloads = offloads_;
  in.ndc_success = success_;
  in.fallbacks = fallbacks_;
  for (const auto& c : cores_) {
    if (!c->trace().empty() && !c->finished()) ++in.cores_incomplete;
  }
  in.packets_sent = net_->sent_count();
  in.packets_delivered = net_->delivered_count();
  in.packets_squashed = net_->squashed_count();
  for (const auto& m : mcs_) {
    in.mc_reads += m->reads_count();
    in.mc_reads_done += m->reads_done_count();
  }
  return in;
}

void Machine::FinalizeRecords() {
  // Records were appended in uid order, so record uid - 1 is instance uid's.
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    auto c = static_cast<std::size_t>(inst.core);
    InstanceRecord& rec = (*records_)[i];
    rec.pc = SiteInstr(inst).pc();
    rec.local_l1 = inst.local_l1;
    // Conventional completion: when both operands' data reached the core
    // plus the op latency (issue-width stalls of the consuming instruction
    // are not NDC-addressable and would inflate breakevens). An arrival
    // goes unrecorded only when Run(limit) stopped the run first; the site
    // then has not completed either.
    if (inst.at_core[0] != sim::kNeverCycle && inst.at_core[1] != sim::kNeverCycle) {
      rec.conv_done = std::max(inst.at_core[0], inst.at_core[1]) + cfg_.compute_latency;
    }
    rec.operand_reused_later = future_reuse_[c][inst.site_idx];
    rec.operand_reused_later_l2 = future_reuse_l2_[c][inst.site_idx];
  }
  records_->Sort();
  obs_link_.Clear();
}

}  // namespace ndc::runtime
