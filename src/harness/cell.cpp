#include "harness/cell.hpp"

#include <cstdio>

#include "compiler/pipeline.hpp"
#include "noc/geometry.hpp"
#include "obs/obs.hpp"

namespace ndc::harness {

const char* ScaleName(workloads::Scale s) {
  switch (s) {
    case workloads::Scale::kTest: return "test";
    case workloads::Scale::kSmall: return "small";
    case workloads::Scale::kFull: return "full";
  }
  return "?";
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string CellSpec::SchemeLabel() const {
  if (coarse_grain) return "CoarseGrain";
  return metrics::SchemeName(scheme);
}

namespace {

void AppendField(std::string& out, const char* name, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%llu;", name, static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::string CellSpec::CanonicalString() const {
  std::string out;
  out.reserve(512);
  out += "w=" + workload + ";";
  out += "scale=";
  out += ScaleName(scale);
  out += ";";
  AppendField(out, "seed", seed);
  AppendField(out, "scheme", static_cast<std::uint64_t>(scheme));
  AppendField(out, "coarse", coarse_grain ? 1 : 0);
  AppendField(out, "reroute", allow_reroute ? 1 : 0);
  AppendField(out, "ctrl", control_register);
  // Every semantically relevant ArchConfig field. A field added to
  // ArchConfig must be serialized here (or kCacheVersion bumped) or cached
  // entries keyed before the change will silently collide with it.
  AppendField(out, "mw", static_cast<std::uint64_t>(cfg.mesh_width));
  AppendField(out, "mh", static_cast<std::uint64_t>(cfg.mesh_height));
  AppendField(out, "iw", static_cast<std::uint64_t>(cfg.issue_width));
  AppendField(out, "mol", static_cast<std::uint64_t>(cfg.max_outstanding_loads));
  AppendField(out, "cl", cfg.compute_latency);
  AppendField(out, "l1s", cfg.l1.size_bytes);
  AppendField(out, "l1l", cfg.l1.line_bytes);
  AppendField(out, "l1w", cfg.l1.ways);
  AppendField(out, "l1t", cfg.l1.access_latency);
  AppendField(out, "l2s", cfg.l2.size_bytes);
  AppendField(out, "l2l", cfg.l2.line_bytes);
  AppendField(out, "l2w", cfg.l2.ways);
  AppendField(out, "l2t", cfg.l2.access_latency);
  AppendField(out, "nrp", cfg.noc.router_pipeline);
  AppendField(out, "nlb", static_cast<std::uint64_t>(cfg.noc.link_bytes));
  AppendField(out, "mcs", static_cast<std::uint64_t>(cfg.num_mcs));
  AppendField(out, "drh", cfg.dram.row_hit_latency);
  AppendField(out, "drm", cfg.dram.row_miss_latency);
  AppendField(out, "ddb", cfg.dram.data_beat);
  AppendField(out, "dnr", cfg.dram.num_rows);
  AppendField(out, "cfgctrl", cfg.control_register);
  AppendField(out, "ste", static_cast<std::uint64_t>(cfg.service_table_entries));
  AppendField(out, "ote", static_cast<std::uint64_t>(cfg.offload_table_entries));
  AppendField(out, "dto", cfg.default_timeout);
  AppendField(out, "cfgrr", cfg.allow_reroute ? 1 : 0);
  AppendField(out, "addsub", cfg.restrict_ops_to_addsub ? 1 : 0);
  // Appended only when faulted: every fault-free cell (including all cached
  // entries written before faults existed) keeps its historical key.
  if (!faults.Empty()) {
    out += "faults{" + faults.CanonicalString() + "};";
  }
  // Appended only for parallel simulation: sequential cells (and all
  // pre-PDES cache entries) keep their historical key, and sharded results
  // — a different same-cycle tie-break schedule — get keys of their own.
  if (sim_threads != 1) {
    AppendField(out, "simthreads", static_cast<std::uint64_t>(sim_threads));
  }
  return out;
}

std::string CellSpec::Key() const {
  std::uint64_t h = Fnv1a(CanonicalString() + "|" + kCacheVersion);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string CellSpec::ProfileKey() const {
  CellSpec base = *this;
  base.scheme = metrics::Scheme::kBaseline;
  base.coarse_grain = false;
  base.allow_reroute = true;
  base.control_register = arch::kAllLocs;
  base.faults = {};
  return base.CanonicalString();
}

namespace {

bool IsCompiled(const CellSpec& spec) {
  return spec.coarse_grain || spec.scheme == metrics::Scheme::kAlgorithm1 ||
         spec.scheme == metrics::Scheme::kAlgorithm2;
}

}  // namespace

bool CellSpec::NeedsObserve() const {
  if (IsCompiled(*this)) return false;
  switch (scheme) {
    case metrics::Scheme::kOracle:
    case metrics::Scheme::kWait5:
    case metrics::Scheme::kWait10:
    case metrics::Scheme::kWait25:
    case metrics::Scheme::kWait50:
      return true;
    default:
      return false;
  }
}

double CellResult::ImprovementPct() const {
  return metrics::ImprovementPct(baseline_makespan, makespan);
}

double CellResult::L1MissRate() const {
  std::uint64_t t = l1_hits + l1_misses;
  return t ? static_cast<double>(l1_misses) / static_cast<double>(t) : 0.0;
}

double CellResult::L2MissRate() const {
  std::uint64_t t = l2_hits + l2_misses;
  return t ? static_cast<double>(l2_misses) / static_cast<double>(t) : 0.0;
}

std::uint64_t CellResult::Stat(const std::string& name) const {
  auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second;
}

json::Value CellResult::ToJson() const {
  json::Value v = json::Value::Object();
  auto put = [&](const char* k, std::uint64_t x) { v.obj[k] = json::Value::Int(x); };
  put("makespan", makespan);
  put("baseline_makespan", baseline_makespan);
  put("l1_hits", l1_hits);
  put("l1_misses", l1_misses);
  put("l2_hits", l2_hits);
  put("l2_misses", l2_misses);
  put("candidates", candidates);
  put("local_l1_skips", local_l1_skips);
  put("offloads", offloads);
  put("ndc_success", ndc_success);
  put("fallbacks", fallbacks);
  json::Value locs = json::Value::Array();
  for (std::uint64_t x : ndc_at_loc) locs.arr.push_back(json::Value::Int(x));
  v.obj["ndc_at_loc"] = std::move(locs);
  put("chains", chains);
  put("planned", planned);
  put("reuse_skips", reuse_skips);
  put("legality_failures", legality_failures);
  put("gating_failures", gating_failures);
  put("transforms", transforms);
  json::Value st = json::Value::Object();
  for (const auto& [k, x] : stats) st.obj[k] = json::Value::Int(x);
  v.obj["stats"] = std::move(st);
  return v;
}

bool CellResult::FromJson(const json::Value& v, CellResult* out) {
  if (!v.is_object()) return false;
  CellResult r;
  auto get = [&](const char* k, std::uint64_t* dst) {
    const json::Value* f = v.Find(k);
    if (f == nullptr) return false;
    *dst = f->AsU64();
    return true;
  };
  bool ok = true;
  ok &= get("makespan", &r.makespan);
  ok &= get("baseline_makespan", &r.baseline_makespan);
  ok &= get("l1_hits", &r.l1_hits);
  ok &= get("l1_misses", &r.l1_misses);
  ok &= get("l2_hits", &r.l2_hits);
  ok &= get("l2_misses", &r.l2_misses);
  ok &= get("candidates", &r.candidates);
  ok &= get("local_l1_skips", &r.local_l1_skips);
  ok &= get("offloads", &r.offloads);
  ok &= get("ndc_success", &r.ndc_success);
  ok &= get("fallbacks", &r.fallbacks);
  ok &= get("chains", &r.chains);
  ok &= get("planned", &r.planned);
  ok &= get("reuse_skips", &r.reuse_skips);
  ok &= get("legality_failures", &r.legality_failures);
  ok &= get("gating_failures", &r.gating_failures);
  ok &= get("transforms", &r.transforms);
  const json::Value* locs = v.Find("ndc_at_loc");
  if (locs == nullptr || !locs->is_array() || locs->arr.size() != r.ndc_at_loc.size()) {
    return false;
  }
  for (std::size_t i = 0; i < r.ndc_at_loc.size(); ++i) {
    r.ndc_at_loc[i] = locs->arr[i].AsU64();
  }
  const json::Value* st = v.Find("stats");
  if (st == nullptr || !st->is_object()) return false;
  for (const auto& [k, x] : st->obj) r.stats[k] = x.AsU64();
  if (!ok) return false;
  *out = r;
  return true;
}

bool CellResult::operator==(const CellResult& o) const {
  return makespan == o.makespan && baseline_makespan == o.baseline_makespan &&
         l1_hits == o.l1_hits && l1_misses == o.l1_misses && l2_hits == o.l2_hits &&
         l2_misses == o.l2_misses && candidates == o.candidates &&
         local_l1_skips == o.local_l1_skips && offloads == o.offloads &&
         ndc_success == o.ndc_success && fallbacks == o.fallbacks &&
         ndc_at_loc == o.ndc_at_loc && chains == o.chains && planned == o.planned &&
         reuse_skips == o.reuse_skips && legality_failures == o.legality_failures &&
         gating_failures == o.gating_failures && transforms == o.transforms &&
         stats == o.stats;
}

namespace {

/// The compiled-vs-policy dispatch shared by RunCell and RunCellObsSummary.
metrics::SchemeResult RunSpec(metrics::Experiment& exp, const CellSpec& spec) {
  if (IsCompiled(spec)) {
    compiler::CompileOptions opt;
    opt.mode = spec.coarse_grain ? compiler::Mode::kCoarseGrain
               : spec.scheme == metrics::Scheme::kAlgorithm2
                   ? compiler::Mode::kAlgorithm2
                   : compiler::Mode::kAlgorithm1;
    opt.allow_reroute = spec.allow_reroute;
    opt.control_register = spec.control_register;
    return exp.RunCompiled(opt);
  }
  return exp.Run(spec.scheme);
}

}  // namespace

std::shared_ptr<metrics::Profile> MakeProfile(const CellSpec& spec) {
  auto profile =
      std::make_shared<metrics::Profile>(spec.workload, spec.scale, spec.cfg, spec.seed);
  profile->set_sim_threads(spec.sim_threads);
  return profile;
}

CellResult RunCell(const CellSpec& spec) { return RunCell(spec, MakeProfile(spec)); }

CellResult RunCell(const CellSpec& spec, std::shared_ptr<metrics::Profile> profile) {
  metrics::Experiment exp(std::move(profile));
  if (!spec.faults.Empty()) exp.set_faults(&spec.faults);
  metrics::SchemeResult r = RunSpec(exp, spec);

  CellResult out;
  out.makespan = r.run.makespan;
  out.baseline_makespan = exp.Baseline().makespan;
  out.l1_hits = r.run.l1_hits;
  out.l1_misses = r.run.l1_misses;
  out.l2_hits = r.run.l2_hits;
  out.l2_misses = r.run.l2_misses;
  out.candidates = r.run.candidates;
  out.local_l1_skips = r.run.local_l1_skips;
  out.offloads = r.run.offloads;
  out.ndc_success = r.run.ndc_success;
  out.fallbacks = r.run.fallbacks;
  out.ndc_at_loc = r.run.ndc_at_loc;
  out.chains = r.compile_report.chains;
  out.planned = r.compile_report.planned;
  out.reuse_skips = r.compile_report.reuse_skips;
  out.legality_failures = r.compile_report.legality_failures;
  out.gating_failures = r.compile_report.gating_failures;
  out.transforms = r.compile_report.transforms;
  out.stats = r.run.stats.all();
  return out;
}

obs::UtilizationSignals ComputeRunSignals(const sim::StatSet& stats,
                                          std::uint64_t makespan,
                                          const arch::ArchConfig& cfg,
                                          const obs::Registry* reg) {
  obs::MachineShape shape;
  shape.num_cores = static_cast<std::uint64_t>(cfg.num_nodes());
  shape.num_mcs = static_cast<std::uint64_t>(cfg.num_mcs);
  // Directed in-mesh links only; the Mesh's 4-per-node slot table pads the
  // boundary with links no route can use, which would deflate utilization.
  std::uint64_t w = static_cast<std::uint64_t>(cfg.mesh_width);
  std::uint64_t h = static_cast<std::uint64_t>(cfg.mesh_height);
  shape.num_links = 2 * (w * (h - 1) + h * (w - 1));
  shape.dram_data_beat = cfg.dram.data_beat;
  shape.compute_latency = cfg.compute_latency;
  obs::UtilizationSignals sig = obs::ComputeSignals(stats, makespan, shape);
  if (reg != nullptr) {
    std::uint64_t max_busy = 0;
    static constexpr const char kSuffix[] = "/busy_cycles";
    constexpr std::size_t kSuffixLen = sizeof(kSuffix) - 1;
    for (const auto& [path, value] : reg->ScalarSnapshot()) {
      if (path.rfind("noc.link.", 0) == 0 && path.size() > kSuffixLen &&
          path.compare(path.size() - kSuffixLen, kSuffixLen, kSuffix) == 0) {
        if (value > max_busy) max_busy = value;
      }
    }
    obs::RefineMaxLinkBusy(sig, max_busy);
  }
  return sig;
}

json::Value ClassificationJson(const obs::UtilizationSignals& sig,
                               const obs::WindowSampler& sampler) {
  json::Value c = json::Value::Object();
  c.obj["label"] = json::Value::Str(obs::LabelName(obs::Classify(sig)));

  json::Value raw = json::Value::Object();
  auto ri = [&](const char* k, std::uint64_t x) { raw.obj[k] = json::Value::Int(x); };
  ri("makespan", sig.makespan);
  ri("mc_reads", sig.mc_reads);
  ri("mc_writes", sig.mc_writes);
  ri("mc_queue_wait_cycles", sig.mc_queue_wait_cycles);
  ri("mc_row_hits", sig.mc_row_hits);
  ri("mc_row_misses", sig.mc_row_misses);
  ri("noc_link_busy_cycles", sig.noc_link_busy_cycles);
  ri("noc_contention_cycles", sig.noc_contention_cycles);
  ri("sync_stall_cycles", sig.sync_stall_cycles);
  ri("ndc_success", sig.ndc_success);
  ri("core_stall_mem", sig.core_stall_mem);
  ri("core_stall_sync", sig.core_stall_sync);
  ri("core_busy_compute", sig.core_busy_compute);
  ri("num_cores", sig.shape.num_cores);
  ri("num_mcs", sig.shape.num_mcs);
  ri("num_links", sig.shape.num_links);
  ri("dram_data_beat", sig.shape.dram_data_beat);
  ri("compute_latency", sig.shape.compute_latency);
  c.obj["raw"] = std::move(raw);

  json::Value der = json::Value::Object();
  auto rd = [&](const char* k, double x) {
    der.obj[k] = json::Value::Str(obs::FormatFrac(x));
  };
  rd("dram_bw_frac", sig.dram_bw_frac);
  rd("mc_queue_occ", sig.mc_queue_occ);
  rd("avg_queue_wait", sig.avg_queue_wait);
  rd("row_miss_ratio", sig.row_miss_ratio);
  rd("noc_util", sig.noc_util);
  rd("noc_max_link_util", sig.noc_max_link_util);
  rd("sync_frac", sig.sync_frac);
  rd("ndc_busy_frac", sig.ndc_busy_frac);
  rd("compute_frac", sig.compute_frac);
  rd("mem_stall_frac", sig.mem_stall_frac);
  c.obj["derived"] = std::move(der);

  obs::ClassifierThresholds t;
  json::Value th = json::Value::Object();
  th.obj["dram_bw"] = json::Value::Str(obs::FormatFrac(t.dram_bw));
  th.obj["dram_queue_wait"] = json::Value::Str(obs::FormatFrac(t.dram_queue_wait));
  th.obj["noc"] = json::Value::Str(obs::FormatFrac(t.noc));
  th.obj["sync"] = json::Value::Str(obs::FormatFrac(t.sync));
  th.obj["compute"] = json::Value::Str(obs::FormatFrac(t.compute));
  c.obj["thresholds"] = std::move(th);

  c.obj["window_cycles"] = json::Value::Int(sampler.window_cycles());
  json::Value wins = json::Value::Array();
  for (std::size_t w = 0; w < sampler.num_windows(); ++w) {
    json::Value e = json::Value::Object();
    for (int s = 0; s < obs::kNumSignals; ++s) {
      auto sg = static_cast<obs::Signal>(s);
      e.obj[obs::SignalName(sg)] = json::Value::Int(sampler.At(sg, w));
    }
    wins.arr.push_back(std::move(e));
  }
  c.obj["windows"] = std::move(wins);
  return c;
}

json::Value RunCellObsSummary(const CellSpec& spec, std::uint64_t sample_period,
                              std::uint64_t classify_window) {
  json::Value v = json::Value::Object();
  v.obj["workload"] = json::Value::Str(spec.workload);
  v.obj["scheme"] = json::Value::Str(spec.SchemeLabel());
  v.obj["scale"] = json::Value::Str(ScaleName(spec.scale));
  v.obj["obs_enabled"] = json::Value::Bool(obs::kObsEnabled);
  if constexpr (!obs::kObsEnabled) return v;

  obs::ObsOptions oo;
  oo.sample_period = sample_period;
  oo.emit_stage_events = false;  // aggregate summary only; no timeline
  oo.window_cycles = classify_window;
  obs::Observability ob(oo);
  metrics::Experiment exp(MakeProfile(spec));
  exp.set_obs(&ob);
  if (!spec.faults.Empty()) exp.set_faults(&spec.faults);
  metrics::SchemeResult r = RunSpec(exp, spec);

  v.obj["makespan"] = json::Value::Int(r.run.makespan);
  v.obj["sample_period"] = json::Value::Int(ob.tracer.sample_period());
  v.obj["requests_seen"] = json::Value::Int(ob.tracer.seen());
  v.obj["requests_traced"] = json::Value::Int(ob.tracer.traced());
  v.obj["requests_finished"] = json::Value::Int(ob.tracer.finished());
  v.obj["requests_unfinished"] = json::Value::Int(ob.tracer.unfinished());
  v.obj["total_end_to_end_cycles"] = json::Value::Int(ob.tracer.total_end_to_end());

  json::Value stages = json::Value::Object();
  for (int i = 0; i < obs::kNumStages; ++i) {
    const obs::RequestTracer::StageAgg& a = ob.tracer.aggregates()[i];
    if (a.count == 0) continue;
    json::Value e = json::Value::Object();
    e.obj["count"] = json::Value::Int(a.count);
    e.obj["cycles"] = json::Value::Int(a.cycles);
    stages.obj[obs::StageName(static_cast<obs::Stage>(i))] = std::move(e);
  }
  v.obj["stages"] = std::move(stages);

  json::Value kinds = json::Value::Object();
  for (int i = 0; i < obs::kNumDecisionKinds; ++i) {
    auto k = static_cast<obs::DecisionKind>(i);
    if (ob.decisions.kind_count(k) == 0) continue;
    kinds.obj[obs::DecisionKindName(k)] = json::Value::Int(ob.decisions.kind_count(k));
  }
  v.obj["decisions"] = std::move(kinds);
  json::Value outcomes = json::Value::Object();
  for (int i = 0; i < obs::kNumOutcomes; ++i) {
    auto o = static_cast<obs::Outcome>(i);
    if (ob.decisions.outcome_count(o) == 0) continue;
    outcomes.obj[obs::OutcomeName(o)] = json::Value::Int(ob.decisions.outcome_count(o));
  }
  v.obj["outcomes"] = std::move(outcomes);

  if (classify_window > 0) {
    obs::UtilizationSignals sig =
        ComputeRunSignals(r.run.stats, r.run.makespan, spec.cfg, &ob.registry);
    v.obj["classification"] = ClassificationJson(sig, ob.sampler);
  }
  return v;
}

}  // namespace ndc::harness
