#include "harness/cell.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "ndc/policy.hpp"

namespace ndc::harness {

const char* ScaleName(workloads::Scale s) {
  for (const auto& [scale, name] : kScaleNames) {
    if (scale == s) return name;
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

/// `cfg` with the fields only a measured run reads (the control register
/// and the reroute flag) at their defaults: the configuration of the
/// profile that cells on `cfg` share.
arch::ArchConfig ProfileConfig(arch::ArchConfig cfg) {
  const arch::ArchConfig defaults;
  cfg.control_register = defaults.control_register;
  cfg.allow_reroute = defaults.allow_reroute;
  return cfg;
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
  base.cfg = ProfileConfig(cfg);
  return base.CanonicalString();
}

bool CellSpec::IsCompiled() const {
  return coarse_grain || scheme == metrics::Scheme::kAlgorithm1 ||
         scheme == metrics::Scheme::kAlgorithm2;
}

bool CellSpec::NeedsObserve() const {
  if (IsCompiled()) return false;
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

namespace {

/// The scalar counters of a CellResult and the names they are cached
/// under; ToJson, FromJson and operator== all walk this one list.
struct CounterField {
  const char* name;
  std::uint64_t CellResult::*member;
};
constexpr CounterField kCounterFields[] = {
    {"makespan", &CellResult::makespan},
    {"baseline_makespan", &CellResult::baseline_makespan},
    {"l1_hits", &CellResult::l1_hits},
    {"l1_misses", &CellResult::l1_misses},
    {"l2_hits", &CellResult::l2_hits},
    {"l2_misses", &CellResult::l2_misses},
    {"candidates", &CellResult::candidates},
    {"local_l1_skips", &CellResult::local_l1_skips},
    {"offloads", &CellResult::offloads},
    {"ndc_success", &CellResult::ndc_success},
    {"fallbacks", &CellResult::fallbacks},
    {"chains", &CellResult::chains},
    {"planned", &CellResult::planned},
    {"reuse_skips", &CellResult::reuse_skips},
    {"legality_failures", &CellResult::legality_failures},
    {"gating_failures", &CellResult::gating_failures},
    {"transforms", &CellResult::transforms},
};

/// Reads one counter; false unless `v` is present and an integer.
bool ReadCounter(const json::Value* v, std::uint64_t* dst) {
  if (v == nullptr || v->kind != json::Value::Kind::kInt) return false;
  *dst = v->u64;
  return true;
}

}  // namespace

json::Value CellResult::ToJson() const {
  json::Value v = json::Value::Object();
  for (const CounterField& f : kCounterFields) v.obj[f.name] = json::Value::Int(this->*f.member);
  json::Value locs = json::Value::Array();
  for (std::uint64_t x : ndc_at_loc) locs.arr.push_back(json::Value::Int(x));
  v.obj["ndc_at_loc"] = std::move(locs);
  json::Value st = json::Value::Object();
  for (const auto& [k, x] : stats) st.obj[k] = json::Value::Int(x);
  v.obj["stats"] = std::move(st);
  return v;
}

bool CellResult::FromJson(const json::Value& v, CellResult* out) {
  if (!v.is_object()) return false;
  CellResult r;
  for (const CounterField& f : kCounterFields) {
    if (!ReadCounter(v.Find(f.name), &(r.*f.member))) return false;
  }
  const json::Value* locs = v.Find("ndc_at_loc");
  if (locs == nullptr || !locs->is_array() || locs->arr.size() != r.ndc_at_loc.size()) {
    return false;
  }
  for (std::size_t i = 0; i < r.ndc_at_loc.size(); ++i) {
    if (!ReadCounter(&locs->arr[i], &r.ndc_at_loc[i])) return false;
  }
  const json::Value* st = v.Find("stats");
  if (st == nullptr || !st->is_object()) return false;
  for (const auto& [k, x] : st->obj) {
    if (!ReadCounter(&x, &r.stats[k])) return false;
  }
  *out = r;
  return true;
}

bool CellResult::operator==(const CellResult& o) const {
  for (const CounterField& f : kCounterFields) {
    if (this->*f.member != o.*f.member) return false;
  }
  return ndc_at_loc == o.ndc_at_loc && stats == o.stats;
}

std::shared_ptr<metrics::Profile> MakeProfile(const CellSpec& spec, bool observe) {
  return std::make_shared<metrics::Profile>(spec.workload, spec.scale, ProfileConfig(spec.cfg),
                                            spec.seed, observe);
}

void CheckCellConservation(const CellSpec& spec, const fault::ConservationInputs& in) {
  fault::ConservationReport rep = fault::CheckConservation(in);
  if (rep.ok) return;
  throw std::runtime_error("cell " + spec.Key() + " (" + spec.workload + ", " +
                           spec.SchemeLabel() + "): " + rep.ToString());
}

compiler::CompileOptions CellCompileOptions(const CellSpec& spec) {
  compiler::CompileOptions opt;
  opt.mode = spec.coarse_grain                              ? compiler::Mode::kCoarseGrain
             : spec.scheme == metrics::Scheme::kAlgorithm2 ? compiler::Mode::kAlgorithm2
                                                           : compiler::Mode::kAlgorithm1;
  opt.allow_reroute = spec.cfg.allow_reroute;
  opt.control_register = spec.cfg.control_register;
  return opt;
}

namespace {

/// The hardware waiting policy of a policy scheme (Section 4.4) on `cfg`;
/// null for the Baseline. The Oracle and Wait(x%) read the profile's
/// observation run.
std::unique_ptr<runtime::Policy> MakePolicy(metrics::Scheme scheme, const arch::ArchConfig& cfg,
                                            metrics::Profile& profile) {
  using metrics::Scheme;
  auto wait = [&](double fraction) {
    return std::make_unique<runtime::FractionWaitPolicy>(cfg, *profile.Observe().records,
                                                         fraction);
  };
  switch (scheme) {
    case Scheme::kDefault: return std::make_unique<runtime::AlwaysWaitPolicy>(cfg);
    case Scheme::kOracle:
      return std::make_unique<runtime::OraclePolicy>(cfg, *profile.Observe().records);
    case Scheme::kWait5: return wait(0.05);
    case Scheme::kWait10: return wait(0.10);
    case Scheme::kWait25: return wait(0.25);
    case Scheme::kWait50: return wait(0.50);
    case Scheme::kLastWait: return std::make_unique<runtime::LastWaitPolicy>(cfg);
    case Scheme::kMarkov: return std::make_unique<runtime::MarkovWaitPolicy>(cfg);
    default: return nullptr;
  }
}

}  // namespace

metrics::SchemeResult RunScheme(const CellSpec& spec, metrics::Profile& profile,
                                obs::Observability* ob) {
  metrics::SchemeResult out;
  if (spec.IsCompiled()) {
    ir::Program prog;
    out.compile_report = profile.Compile(spec.cfg, CellCompileOptions(spec), &prog);
    out.run = profile.RunCompiled(spec.cfg, prog, ob);
  } else if (spec.scheme == metrics::Scheme::kBaseline && ob == nullptr) {
    out.run = profile.Baseline();
  } else {
    // A traced Baseline re-simulates: the profile's baseline carries no
    // observation data.
    std::unique_ptr<runtime::Policy> policy = MakePolicy(spec.scheme, spec.cfg, profile);
    runtime::MachineOptions opts;
    opts.policy = policy.get();
    opts.obs = ob;
    out.run = profile.Simulate(spec.cfg, profile.Traces(), opts);
  }
  CheckCellConservation(spec, out.run.conservation);
  return out;
}

CellResult RunCell(const CellSpec& spec) {
  return RunCell(spec, MakeProfile(spec, spec.NeedsObserve()));
}

CellResult RunCell(const CellSpec& spec, std::shared_ptr<metrics::Profile> profile,
                   json::Value* obs_summary) {
  std::optional<obs::Observability> ob;
  if (obs_summary != nullptr) ob.emplace(obs::ObsOptions{.max_trace_events = 0});
  metrics::SchemeResult r = RunScheme(spec, *profile, ob ? &*ob : nullptr);
  if (ob) *obs_summary = CellObsSummary(spec, r.run.makespan, *ob);

  CellResult out;
  out.makespan = r.run.makespan;
  out.baseline_makespan = profile->Baseline().makespan;
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
  out.stats = r.run.stats.all();
  return out;
}

json::Value CellObsSummary(const CellSpec& spec, std::uint64_t makespan,
                           const obs::Observability& ob) {
  json::Value v = json::Value::Object();
  v.obj["workload"] = json::Value::Str(spec.workload);
  v.obj["scheme"] = json::Value::Str(spec.SchemeLabel());
  v.obj["scale"] = json::Value::Str(ScaleName(spec.scale));
  v.obj["makespan"] = json::Value::Int(makespan);
  v.obj["sample_period"] = json::Value::Int(ob.tracer.sample_period());
  v.obj["requests_seen"] = json::Value::Int(ob.tracer.seen());
  v.obj["requests_traced"] = json::Value::Int(ob.tracer.traced());
  v.obj["requests_finished"] = json::Value::Int(ob.tracer.finished());
  v.obj["requests_unfinished"] = json::Value::Int(ob.tracer.unfinished());
  v.obj["requests_overflowed"] = json::Value::Int(ob.tracer.overflowed());
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
    if (std::uint64_t n = ob.decisions.kind_count(k); n != 0) {
      kinds.obj[obs::DecisionKindName(k)] = json::Value::Int(n);
    }
  }
  v.obj["decisions"] = std::move(kinds);
  json::Value outcomes = json::Value::Object();
  for (int i = 0; i < obs::kNumOutcomes; ++i) {
    auto o = static_cast<obs::Outcome>(i);
    if (std::uint64_t n = ob.decisions.outcome_count(o); n != 0) {
      outcomes.obj[obs::OutcomeName(o)] = json::Value::Int(n);
    }
  }
  v.obj["outcomes"] = std::move(outcomes);
  return v;
}

}  // namespace ndc::harness
