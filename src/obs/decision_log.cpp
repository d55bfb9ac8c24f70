#include "obs/decision_log.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "json/json.hpp"

namespace ndc::obs {

const char* DecisionKindName(DecisionKind k) {
  switch (k) {
    case DecisionKind::kLocalL1Skip: return "local_l1_skip";
    case DecisionKind::kDeclined: return "declined";
    case DecisionKind::kPlanInfeasible: return "plan_infeasible";
    case DecisionKind::kOpRestricted: return "op_restricted";
    case DecisionKind::kOffloadTableFull: return "offload_table_full";
    case DecisionKind::kOffload: return "offload";
  }
  return "?";
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kConventional: return "conventional";
    case Outcome::kNdcSuccess: return "ndc_success";
    case Outcome::kFallbackTimeout: return "fallback_timeout";
    case Outcome::kFallbackPartnerDone: return "fallback_partner_done";
    case Outcome::kFallbackServiceTableFull: return "fallback_service_table_full";
    case Outcome::kFallbackNeverMet: return "fallback_never_met";
    case Outcome::kUnresolved: return "unresolved";
  }
  return "?";
}

void DecisionLog::Record(std::uint64_t uid, sim::NodeId core, std::uint32_t site,
                         DecisionKind kind, std::int8_t planned_loc, sim::Cycle now) {
  if (uid >= entry_of_uid_.size()) entry_of_uid_.resize(uid + 1, 0);
  assert(entry_of_uid_[uid] == 0 && "one decision per candidate");
  DecisionEntry& e = entries_.emplace_back();
  entry_of_uid_[uid] = entries_.size();
  e.uid = uid;
  e.core = core;
  e.site = site;
  e.kind = kind;
  e.planned_loc = planned_loc;
  e.decided_at = now;
  if (kind != DecisionKind::kOffload) {
    e.outcome = Outcome::kConventional;
    e.resolved_at = now;
  }
}

void DecisionLog::Resolve(std::uint64_t uid, Outcome outcome, std::int8_t met_loc,
                          sim::Cycle now) {
  if (uid >= entry_of_uid_.size() || entry_of_uid_[uid] == 0) return;
  DecisionEntry& e = entries_[entry_of_uid_[uid] - 1];
  if (e.outcome != Outcome::kUnresolved) return;  // first resolution wins
  e.outcome = outcome;
  e.met_loc = met_loc;
  e.resolved_at = now;
}

void DecisionLog::EndRun(sim::Cycle now) {
  for (DecisionEntry& e : entries_) {
    if (e.outcome == Outcome::kUnresolved) {
      e.outcome = Outcome::kFallbackNeverMet;
      e.resolved_at = now;
    }
  }
}

std::uint64_t DecisionLog::kind_count(DecisionKind k) const {
  return static_cast<std::uint64_t>(std::count_if(
      entries_.begin(), entries_.end(), [k](const DecisionEntry& e) { return e.kind == k; }));
}

std::uint64_t DecisionLog::outcome_count(Outcome o) const {
  return static_cast<std::uint64_t>(std::count_if(
      entries_.begin(), entries_.end(), [o](const DecisionEntry& e) { return e.outcome == o; }));
}

std::string DecisionLog::Summary() const {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "candidates: %llu\n",
                static_cast<unsigned long long>(entries_.size()));
  out += line;
  out += "decisions:\n";
  for (int i = 0; i < kNumDecisionKinds; ++i) {
    auto k = static_cast<DecisionKind>(i);
    std::uint64_t n = kind_count(k);
    if (n == 0) continue;
    std::snprintf(line, sizeof(line), "  %-28s %10llu\n", DecisionKindName(k),
                  static_cast<unsigned long long>(n));
    out += line;
  }
  out += "outcomes:\n";
  for (int i = 0; i < kNumOutcomes; ++i) {
    auto o = static_cast<Outcome>(i);
    std::uint64_t n = outcome_count(o);
    if (n == 0) continue;
    std::snprintf(line, sizeof(line), "  %-28s %10llu\n", OutcomeName(o),
                  static_cast<unsigned long long>(n));
    out += line;
  }
  return out;
}

std::string DecisionLog::ToJsonl() const {
  using json::Value;
  std::string out;
  for (const DecisionEntry& e : entries_) {
    Value v = Value::Object({{"uid", Value::Int(e.uid)},
                             {"core", Value::Signed(e.core)},
                             {"site", Value::Int(e.site)},
                             {"kind", Value::Str(DecisionKindName(e.kind))},
                             {"planned_loc", Value::Signed(e.planned_loc)},
                             {"decided_at", Value::Int(e.decided_at)},
                             {"outcome", Value::Str(OutcomeName(e.outcome))},
                             {"met_loc", Value::Signed(e.met_loc)},
                             {"resolved_at", Value::Int(e.resolved_at)}});
    out += json::Dump(v);
    out += '\n';
  }
  return out;
}

}  // namespace ndc::obs
