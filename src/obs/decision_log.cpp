#include "obs/decision_log.hpp"

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
  if (by_uid_.count(uid) != 0) return;
  by_uid_[uid] = entries_.size();
  DecisionEntry& e = entries_.emplace_back();
  e.uid = uid;
  e.core = core;
  e.site = site;
  e.kind = kind;
  e.planned_loc = planned_loc;
  e.decided_at = now;
  ++kind_counts_[static_cast<int>(kind)];
  if (kind == DecisionKind::kOffload) {
    e.outcome = Outcome::kUnresolved;
  } else {
    e.outcome = Outcome::kConventional;
    e.resolved_at = now;
  }
  ++outcome_counts_[static_cast<int>(e.outcome)];
}

void DecisionLog::Resolve(std::uint64_t uid, Outcome outcome, std::int8_t met_loc,
                          sim::Cycle now) {
  auto it = by_uid_.find(uid);
  if (it == by_uid_.end()) return;
  DecisionEntry& e = entries_[it->second];
  if (e.outcome != Outcome::kUnresolved) return;  // first resolution wins
  --outcome_counts_[static_cast<int>(Outcome::kUnresolved)];
  e.outcome = outcome;
  e.met_loc = met_loc;
  e.resolved_at = now;
  ++outcome_counts_[static_cast<int>(outcome)];
}

void DecisionLog::EndRun(sim::Cycle now) {
  for (DecisionEntry& e : entries_) {
    if (e.outcome == Outcome::kUnresolved) {
      --outcome_counts_[static_cast<int>(Outcome::kUnresolved)];
      e.outcome = Outcome::kFallbackNeverMet;
      e.resolved_at = now;
      ++outcome_counts_[static_cast<int>(Outcome::kFallbackNeverMet)];
    }
  }
}

std::string DecisionLog::Summary() const {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "candidates: %llu\n",
                static_cast<unsigned long long>(entries_.size()));
  out += line;
  out += "decisions:\n";
  for (int i = 0; i < kNumDecisionKinds; ++i) {
    if (kind_counts_[i] == 0) continue;
    std::snprintf(line, sizeof(line), "  %-28s %10llu\n",
                  DecisionKindName(static_cast<DecisionKind>(i)),
                  static_cast<unsigned long long>(kind_counts_[i]));
    out += line;
  }
  out += "outcomes:\n";
  for (int i = 0; i < kNumOutcomes; ++i) {
    if (outcome_counts_[i] == 0) continue;
    std::snprintf(line, sizeof(line), "  %-28s %10llu\n",
                  OutcomeName(static_cast<Outcome>(i)),
                  static_cast<unsigned long long>(outcome_counts_[i]));
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
