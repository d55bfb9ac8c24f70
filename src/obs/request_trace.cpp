#include "obs/request_trace.hpp"

#include <algorithm>
#include <cstdio>

namespace ndc::obs {

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kIssue: return "issue";
    case Stage::kL1Hit: return "l1.hit";
    case Stage::kL1Miss: return "l1.lookup";
    case Stage::kReqAtHome: return "noc.request";
    case Stage::kL2Hit: return "l2.hit";
    case Stage::kL2Miss: return "l2.miss";
    case Stage::kMcEnqueue: return "noc.to_mc";
    case Stage::kMcIssue: return "mc.queue";
    case Stage::kDramReady: return "dram.service";
    case Stage::kHomeRefill: return "noc.mc_response";
    case Stage::kDeliver: return "noc.response";
    case Stage::kNdcConsumed: return "ndc.consumed";
    case Stage::kUnfinished: return "unfinished";
  }
  return "?";
}

std::uint64_t RequestTracer::Begin(sim::NodeId core, std::uint32_t slot, sim::Addr addr,
                                   sim::Cycle now) {
  ++seen_;
  if ((seen_ - 1) % opt_.sample_period != 0) return 0;
  if (records_.size() >= kMaxTracedRequests) {
    ++overflowed_;
    return 0;
  }
  RequestRecord& r = records_.emplace_back();
  r.token = records_.size();  // index + 1
  r.core = core;
  r.slot = slot;
  r.addr = addr;
  r.stamps.push_back({Stage::kIssue, now});
  return r.token;
}

void RequestTracer::Stamp(std::uint64_t token, Stage stage, sim::Cycle now) {
  RequestRecord* r = Find(token);
  if (r == nullptr || r->finished) return;
  r->stamps.push_back({stage, now});
}

void RequestTracer::Finish(std::uint64_t token, Stage final_stage, sim::Cycle now) {
  RequestRecord* r = Find(token);
  if (r == nullptr || r->finished) return;
  r->stamps.push_back({final_stage, now});
  r->finished = true;
  if (final_stage == Stage::kUnfinished) {
    ++unfinished_;
    return;
  }
  ++finished_;
  // Aggregate the telescoping deltas; each interval is attributed to the
  // stage stamped at its end.
  for (std::size_t i = 1; i < r->stamps.size(); ++i) {
    const StageStamp& prev = r->stamps[i - 1];
    const StageStamp& cur = r->stamps[i];
    StageAgg& a = agg_[static_cast<int>(cur.stage)];
    ++a.count;
    a.cycles += cur.at - prev.at;
    if (sink_ != nullptr && cur.at > prev.at) {
      sink_->Complete(StageName(cur.stage), prev.at, cur.at - prev.at, r->core, token);
    }
  }
  total_e2e_ += r->EndToEnd();
}

void RequestTracer::EndRun(sim::Cycle now) {
  for (RequestRecord& r : records_) {
    if (!r.finished) Finish(r.token, Stage::kUnfinished, now);
  }
}

std::string RequestTracer::BreakdownTable() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-16s %12s %14s %10s\n", "stage", "intervals",
                "cycles", "avg");
  out += line;
  std::uint64_t sum = 0;
  for (int i = 0; i < kNumStages; ++i) {
    const StageAgg& a = agg_[i];
    if (a.count == 0) continue;
    sum += a.cycles;
    std::snprintf(line, sizeof(line), "%-16s %12llu %14llu %10.1f\n",
                  StageName(static_cast<Stage>(i)),
                  static_cast<unsigned long long>(a.count),
                  static_cast<unsigned long long>(a.cycles),
                  static_cast<double>(a.cycles) / static_cast<double>(a.count));
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-16s %12s %14llu\n", "total", "",
                static_cast<unsigned long long>(sum));
  out += line;
  std::snprintf(line, sizeof(line),
                "requests: seen=%llu traced=%llu finished=%llu unfinished=%llu "
                "overflowed=%llu (sample_period=%llu)\n",
                static_cast<unsigned long long>(seen_),
                static_cast<unsigned long long>(records_.size()),
                static_cast<unsigned long long>(finished_),
                static_cast<unsigned long long>(unfinished_),
                static_cast<unsigned long long>(overflowed_),
                static_cast<unsigned long long>(opt_.sample_period));
  out += line;
  if (finished_ > 0) {
    std::snprintf(line, sizeof(line), "end-to-end: total=%llu avg=%.1f cycles\n",
                  static_cast<unsigned long long>(total_e2e_),
                  static_cast<double>(total_e2e_) / static_cast<double>(finished_));
    out += line;
  }
  return out;
}

}  // namespace ndc::obs
