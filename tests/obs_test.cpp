// Tests for the observability subsystem (src/obs): trace-event JSON
// round-trip, the telescoping stage-latency invariant, sampling consistency,
// timing neutrality, and NDC decision-audit completeness.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "json/json.hpp"
#include "obs/obs.hpp"
#include "test_support.hpp"

namespace {

using ndc::json::Parse;
using ndc::json::Value;
using ndc::metrics::Scheme;
using ndc::obs::DecisionEntry;
using ndc::obs::DecisionKind;
using ndc::obs::DecisionLog;
using ndc::obs::Observability;
using ndc::obs::ObsOptions;
using ndc::obs::Outcome;
using ndc::obs::RequestRecord;
using ndc::obs::Stage;
using ndc::obs::TraceSink;

// ------------------------------------------------------------ unit: sink ---

TEST(TraceSink, JsonRoundTripsThroughHarnessParser) {
  TraceSink sink;
  sink.Complete("l1.lookup", 10, 5, 3, 42);
  sink.Complete("noc.hop", 15, 7, 3, 42);
  sink.Instant("ndc.meet", 30, 2, 7, "loc", 1);
  struct Want {
    char ph;
    std::uint64_t ts, dur, tid;
    const char* name;
    std::uint64_t token;
  };
  const Want want[] = {{'X', 10, 5, 3, "l1.lookup", 42},
                       {'X', 15, 7, 3, "noc.hop", 42},
                       {'i', 30, 0, 2, "ndc.meet", 7}};

  Value v;
  std::string err;
  ASSERT_TRUE(Parse(sink.ToJson(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  const Value* evs = v.Find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is_array());
  ASSERT_EQ(evs->arr.size(), std::size(want));

  for (std::size_t i = 0; i < evs->arr.size(); ++i) {
    const Value& e = evs->arr[i];
    const Want& src = want[i];
    ASSERT_TRUE(e.is_object());
    // Chrome trace-event required keys.
    for (const char* key : {"ph", "ts", "pid", "tid", "name"}) {
      EXPECT_NE(e.Find(key), nullptr) << "event " << i << " missing " << key;
    }
    EXPECT_EQ(e.Find("ts")->AsU64(), src.ts);
    EXPECT_EQ(e.Find("ph")->str, std::string(1, src.ph));
    EXPECT_EQ(e.Find("tid")->AsU64(), src.tid);
    EXPECT_EQ(e.Find("name")->str, src.name);
    if (src.ph == 'X') {
      ASSERT_NE(e.Find("dur"), nullptr);
      EXPECT_EQ(e.Find("dur")->AsU64(), src.dur);
    }
    const Value* a = e.Find("args");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->Find("token")->AsU64(), src.token);
  }
}

TEST(TraceSink, CapsEventsAndCountsDropped) {
  TraceSink sink(2);
  sink.Complete("a", 0, 1, 0, 0);
  sink.Complete("b", 1, 1, 0, 0);
  sink.Complete("c", 2, 1, 0, 0);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
}

// ---------------------------------------------------------- unit: tracer ---

TEST(RequestTracer, TelescopingStampsSumToEndToEnd) {
  TraceSink sink;
  ndc::obs::RequestTracer tracer(&sink);
  std::uint64_t t = tracer.Begin(0, 0, 0x40, 100);
  ASSERT_NE(t, 0u);
  tracer.Stamp(t, Stage::kL1Miss, 102);
  tracer.Stamp(t, Stage::kReqAtHome, 150);
  tracer.Stamp(t, Stage::kL2Hit, 170);
  tracer.Finish(t, Stage::kDeliver, 220);

  const RequestRecord& r = tracer.records()[0];
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.EndToEnd(), 120u);
  std::uint64_t stage_sum = 0;
  for (std::size_t i = 1; i < r.stamps.size(); ++i) {
    stage_sum += r.stamps[i].at - r.stamps[i - 1].at;
  }
  EXPECT_EQ(stage_sum, r.EndToEnd());
  EXPECT_EQ(tracer.total_end_to_end(), 120u);
  std::uint64_t agg_sum = 0;
  for (int i = 0; i < ndc::obs::kNumStages; ++i) agg_sum += tracer.aggregates()[i].cycles;
  EXPECT_EQ(agg_sum, tracer.total_end_to_end());
}

TEST(RequestTracer, FinishIsIdempotent) {
  TraceSink sink;
  ndc::obs::RequestTracer tracer(&sink);
  std::uint64_t t = tracer.Begin(0, 0, 0x40, 0);
  tracer.Finish(t, Stage::kL1Hit, 2);
  tracer.Finish(t, Stage::kNdcConsumed, 9);  // late duplicate: ignored
  EXPECT_EQ(tracer.finished(), 1u);
  EXPECT_EQ(tracer.records()[0].EndToEnd(), 2u);
}

TEST(RequestTracer, SamplePeriodAdmitsEveryNth) {
  ObsOptions opt;
  opt.sample_period = 3;
  opt.max_trace_events = 0;
  TraceSink sink(opt.max_trace_events);
  ndc::obs::RequestTracer tracer(&sink, opt);
  int admitted = 0;
  for (int i = 0; i < 9; ++i) {
    if (tracer.Begin(0, static_cast<std::uint32_t>(i), 0, 0) != 0) ++admitted;
  }
  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(tracer.seen(), 9u);
  EXPECT_EQ(tracer.traced(), 3u);
  // The first load is always admitted (slot 0, 3, 6).
  EXPECT_EQ(tracer.records()[0].slot, 0u);
  EXPECT_EQ(tracer.records()[1].slot, 3u);
  EXPECT_EQ(tracer.records()[2].slot, 6u);
}

// The breakdown's request line accounts for every load offered: sampled
// out, traced, or lost to the record cap (none here).
TEST(RequestTracer, BreakdownReportsOverflow) {
  TraceSink sink;
  ndc::obs::RequestTracer tracer(&sink);
  tracer.Finish(tracer.Begin(0, 0, 0x40, 0), Stage::kL1Hit, 2);
  EXPECT_EQ(tracer.overflowed(), 0u);
  EXPECT_NE(tracer.BreakdownTable().find("requests: seen=1 traced=1 finished=1 unfinished=0 "
                                         "overflowed=0 (sample_period=1)"),
            std::string::npos)
      << tracer.BreakdownTable();
}

TEST(RequestTracer, EndRunClosesOpenRecordsAsUnfinished) {
  TraceSink sink;
  ndc::obs::RequestTracer tracer(&sink);
  tracer.Begin(0, 0, 0, 5);
  tracer.EndRun(50);
  EXPECT_EQ(tracer.unfinished(), 1u);
  EXPECT_EQ(tracer.finished(), 0u);
  // Unfinished requests are excluded from the stage aggregates.
  for (int i = 0; i < ndc::obs::kNumStages; ++i) {
    EXPECT_EQ(tracer.aggregates()[i].cycles, 0u);
  }
}

// ---------------------------------------------------- unit: decision log ---

TEST(DecisionLog, NonOffloadKindsResolveConventionalImmediately) {
  DecisionLog log;
  log.Record(1, 0, 0, DecisionKind::kLocalL1Skip, -1, 10);
  log.Record(2, 0, 1, DecisionKind::kDeclined, -1, 11);
  log.Record(3, 0, 2, DecisionKind::kPlanInfeasible, -1, 12);
  EXPECT_EQ(log.outcome_count(Outcome::kConventional), 3u);
  EXPECT_EQ(log.outcome_count(Outcome::kUnresolved), 0u);
}

TEST(DecisionLog, OffloadResolvesOnceFirstWins) {
  DecisionLog log;
  log.Record(7, 1, 0, DecisionKind::kOffload, 2, 10);
  EXPECT_EQ(log.outcome_count(Outcome::kUnresolved), 1u);
  log.Resolve(7, Outcome::kNdcSuccess, 2, 40);
  log.Resolve(7, Outcome::kFallbackTimeout, -1, 50);  // loses the race: ignored
  EXPECT_EQ(log.outcome_count(Outcome::kNdcSuccess), 1u);
  EXPECT_EQ(log.outcome_count(Outcome::kFallbackTimeout), 0u);
  EXPECT_EQ(log.entries()[0].resolved_at, 40u);
}

TEST(DecisionLog, UnknownResolvesAreIgnored) {
  DecisionLog log;
  log.Record(5, 0, 0, DecisionKind::kOffload, 1, 1);
  log.Resolve(99, Outcome::kNdcSuccess, 1, 3);  // unknown uid: ignored
  log.Resolve(2, Outcome::kNdcSuccess, 1, 3);   // below a known uid, none of its own
  EXPECT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.kind_count(DecisionKind::kOffload), 1u);
  EXPECT_EQ(log.outcome_count(Outcome::kUnresolved), 1u);
}

TEST(DecisionLog, EndRunMarksUnresolvedAsNeverMet) {
  DecisionLog log;
  log.Record(1, 0, 0, DecisionKind::kOffload, 3, 5);
  log.EndRun(100);
  EXPECT_EQ(log.outcome_count(Outcome::kUnresolved), 0u);
  EXPECT_EQ(log.outcome_count(Outcome::kFallbackNeverMet), 1u);
}

TEST(DecisionLog, JsonlHasOneValidObjectPerEntry) {
  DecisionLog log;
  log.Record(1, 2, 3, DecisionKind::kOffload, 1, 5);
  log.Resolve(1, Outcome::kNdcSuccess, 1, 9);
  log.Record(2, 0, 0, DecisionKind::kDeclined, -1, 6);
  std::string jsonl = log.ToJsonl();
  std::size_t lines = 0, pos = 0, next;
  while ((next = jsonl.find('\n', pos)) != std::string::npos) {
    Value v;
    std::string err;
    ASSERT_TRUE(Parse(jsonl.substr(pos, next - pos), &v, &err)) << err;
    ASSERT_TRUE(v.is_object());
    EXPECT_NE(v.Find("uid"), nullptr);
    EXPECT_NE(v.Find("kind"), nullptr);
    EXPECT_NE(v.Find("outcome"), nullptr);
    ++lines;
    pos = next + 1;
  }
  EXPECT_EQ(lines, log.entries().size());
}

// ------------------------------------------------------------ end-to-end ---

/// Runs (workload, scheme) at test scale with `ob` attached.
ndc::metrics::SchemeResult RunWith(Observability* ob, const std::string& workload,
                                   Scheme scheme) {
  return ndc::harness::RunSchemeAlone(ndc::harness::TestCell(workload, scheme), ob);
}

TEST(ObsEndToEnd, StageLatenciesTelescopeToEndToEndPerRequestAndAggregate) {
  Observability ob;
  RunWith(&ob, "md", Scheme::kOracle);

  ASSERT_GT(ob.tracer.finished(), 0u);
  for (const RequestRecord& r : ob.tracer.records()) {
    if (!r.finished) continue;
    ASSERT_GE(r.stamps.size(), 2u) << "token " << r.token;
    EXPECT_EQ(r.stamps.front().stage, Stage::kIssue);
    std::uint64_t sum = 0;
    for (std::size_t i = 1; i < r.stamps.size(); ++i) {
      ASSERT_GE(r.stamps[i].at, r.stamps[i - 1].at) << "token " << r.token;
      sum += r.stamps[i].at - r.stamps[i - 1].at;
    }
    EXPECT_EQ(sum, r.EndToEnd()) << "token " << r.token;
  }
  std::uint64_t agg = 0;
  for (int i = 0; i < ndc::obs::kNumStages; ++i) agg += ob.tracer.aggregates()[i].cycles;
  EXPECT_EQ(agg, ob.tracer.total_end_to_end());
}

TEST(ObsEndToEnd, TraceJsonFromRealRunIsValidChromeTraceEvent) {
  Observability ob;
  RunWith(&ob, "md", Scheme::kOracle);
  ASSERT_GT(ob.sink.size(), 0u);

  Value v;
  std::string err;
  ASSERT_TRUE(Parse(ob.sink.ToJson(), &v, &err)) << err;
  const Value* evs = v.Find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_EQ(evs->arr.size(), ob.sink.size());
  for (const Value& e : evs->arr) {
    for (const char* key : {"ph", "ts", "pid", "tid", "name"}) {
      ASSERT_NE(e.Find(key), nullptr);
    }
    if (e.Find("ph")->str == "X") {
      ASSERT_NE(e.Find("dur"), nullptr);
    }
  }
}

TEST(ObsEndToEnd, SampledRecordsAreExactSubsetOfFullTrace) {
  Observability full;
  RunWith(&full, "md", Scheme::kOracle);

  ObsOptions oo;
  oo.sample_period = 7;
  Observability sampled(oo);
  RunWith(&sampled, "md", Scheme::kOracle);

  EXPECT_EQ(sampled.tracer.seen(), full.tracer.seen());
  ASSERT_GT(sampled.tracer.traced(), 0u);
  EXPECT_LT(sampled.tracer.traced(), full.tracer.traced());

  // Key every full-run record by identity; a sampled record's stamps must
  // match the corresponding full-run record exactly (stamping is passive,
  // the simulation is deterministic).
  std::map<std::tuple<int, std::uint32_t, std::uint64_t>, const RequestRecord*> by_key;
  for (const RequestRecord& r : full.tracer.records()) {
    by_key[{r.core, r.slot, r.addr}] = &r;
  }
  for (const RequestRecord& s : sampled.tracer.records()) {
    auto it = by_key.find({s.core, s.slot, s.addr});
    ASSERT_NE(it, by_key.end()) << "sampled-only record, slot " << s.slot;
    const RequestRecord& f = *it->second;
    ASSERT_EQ(s.stamps.size(), f.stamps.size());
    for (std::size_t i = 0; i < s.stamps.size(); ++i) {
      EXPECT_EQ(s.stamps[i].stage, f.stamps[i].stage);
      EXPECT_EQ(s.stamps[i].at, f.stamps[i].at);
    }
  }
}

// Attaching observation never perturbs a run: on md, every Figure 4 scheme,
// the Baseline and the coarse-grain mapping produce the same result in every
// field traced and untraced.
TEST(ObsEndToEnd, TracingIsTimingNeutral) {
  using ndc::harness::CellSpec;
  using ndc::harness::TestCell;
  std::vector<CellSpec> cells;
  for (Scheme s : {Scheme::kBaseline, Scheme::kDefault, Scheme::kOracle, Scheme::kWait5,
                   Scheme::kWait10, Scheme::kWait25, Scheme::kWait50, Scheme::kLastWait,
                   Scheme::kMarkov, Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    cells.push_back(TestCell("md", s));
  }
  cells.push_back(TestCell("md", Scheme::kAlgorithm1));
  cells.back().coarse_grain = true;

  auto profile = ndc::harness::MakeProfile(cells.front(), true);
  for (const CellSpec& c : cells) {
    ndc::metrics::SchemeResult off = ndc::harness::RunScheme(c, *profile);
    Observability ob;
    ndc::metrics::SchemeResult on = ndc::harness::RunScheme(c, *profile, &ob);
    ASSERT_GT(ob.tracer.traced(), 0u) << c.SchemeLabel();
    ndc::harness::ExpectSameRun(on.run, off.run, c.SchemeLabel());
    EXPECT_EQ(on.run.conservation, off.run.conservation) << c.SchemeLabel();
  }
}

TEST(ObsEndToEnd, OracleDecisionAuditAccountsForEveryCandidate) {
  Observability ob;
  ndc::metrics::SchemeResult r = RunWith(&ob, "md", Scheme::kOracle);

  // Every candidate the machine counted appears exactly once in the log.
  ASSERT_GT(r.run.candidates, 0u);
  EXPECT_EQ(ob.decisions.entries().size(), r.run.candidates);
  std::set<std::uint64_t> uids;
  for (const DecisionEntry& e : ob.decisions.entries()) uids.insert(e.uid);
  EXPECT_EQ(uids.size(), ob.decisions.entries().size());

  // Kind tallies are consistent with the machine's own counters.
  EXPECT_EQ(ob.decisions.kind_count(DecisionKind::kOffload), r.run.offloads);
  EXPECT_EQ(ob.decisions.kind_count(DecisionKind::kLocalL1Skip), r.run.local_l1_skips);

  // Every entry is terminally resolved: offloads to success-or-fallback,
  // everything else to conventional.
  EXPECT_EQ(ob.decisions.outcome_count(Outcome::kUnresolved), 0u);
  std::uint64_t offload_outcomes = 0;
  for (const DecisionEntry& e : ob.decisions.entries()) {
    if (e.kind == DecisionKind::kOffload) {
      EXPECT_NE(e.outcome, Outcome::kConventional);
      EXPECT_NE(e.outcome, Outcome::kUnresolved);
      ++offload_outcomes;
    } else {
      EXPECT_EQ(e.outcome, Outcome::kConventional);
    }
  }
  EXPECT_EQ(offload_outcomes, r.run.offloads);
  EXPECT_EQ(ob.decisions.outcome_count(Outcome::kNdcSuccess), r.run.ndc_success);
}

TEST(ObsEndToEnd, CompiledSchemeAuditsDecisionsToo) {
  Observability ob;
  ndc::metrics::SchemeResult r = RunWith(&ob, "md", Scheme::kAlgorithm1);
  EXPECT_EQ(ob.decisions.entries().size(), r.run.candidates);
  EXPECT_EQ(ob.decisions.outcome_count(Outcome::kUnresolved), 0u);
}

TEST(ObsEndToEnd, RunCellObsSummaryStagesSumToTotalEndToEnd) {
  ndc::harness::CellSpec spec;
  spec.workload = "md";
  spec.scale = ndc::workloads::Scale::kTest;
  spec.scheme = Scheme::kOracle;
  ObsOptions opt;
  opt.max_trace_events = 0;
  Observability ob(opt);
  ndc::metrics::SchemeResult r = ndc::harness::RunSchemeAlone(spec, &ob);
  Value v = ndc::harness::CellObsSummary(spec, r.run.makespan, ob);

  const Value* stages = v.Find("stages");
  ASSERT_NE(stages, nullptr);
  std::uint64_t sum = 0;
  for (const auto& [name, entry] : stages->obj) sum += entry.Find("cycles")->AsU64();
  EXPECT_EQ(sum, v.Find("total_end_to_end_cycles")->AsU64());
  EXPECT_GT(v.Find("requests_finished")->AsU64(), 0u);
  // Every load is sampled, so each one is traced or counted as overflowed.
  EXPECT_EQ(v.Find("requests_seen")->AsU64(),
            v.Find("requests_traced")->AsU64() + v.Find("requests_overflowed")->AsU64());
  EXPECT_NE(v.Find("decisions"), nullptr);
}

}  // namespace
