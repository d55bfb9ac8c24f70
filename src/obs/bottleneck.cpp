#include "obs/bottleneck.hpp"

#include <cstdio>

namespace ndc::obs {
namespace {

double Frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

const char* LabelName(Label l) {
  switch (l) {
    case Label::kDramBw: return "dram-bw";
    case Label::kDramLatency: return "dram-latency";
    case Label::kNoc: return "noc";
    case Label::kCompute: return "compute";
    case Label::kBalanced: return "balanced";
  }
  return "?";
}

UtilizationSignals ComputeSignals(const sim::StatSet& st, sim::Cycle makespan,
                                  const MachineShape& shape) {
  UtilizationSignals s;
  s.makespan = makespan;
  s.shape = shape;
  s.mc_reads = st.Get("mc.reads");
  s.mc_writes = st.Get("mc.writes");
  s.mc_queue_wait_cycles = st.Get("mc.queue_wait_cycles");
  s.mc_row_hits = st.Get("mc.row_hits");
  s.mc_row_misses = st.Get("mc.row_misses");
  s.noc_link_busy_cycles = st.Get("noc.link_busy_cycles");
  s.noc_contention_cycles = st.Get("noc.contention_cycles");
  s.ndc_success = st.Get("ndc.success");
  s.core_stall_mem = st.Get("core.stall.mem");
  s.core_busy_compute = st.Get("core.busy.compute");

  const std::uint64_t accesses = s.mc_reads + s.mc_writes;
  s.dram_bw_frac = Frac(accesses * shape.dram_data_beat, shape.num_mcs * makespan);
  s.mc_queue_occ = Frac(s.mc_queue_wait_cycles, shape.num_mcs * makespan);
  s.avg_queue_wait = Frac(s.mc_queue_wait_cycles, accesses);
  s.row_miss_ratio = Frac(s.mc_row_misses, s.mc_row_hits + s.mc_row_misses);
  s.noc_util = Frac(s.noc_link_busy_cycles, shape.num_links * makespan);
  s.noc_max_link_util = s.noc_util;  // refined when per-link counters exist
  s.ndc_busy_frac = Frac(s.ndc_success * shape.compute_latency, makespan);
  s.compute_frac = Frac(s.core_busy_compute, shape.num_cores * makespan);
  s.mem_stall_frac = Frac(s.core_stall_mem, shape.num_cores * makespan);
  return s;
}

void RefineMaxLinkBusy(UtilizationSignals& s, std::uint64_t max_link_busy_cycles) {
  double u = Frac(max_link_busy_cycles, s.makespan);
  if (u > s.noc_max_link_util) s.noc_max_link_util = u;
}

Label Classify(const UtilizationSignals& s, const ClassifierThresholds& t) {
  // Fixed precedence. Data-bus saturation is the least ambiguous signal, so
  // it wins outright. Queue wait then outranks raw link utilization — a hot
  // link feeding an overloaded MC shows up in both, and the deeper queue is
  // the root cause.
  if (s.dram_bw_frac >= t.dram_bw) return Label::kDramBw;
  if (s.avg_queue_wait >= t.dram_queue_wait) return Label::kDramLatency;
  double noc = s.noc_max_link_util > s.noc_util ? s.noc_max_link_util : s.noc_util;
  if (noc >= t.noc) return Label::kNoc;
  if (s.compute_frac + s.ndc_busy_frac >= t.compute) return Label::kCompute;
  return Label::kBalanced;
}

std::string FormatFrac(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

std::string SignalsToText(const UtilizationSignals& s) {
  std::string out;
  out += "bw=" + FormatFrac(s.dram_bw_frac);
  out += " qwait=" + FormatFrac(s.avg_queue_wait);
  out += " qocc=" + FormatFrac(s.mc_queue_occ);
  out += " noc=" + FormatFrac(s.noc_util);
  out += " noc_max=" + FormatFrac(s.noc_max_link_util);
  out += " ndc=" + FormatFrac(s.ndc_busy_frac);
  out += " compute=" + FormatFrac(s.compute_frac);
  out += " memstall=" + FormatFrac(s.mem_stall_frac);
  return out;
}

}  // namespace ndc::obs
