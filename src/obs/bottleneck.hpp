#pragma once

// Bottleneck taxonomy: utilization attribution + a DAMOV-style classifier.
//
// Attribution derives, from a run's touched-only counters plus the machine
// shape, a small vector of resource utilizations — DRAM data-bus busy
// fraction, per-MC queue occupancy (Little's law), NoC link utilization,
// core stall breakdown (mem vs compute), NDC engine busy fraction.
// The classifier maps that vector to one stable label through a fixed-order
// threshold tree, so the same counters always produce the same label, and
// the report carries both the thresholds and the full signal vector — a
// label is never published without the evidence it was derived from.
//
// The raw integer inputs are kept verbatim alongside the derived fractions
// so tests can assert, counter by counter, that a classified cell's signal
// vector reconciles with the StatSet it came from.
//
// Everything here is pure arithmetic over already-collected counters: no
// simulator state, no clock, no allocation on the hot path. See
// DESIGN.md §9 for the signal definitions and the threshold table.

#include <cstdint>
#include <string>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace ndc::obs {

/// Stable bottleneck labels. Classifier precedence (see Classify):
/// dram-bw, dram-latency, noc, compute, balanced.
enum class Label : std::uint8_t {
  kDramBw = 0,   ///< DRAM data bus saturated
  kDramLatency,  ///< long MC queues, bus not saturated
  kNoc,          ///< mesh links the constraint
  kCompute,      ///< ALUs (host or near-data) dominate
  kBalanced,     ///< no single resource past its threshold
};
inline constexpr int kNumLabels = 5;

const char* LabelName(Label l);  // "dram-bw", "dram-latency", ...

/// Machine-shape inputs the fractions are normalized by. Filled from the
/// ArchConfig by whoever ran the machine (harness cell, ndc-classify); kept
/// as plain integers so obs stays independent of src/arch.
struct MachineShape {
  std::uint64_t num_cores = 0;
  std::uint64_t num_mcs = 0;
  std::uint64_t num_links = 0;        ///< directed mesh links
  std::uint64_t dram_data_beat = 0;   ///< data-bus occupancy per access
  std::uint64_t compute_latency = 0;  ///< per-op ALU cost
};

/// The full signal vector: raw touched-only counter inputs exactly as read
/// from the StatSet, plus the fractions derived from them.
struct UtilizationSignals {
  // --- raw inputs (StatSet values, 0 when the key was never touched) ---
  std::uint64_t makespan = 0;
  std::uint64_t mc_reads = 0;
  std::uint64_t mc_writes = 0;
  std::uint64_t mc_queue_wait_cycles = 0;
  std::uint64_t mc_row_hits = 0;
  std::uint64_t mc_row_misses = 0;
  std::uint64_t noc_link_busy_cycles = 0;
  std::uint64_t noc_contention_cycles = 0;
  std::uint64_t ndc_success = 0;
  std::uint64_t core_stall_mem = 0;     ///< present only when stall tracking on
  std::uint64_t core_busy_compute = 0;  ///< present only when stall tracking on
  MachineShape shape;

  // --- derived utilizations ---
  double dram_bw_frac = 0.0;      ///< accesses*beat / (mcs * makespan)
  double mc_queue_occ = 0.0;      ///< avg requests queued per MC (Little)
  double avg_queue_wait = 0.0;    ///< queue-wait cycles per DRAM access
  double row_miss_ratio = 0.0;    ///< row misses / (hits + misses)
  double noc_util = 0.0;          ///< link-busy / (links * makespan)
  double noc_max_link_util = 0.0; ///< hottest link (registry refinement)
  double ndc_busy_frac = 0.0;     ///< success*latency / makespan
  double compute_frac = 0.0;      ///< core compute busy / (cores * makespan)
  double mem_stall_frac = 0.0;    ///< core mem stall / (cores * makespan)
};

/// Classifier thresholds. Defaults are the DESIGN.md §9 table; every report
/// serializes the thresholds it classified under.
struct ClassifierThresholds {
  double dram_bw = 0.50;        ///< dram_bw_frac at/above => dram-bw
  double dram_queue_wait = 25.0;///< avg_queue_wait at/above => dram-latency
  double noc = 0.35;            ///< max(noc_util, noc_max_link_util) => noc
  double compute = 0.40;        ///< compute_frac + ndc_busy_frac => compute
};

/// Reads the raw counters out of `st` and derives the fractions. Keys that
/// were never touched read as 0 and contribute 0.
UtilizationSignals ComputeSignals(const sim::StatSet& st, sim::Cycle makespan,
                                  const MachineShape& shape);

/// Refines noc_max_link_util from per-link busy counters when available
/// (pass the max over "noc.link.<id>/busy_cycles" registry values).
void RefineMaxLinkBusy(UtilizationSignals& s, std::uint64_t max_link_busy_cycles);

/// Fixed-order threshold tree; deterministic for a given (signals,
/// thresholds) pair.
Label Classify(const UtilizationSignals& s, const ClassifierThresholds& t = {});

/// Byte-stable fraction rendering shared by every report surface
/// (fixed %.4f — no locale, no shortest-round-trip variance).
std::string FormatFrac(double v);

/// One-line text rendering of the signal vector (diagnostics, CLI table).
std::string SignalsToText(const UtilizationSignals& s);

}  // namespace ndc::obs
