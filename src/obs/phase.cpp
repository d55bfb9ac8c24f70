#include "obs/phase.hpp"

#include <cstdio>

namespace ndc::obs {

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kBuildWorkload: return "build_workload";
    case Phase::kLowerTraces: return "lower_traces";
    case Phase::kCompile: return "compile";
    case Phase::kSimulate: return "simulate";
  }
  return "?";
}

std::map<std::string, std::uint64_t> PhaseProfiler::Snapshot::DeltaMsSince(
    const Snapshot& base) const {
  std::map<std::string, std::uint64_t> out;
  for (int i = 0; i < kNumPhases; ++i) {
    std::uint64_t d = ns[i] - base.ns[i];
    if (d == 0 && count[i] == base.count[i]) continue;
    out[PhaseName(static_cast<Phase>(i))] = d / 1000000;
  }
  return out;
}

std::string PhaseProfiler::ToText() const {
  std::string out;
  char line[96];
  std::snprintf(line, sizeof(line), "%-16s %10s %8s\n", "phase", "ms", "scopes");
  out += line;
  for (int i = 0; i < kNumPhases; ++i) {
    std::uint64_t c = count(static_cast<Phase>(i));
    if (c == 0) continue;
    std::snprintf(line, sizeof(line), "%-16s %10.1f %8llu\n",
                  PhaseName(static_cast<Phase>(i)),
                  static_cast<double>(ns(static_cast<Phase>(i))) / 1e6,
                  static_cast<unsigned long long>(c));
    out += line;
  }
  return out;
}

PhaseProfiler& GlobalPhases() {
  static PhaseProfiler g;
  return g;
}

}  // namespace ndc::obs
