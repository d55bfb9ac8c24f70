// ndc-perfbench: runs one benchmark workload against the ndc library's public
// entry points and prints its metrics, correctness tally and result digest.
//
//   ndc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --golden FILE --work-dir DIR
//
// Normally started by perfbench/run.py, which builds it and turns the lines
// printed here into the benchmark's JSON result.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "harness/figures.hpp"
#include "report.hpp"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
  }
}

void Report::Digest(const std::string& canonical) {
  for (unsigned char c : canonical) {
    digest_ ^= c;
    digest_ *= 1099511628211ull;
  }
  digest_ ^= '\n';
  digest_ *= 1099511628211ull;
  ++digested_;
}

void Report::Print() const {
  for (const Entry& m : metrics_) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("digest %016llx %llu\n", static_cast<unsigned long long>(digest_),
              static_cast<unsigned long long>(digested_));
  std::printf("checks %llu %llu\n", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
}

std::uint64_t ModelTotals::Stat(const std::string& name) const {
  auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second;
}

void ModelTotals::Emit(Report& report) const {
  auto count = [&](const char* name, std::uint64_t v) {
    report.Metric(name, static_cast<double>(v), "count");
  };
  auto cycles = [&](const char* name, std::uint64_t v) {
    report.Metric(name, static_cast<double>(v), "cycles");
  };
  cycles("sim.makespan_cycles", makespan);
  count("ndc.offloads", offloads);
  if (offloads > 0) report.Metric("ndc.success_frac", Ratio(ndc_success, offloads), "frac");
  count("ndc.timeouts", Stat("ndc.abort.timeout"));
  if (stats.count("core.issued") != 0) count("core.issued", Stat("core.issued"));
  count("noc.packets", Stat("noc.packets"));
  cycles("noc.contention_cycles", Stat("noc.contention_cycles"));
  cycles("noc.link_busy_cycles", Stat("noc.link_busy_cycles"));
  report.Metric("l1.miss_rate", Ratio(l1_misses, l1_hits + l1_misses), "frac");
  report.Metric("l2.miss_rate", Ratio(l2_misses, l2_hits + l2_misses), "frac");
  count("mc.reads", Stat("mc.reads"));
  cycles("mc.queue_wait_cycles", Stat("mc.queue_wait_cycles"));
  std::uint64_t hits = Stat("mc.row_hits");
  report.Metric("mc.row_hit_rate", Ratio(hits, hits + Stat("mc.row_misses")), "frac");
}

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  out->assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  return true;
}

/// Regenerates the Figure-4 table at test scale (seed 1, the golden's
/// settings) with stdout captured to a file, and compares it byte for byte
/// with the committed golden.
bool Fig04MatchesGolden(const Options& opt) {
  std::string captured = opt.work_dir + "/fig04.scale-test.stdout";
  std::fflush(stdout);
  int saved = dup(STDOUT_FILENO);
  int fd = open(captured.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (saved < 0 || fd < 0) {
    std::fprintf(stderr, "cannot capture stdout to %s\n", captured.c_str());
    if (saved >= 0) close(saved);
    if (fd >= 0) close(fd);
    return false;
  }
  dup2(fd, STDOUT_FILENO);
  close(fd);
  ndc::harness::FigureOptions fo;
  fo.scale = ndc::workloads::Scale::kTest;
  fo.jobs = kSweepJobs;
  fo.use_cache = false;
  int rc = ndc::harness::RunFigure("fig04", fo);
  std::fflush(stdout);
  dup2(saved, STDOUT_FILENO);
  close(saved);
  std::string got, want;
  if (!ReadFile(captured, &got) || !ReadFile(opt.golden, &want)) {
    std::fprintf(stderr, "cannot read %s or %s\n", captured.c_str(), opt.golden.c_str());
    return false;
  }
  return rc == 0 && got == want;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Usage() {
  std::fprintf(stderr,
               "usage: ndc-perfbench --workload sweep_fig04|sim_baseline|sim_offload\n"
               "         --seed N --seconds S --trace 0|1 --golden FILE --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (argc % 2 == 0) return Usage();  // options come in --name value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--golden") {
      opt.golden = v;
    } else if (k == "--work-dir") {
      opt.work_dir = v;
    } else {
      return Usage();
    }
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "sweep_fig04") run = &RunSweepFig04;
  if (opt.workload == "sim_baseline") run = &RunSimBaseline;
  if (opt.workload == "sim_offload") run = &RunSimOffload;
  if (run == nullptr || opt.golden.empty() || opt.work_dir.empty() || opt.seconds <= 0) {
    return Usage();
  }

  Report report;
  // Off the clock: the model still reproduces the committed Figure-4 table.
  report.Attempt(Fig04MatchesGolden(opt), "fig04 at test scale differs from " + opt.golden);
  run(opt, report);
  if (!opt.trace) report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Print();
  return 0;
}
