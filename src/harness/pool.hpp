#pragma once

// The harness scheduler: runs a plan of tasks with dependencies on a
// transient set of worker threads. Each idle worker takes the first task in
// plan order that has not started and whose dependencies have all finished,
// so the plan order is also the priority order. A sweep plans a profile's
// lowering, baseline and observation runs ahead of the cells that read them
// (RunSweep), and a plain index loop is the no-dependency case
// (ParallelFor). Tasks are coarse (milliseconds to seconds), so one mutex
// guards all scheduling state.

#include <cstddef>
#include <functional>
#include <vector>

namespace ndc::harness {

struct PlanTask {
  std::function<void()> run;
  /// Indices of the tasks that must finish before this one starts. Each
  /// must be lower than this task's own index, so plan order is a
  /// topological order and the plan cannot deadlock.
  std::vector<std::size_t> deps;
};

/// Runs every task of `plan` exactly once and returns when all have
/// finished. `jobs` <= 1 runs them inline, in plan order; otherwise
/// min(jobs, plan.size()) workers share them as described above. Tasks may
/// run on any worker; callers needing a deterministic result order index
/// into a pre-sized output.
///
/// If a task throws, no further task starts: tasks already running finish,
/// the workers are joined, and the first exception is rethrown on the
/// caller. Tasks that never started (the failed task's dependents among
/// them) are skipped.
void RunPlan(int jobs, const std::vector<PlanTask>& plan);

/// Runs fn(0..n-1) as a plan of n independent tasks.
void ParallelFor(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ndc::harness
