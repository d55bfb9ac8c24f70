#include "harness/pool.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace ndc::harness {

void RunPlan(int jobs, const std::vector<PlanTask>& plan) {
  const std::size_t n = plan.size();
  if (jobs <= 1 || n <= 1) {
    for (const PlanTask& t : plan) t.run();
    return;
  }
  std::vector<std::size_t> waiting(n);  // unfinished dependencies per task
  std::vector<std::vector<std::size_t>> dependents(n);
  for (std::size_t i = 0; i < n; ++i) {
    waiting[i] = plan[i].deps.size();
    for (std::size_t d : plan[i].deps) {
      assert(d < i && "a task may only depend on earlier tasks");
      dependents[d].push_back(i);
    }
  }
  std::mutex mu;  // guards waiting, started, first and error
  std::condition_variable cv;
  std::vector<bool> started(n, false);
  std::size_t first = 0;  // every task before `first` has started
  std::exception_ptr error;  // the first task exception; stops scheduling

  // The first task in plan order that has not started and whose
  // dependencies have finished, or n if there is none. Needs `mu`.
  auto next_ready = [&] {
    while (first < n && started[first]) ++first;
    std::size_t i = first;
    while (i < n && (started[i] || waiting[i] != 0)) ++i;
    return i;
  };

  auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      // While nothing is ready, the first unstarted task waits on running
      // ones (every earlier task has started), so a finish wakes us.
      std::size_t pick = n;
      cv.wait(lock, [&] {
        if (error) return true;
        pick = next_ready();
        return pick < n || first == n;
      });
      // Stop when a task failed, or when all have started (the rest finish
      // on other workers).
      if (error || pick == n) return;
      started[pick] = true;
      lock.unlock();
      std::exception_ptr failed;
      try {
        plan[pick].run();
      } catch (...) {
        failed = std::current_exception();
      }
      lock.lock();
      if (failed) {
        // The failed task's dependents never become ready: wake every idle
        // worker so it stops instead of waiting on them.
        if (!error) error = failed;
        cv.notify_all();
        return;
      }
      for (std::size_t d : dependents[pick]) --waiting[d];
      if (!dependents[pick].empty()) cv.notify_all();
    }
  };

  std::vector<std::thread> workers;
  std::size_t num = std::min(static_cast<std::size_t>(jobs), n);
  workers.reserve(num);
  for (std::size_t w = 0; w < num; ++w) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ndc::harness
