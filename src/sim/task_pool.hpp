// A minimal fixed-size thread pool for fanning out independent units of
// work: the sweep engine's trial matrix (scenarios::run_sweep in
// scenarios/supervisor.hpp, behind `tracemod sweep` and the Fig. 6-8
// benches).
// Tasks must be independent of each other -- no task may block on another.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tracemod::sim {

class TaskPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit TaskPool(unsigned threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs every task on the pool and blocks until all complete.  Every
  /// task runs even when siblings throw.  If exactly one task threw, that
  /// exception is rethrown here; if several threw, a combined
  /// std::runtime_error reports the failure count and the first collected
  /// message (collection order, not submission order).  Not reentrant: a
  /// task that calls run_all on its own pool would deadlock waiting for a
  /// worker slot, so a debug assertion rejects calls from worker threads.
  void run_all(std::vector<std::function<void()>> tasks);

 private:
  void worker_main();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> pending_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tracemod::sim
