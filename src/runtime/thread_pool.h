// Deterministic parallel runtime for the simulator.
//
// A fixed-size worker pool plus structured fork-join helpers
// (runtime/parallel.h). The design constraint, inherited from the
// checkpoint/resume guarantee (sim/checkpoint.h), is that parallelism must
// never change results: callers address work by INDEX and the helpers
// collect results by index, so every reduction downstream sees the same
// operands in the same order for any pool size — including no pool at all.
// Threads buy wall-clock, nothing else.
//
// Scope: one pool per experiment, created in sim::run_experiment and
// threaded (non-owning) into the round loop and the client evaluation
// sweep. Tasks are coarse — one client's local training or evaluation,
// milliseconds each — so the queue is a plain mutex-guarded deque; no
// work stealing, no lock-free cleverness to audit under TSan.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace collapois::runtime {

// hardware_concurrency clamped to [1, 16] (0 from the runtime is treated
// as 1). The upper clamp keeps the default sane on large shared boxes;
// callers that want more ask for it explicitly.
std::size_t default_thread_count();

// Map a user-requested thread count to an effective one: 0 means "auto"
// (default_thread_count()); anything else is taken literally.
std::size_t resolve_thread_count(std::size_t requested);

// Fixed-size thread pool with a FIFO task queue.
//
// Exceptions: raw submit()ed tasks must not throw (std::terminate
// otherwise, as with any detached thread) — use parallel_for, which
// captures the first exception thrown by any task and rethrows it in the
// submitting thread after the join.
//
// Nesting: parallel_for must not be called from inside a pool task; the
// submitting thread blocks until all tasks drain, so a nested call from a
// saturated pool deadlocks. The simulator's usage (round loop and eval
// sweep fan out; client code below never spawns) respects this.
class ThreadPool {
 public:
  // Throws std::invalid_argument for zero threads, and std::system_error
  // if a worker cannot start (after joining the ones that did).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task for execution on some worker thread.
  void submit(std::function<void()> task);

  // Run fn(i) for every i in [0, n) across the workers and block until
  // all complete. The first exception thrown by any task (first in
  // completion order) is rethrown here; remaining tasks still run, so the
  // pool is reusable after a throw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void stop_and_join();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace collapois::runtime
