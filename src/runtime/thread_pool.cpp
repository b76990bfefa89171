#include "runtime/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace collapois::runtime {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 16);
}

std::size_t resolve_thread_count(std::size_t requested) {
  return requested == 0 ? default_thread_count() : requested;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: zero threads");
  }
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A thread failed to start (e.g. EAGAIN). The destructor will not
    // run, so join the workers already started here: unwinding past a
    // joinable std::thread terminates, and past cv_ with waiters blocks.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      throw std::logic_error("ThreadPool::submit: pool is shutting down");
    }
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  Join join;  // outlives every task: the caller blocks until done == n
  for (std::size_t i = 0; i < n; ++i) {
    submit([&join, &fn, i, n] {
      std::exception_ptr err;
      try {
        fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(join.mu);
      if (err && !join.error) join.error = err;
      ++join.done;
      // Notify under the lock: the submitting thread may destroy `join`
      // the moment it observes done == n, so this must be the worker's
      // last touch of it and must happen-before the waiter's re-acquire.
      if (join.done == n) join.cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(join.mu);
  join.cv.wait(lock, [&join, n] { return join.done == n; });
  if (join.error) std::rethrow_exception(join.error);
}

}  // namespace collapois::runtime
