// Fixed-size thread pool for the verification engine.
//
// Deliberately simple: one central FIFO task queue, no work stealing. The
// engine's determinism contract (docs/PERFORMANCE.md) never depends on
// which worker runs which task — results are always written to
// caller-indexed slots and aggregated in a fixed order afterwards — so a
// plain queue is enough, and keeps the scheduling easy to reason about
// under TSan.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dvs::parallel {

/// Number of workers to use for `requested` (0 = one per hardware thread,
/// falling back to 1 when the runtime cannot tell), never more than `tasks`
/// and never fewer than 1: a pool for three seeds starts at most three
/// threads, whatever was asked for.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested,
                                       std::size_t tasks = SIZE_MAX);

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; 0 is resolved via resolve_jobs).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (wrap and capture instead) —
  /// an escaping exception would terminate the worker thread.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void wait_idle();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dvs::parallel
