#pragma once
// A minimal work-stealing-free thread pool with a parallel_for helper.
//
// netemu's expensive kernels (all-pairs BFS witnesses, repeated routing
// trials, Kernighan–Lin restarts) are embarrassingly parallel over an index
// range, so a static block-cyclic parallel_for is all we need.  Tasks must
// not throw across the pool boundary; exceptions are rethrown on the calling
// thread after the loop completes (first one wins).
//
// Shutdown contract (the service daemon depends on it): shutdown() — and the
// destructor, which calls it — DRAINS every task already accepted, then
// joins the workers.  submit() after shutdown has begun is rejected (returns
// false) rather than enqueued, so no task can be silently dropped and no
// wait_idle() caller can hang on a task nobody will run.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace netemu {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Submit a task; returns immediately.  Returns false (and discards the
  /// task) if shutdown has already begun.
  bool submit(std::function<void()> task);

  /// Tasks submitted but not yet finished (queued + running).
  std::size_t pending() const;

  /// Tasks whose exception escaped to the pool boundary.  Such exceptions
  /// are swallowed (and counted) rather than terminating the process — a
  /// long-running daemon must survive a buggy task.  parallel_for has its
  /// own rethrow path and never increments this.
  std::uint64_t dropped_exceptions() const;

  /// Block until all submitted tasks have finished.
  void wait_idle();

  /// Begin shutdown: reject new submissions, drain every accepted task, then
  /// join the workers.  Idempotent; called by the destructor.
  void shutdown();

  /// Run fn(i) for i in [begin, end) across the pool, blocking until done.
  /// Indices are split into contiguous blocks, one per worker slot, which is
  /// the right shape for cache-friendly per-vertex loops.
  ///
  /// NOT safe to call from inside a pool task: it waits for the whole pool
  /// to go idle, which includes the calling task itself.  Use for_n there.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Collaborative indexed loop: run fn(i) for i in [0, count), claiming
  /// indices from a shared atomic counter.  Contract:
  ///  * the CALLER always runs index 0 itself, first, and only then helps
  ///    claim the rest — a caller whose index 0 finishes work it already
  ///    started (measure_throughput's final calibration step) never has a
  ///    helper take it over while the caller starts something else;
  ///  * the caller participates to the end, so unlike parallel_for this is
  ///    safe (and deadlock-free) when invoked from inside a pool task, even
  ///    when every worker is busy: the caller simply runs everything;
  ///  * helper tasks are submitted best-effort; idle workers pick indices
  ///    up as they free;
  ///  * the first exception thrown by fn (index 0's included) is rethrown on
  ///    the caller only after every claimed index has finished — no index
  ///    is still running when for_n returns or throws.
  void for_n(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  std::uint64_t dropped_exceptions_ = 0;
  bool stopping_ = false;
};

}  // namespace netemu
