#include "netemu/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace netemu {

namespace {

// Helper tasks beyond the machine's core count only add context-switch and
// cache-thrash overhead: the loops below are CPU-bound, so once every core
// has a runnable thread, extra helpers make the work slower, not faster (a
// pool sized for 8 workers on a 1-core box used to run estimate trials ~10%
// slower than a serial loop).  hardware_concurrency() may report 0
// ("unknown"); treat that as "no cap".
std::size_t hardware_cap(std::size_t want, std::size_t reserved) {
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) return want;
  const std::size_t cap = hw > reserved ? hw - reserved : 0;
  return std::min(want, cap);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  // Workers only exit once the queue is empty (see worker_loop), so joining
  // here deterministically drains every task accepted before stopping_ flipped.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return false;
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::pending() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

std::uint64_t ThreadPool::dropped_exceptions() const {
  std::lock_guard lock(mutex_);
  return dropped_exceptions_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    bool threw = false;
    try {
      task();
    } catch (...) {
      // An escaping exception would std::terminate the whole process; a
      // daemon's pool swallows it and counts it instead (see header).
      threw = true;
    }
    {
      std::lock_guard lock(mutex_);
      if (threw) ++dropped_exceptions_;
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // The caller blocks in wait_idle() rather than participating, so all hw
  // cores are available to workers (reserved = 0).
  const std::size_t slots =
      hardware_cap(std::min(total, workers_.size()), 0);
  if (slots <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::size_t chunk = (total + slots - 1) / slots;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t lo = begin + s * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    const bool accepted = submit([lo, hi, &fn, &first_error, &error_mutex] {
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
    if (!accepted) {
      // Pool is shutting down: fall back to the calling thread so the loop
      // still covers the full range.
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }
  }
  wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::for_n(std::size_t count,
                       const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // The caller runs index 0 and then work() itself, occupying one core;
  // helpers beyond the remaining cores would only be oversubscription
  // (reserved = 1).  Results are collected by index, so the helper count
  // never affects the output — only the wall clock.
  const std::size_t helpers =
      hardware_cap(std::min(count - 1, workers_.size()), 1);
  if (count == 1 || helpers == 0) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  struct Shared {
    std::function<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{1};  // index 0 belongs to the caller
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  // first one wins; guarded by mutex
  };
  auto shared = std::make_shared<Shared>();
  shared->fn = fn;
  shared->count = count;

  // Helpers hold the state by shared_ptr: one that only gets scheduled after
  // the caller already finished the loop claims an out-of-range index and
  // exits without touching anything else.
  const auto run = [](Shared& s, std::size_t i) {
    try {
      s.fn(i);
    } catch (...) {
      std::lock_guard lock(s.mutex);
      if (!s.error) s.error = std::current_exception();
    }
    if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == s.count) {
      std::lock_guard lock(s.mutex);  // pairs with the caller's wait
      s.cv.notify_all();
    }
  };
  auto work = [shared, run] {
    for (;;) {
      const std::size_t i =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shared->count) return;
      run(*shared, i);
    }
  };

  for (std::size_t h = 0; h < helpers; ++h) {
    if (!submit(work)) break;  // shutting down: the caller covers the rest
  }
  run(*shared, 0);
  work();
  {
    std::unique_lock lock(shared->mutex);
    shared->cv.wait(lock, [&] {
      return shared->done.load(std::memory_order_acquire) == shared->count;
    });
    if (shared->error) std::rethrow_exception(shared->error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace netemu
