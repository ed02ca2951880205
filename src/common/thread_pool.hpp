// Fixed-size worker pool with a shared FIFO task queue, plus a bounded MPMC
// result queue.
//
// The checker's parallel layers (check_batch fan-out, the branch-parallel
// exhaustive search) are structured as "submit N independent tasks, wait for
// all of them": the pool supports exactly that shape. Tasks are void()
// callables; the first exception thrown by any task is captured and rethrown
// from wait(), so a parallel section fails as loudly as a sequential loop
// would instead of losing the error inside a worker thread.
//
// MpmcQueue complements the pool for producer/consumer shapes where the
// submitter wants results *as they complete* instead of a wait() barrier:
// workers push completion records, the caller blocks on pop() and drains them
// in completion order (check_batch's sharded scheduler is the canonical user).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace crooks {

namespace pool_detail {

/// Process-wide pool gauges/counters (all ThreadPool instances aggregate into
/// the same series — the scrape-level question is "how deep is the backlog",
/// not "which pool"). Function-local statics so header-only use stays ODR-safe.
inline obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_pool_queue_depth", "Tasks submitted but not yet started");
  return g;
}
inline obs::Gauge& inflight_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_pool_inflight", "Tasks currently executing on a pool worker");
  return g;
}
inline obs::Counter& tasks_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_pool_tasks_total", "Tasks completed by pool workers");
  return c;
}
inline obs::Histogram& task_latency_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "crooks_pool_task_seconds",
      "Task latency from submit to completion (queue wait + execution)");
  return h;
}

}  // namespace pool_detail

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) threads = default_threads();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Joins the workers. Tasks still queued (not yet started) are dropped;
  /// call wait() first if every submitted task must run.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      if (!queue_.empty()) {
        pool_detail::queue_depth_gauge().add(
            -static_cast<std::int64_t>(queue_.size()));
      }
      queue_.clear();
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  static std::size_t default_threads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<std::size_t>(hc);
  }

  /// Enqueue one task; returns immediately.
  void submit(std::function<void()> task) {
    QueuedTask qt{std::move(task), {}};
    if (obs::enabled()) qt.submitted = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
      // Counted before the task becomes visible to a worker, so the
      // worker's decrement can never land first and read negative.
      pool_detail::queue_depth_gauge().add(1);
      queue_.push_back(std::move(qt));
    }
    cv_.notify_one();
  }

  /// Tasks submitted but not yet picked up by a worker. Snapshot only — the
  /// value may be stale the moment it returns; intended for dashboards and
  /// tests, not for scheduling decisions.
  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Tasks currently executing on a worker (same snapshot caveat).
  std::size_t in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return outstanding_ - queue_.size();
  }

  /// Block until every task submitted so far has finished, then rethrow the
  /// first exception any of them raised (if any). The pool is reusable after
  /// wait() returns or throws.
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  void worker_loop() {
    for (;;) {
      QueuedTask task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and queue drained/cleared
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      pool_detail::queue_depth_gauge().add(-1);
      pool_detail::inflight_gauge().add(1);
      try {
        task.fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      pool_detail::inflight_gauge().add(-1);
      pool_detail::tasks_counter().inc();
      if (task.submitted != std::chrono::steady_clock::time_point{}) {
        pool_detail::task_latency_histogram().observe(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          task.submitted)
                .count());
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--outstanding_ == 0) idle_cv_.notify_all();
      }
    }
  }

  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point submitted;  // zero when obs is off
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;       // workers: queue non-empty or stopping
  std::condition_variable idle_cv_;  // wait(): all submitted tasks finished
  std::deque<QueuedTask> queue_;
  std::size_t outstanding_ = 0;  // queued + running
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

/// Bounded multi-producer / multi-consumer FIFO queue (Vyukov-style ring:
/// per-cell sequence numbers, one CAS per push/pop, no mutex). Producers and
/// consumers may run on any mix of threads; a blocked pop() parks on a C++20
/// atomic wait instead of spinning.
///
/// Capacity is fixed at construction (rounded up to a power of two). Sized to
/// the number of producers' total pushes — the check_batch scheduler sizes it
/// to the shard count — try_push never fails and push() never blocks; the
/// loop in push() is a safety net, not an expected path.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Number of completed pushes so far (monotone; used by pop() to park).
  std::uint64_t pushed() const { return pushed_.load(std::memory_order_acquire); }

  /// False iff the ring is full. On success the element is visible to a
  /// concurrent pop() before try_push returns. The by-value form consumes
  /// `v` either way; when the caller must retry on a full ring (the pipelined
  /// ingest's backpressure path), use try_push_ref — it moves from `v` only
  /// after a cell has been claimed, so a failed attempt leaves `v` intact.
  bool try_push(T v) { return try_push_ref(v); }

  bool try_push_ref(T& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell* cell;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // the cell still holds an unpopped element: full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    pushed_.fetch_add(1, std::memory_order_release);
    pushed_.notify_all();
    return true;
  }

  /// Blocking push: yields until a slot frees up. This IS an expected path
  /// for the pipelined ingest, whose bounded rings turn a slow consumer into
  /// backpressure on the producer instead of unbounded buffering.
  void push(T v) {
    while (!try_push_ref(v)) std::this_thread::yield();
  }

  /// Elements currently in the ring (pushed, not yet popped). Racy snapshot —
  /// the cursors are read independently — clamped to [0, capacity]; intended
  /// for queue-depth gauges, never for scheduling decisions.
  std::size_t approx_size() const {
    const auto h = static_cast<std::intptr_t>(head_.load(std::memory_order_relaxed));
    const auto t = static_cast<std::intptr_t>(tail_.load(std::memory_order_relaxed));
    const std::intptr_t d = h - t;
    if (d <= 0) return 0;
    return std::min(static_cast<std::size_t>(d), capacity());
  }

  /// False iff the queue is empty at the moment of the call.
  bool try_pop(T& out) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    Cell* cell;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // no element published at this position yet: empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Pop one element, blocking until one is available. The snapshot-then-wait
  /// shape is missed-wakeup-free: if a push lands between the failed try_pop
  /// and the wait, the pushed_ counter no longer equals the snapshot and
  /// wait() returns immediately.
  T pop() {
    T out;
    for (;;) {
      const std::uint64_t seen = pushed_.load(std::memory_order_acquire);
      if (try_pop(out)) return out;
      pushed_.wait(seen, std::memory_order_acquire);
    }
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  // Producer and consumer cursors on separate cache lines so a push CAS does
  // not invalidate the poppers' line (and vice versa).
  alignas(64) std::atomic<std::size_t> head_{0};  // next push position
  alignas(64) std::atomic<std::size_t> tail_{0};  // next pop position
  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
};

/// Run fn(i) for every i in [0, n) across `threads` workers and block until
/// all complete. threads == 0 means hardware_concurrency; threads == 1 (or
/// n <= 1) runs inline on the calling thread with no pool at all, so the
/// single-threaded path is bit-for-bit the plain loop.
inline void parallel_for_each_index(std::size_t threads, std::size_t n,
                                    const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = ThreadPool::default_threads();
  if (threads == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(threads, n));
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait();
}

}  // namespace crooks
