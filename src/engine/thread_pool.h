// Fixed-size worker pool fed by a bounded work queue, plus TaskGroup: the
// tasks of one run on a pool that other runs share.
//
// A pool is meant to live as long as its owner (a ParallelEngine, and so a
// whole ServiceServer) and serve every run on it; runs complete through
// their own TaskGroup count, never by waiting for the whole pool.
//
// submit() applies backpressure: it blocks until a queue slot frees up, so
// a fast producer cannot buffer an unbounded number of pending tasks.
// Tasks must not throw — the engine wraps its chunk work in try/catch and
// records the first exception itself, because a task failure must not tear
// down the pool while sibling chunks are still in flight. The one sanctioned
// exception is WorkerCrash: a task that throws it takes its worker thread
// down with it (modeling a crashed worker), which the pool survives — the
// remaining workers keep draining the queue, and alive() reports how many
// are left so callers can fall back to inline execution once the pool has
// collapsed. A long-lived owner calls respawn_crashed() between runs so a
// crash does not shrink the pool for good.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/types.h"
#include "engine/bounded_queue.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace ceresz::engine {

/// Thrown by a task to kill the worker executing it (fault injection and
/// genuinely unrecoverable per-thread state). The pool counts the crash and
/// carries on with one fewer worker; the task itself is considered finished
/// (failed) — record any per-task outcome before throwing.
class WorkerCrash : public std::exception {
 public:
  const char* what() const noexcept override {
    return "worker thread crashed";
  }
};

class ThreadPool {
 public:
  /// `threads` must be >= 1. `queue_capacity` bounds the number of
  /// submitted-but-not-started tasks (0 picks 2 * threads). A non-null
  /// `tracer` names the worker threads and records per-task busy spans
  /// and a "pool.queue_depth" counter track; it must outlive the pool.
  explicit ThreadPool(u32 threads, std::size_t queue_capacity = 0,
                      obs::Tracer* tracer = nullptr);

  /// Joins the workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task, blocking while the queue is full. Must not be called
  /// after the destructor has begun. Unsafe once the pool may have
  /// collapsed (alive() == 0): nothing would ever free a queue slot — use
  /// try_submit() + run_one_inline() there.
  ///
  /// The submitter's ambient obs::TraceContext is captured with the task
  /// and re-installed around its execution (worker or inline), so spans
  /// recorded inside pool tasks stay attributed to the request that
  /// submitted them.
  void submit(std::function<void()> task);

  /// Non-blocking submit: false when the queue is full (caller should run
  /// a queued task inline or wait and retry).
  bool try_submit(std::function<void()> task);

  /// Pop one queued task and execute it on the calling thread (with a
  /// "task" span, as on a worker). Returns false when the queue was
  /// empty. A WorkerCrash thrown by the task is swallowed (the "worker"
  /// is the borrowed caller; there is no thread to kill). This is how
  /// callers drain the queue after the pool collapses — and how they make
  /// progress while it is merely saturated.
  bool run_one_inline();

  /// Block until every submitted task has finished executing. Do not call
  /// when the pool may have collapsed with tasks still queued — drain via
  /// run_one_inline() first.
  void wait_idle();

  u32 size() const { return threads_; }

  /// The calling thread's worker index in this pool, or nullopt when the
  /// caller is not one of its workers (e.g. a thread running a task via
  /// run_one_inline()).
  std::optional<u32> current_worker() const;

  /// Replace every worker lost to WorkerCrash with a fresh thread, so
  /// alive() is back to size(). Returns how many were replaced. Safe to
  /// call while other threads submit and run tasks, but not concurrently
  /// with the destructor.
  u32 respawn_crashed();

  /// Workers still running (not crashed). 0 = the pool has collapsed.
  u32 alive() const { return alive_.load(std::memory_order_acquire); }

  /// Workers lost to WorkerCrash so far.
  u32 crashed_workers() const {
    return crashed_.load(std::memory_order_acquire);
  }

  /// Tasks queued but not yet started.
  std::size_t queue_depth() const { return queue_.depth(); }

  /// Seconds each worker spent executing tasks. Call only while idle
  /// (after wait_idle() or from the destructor's thread post-join).
  std::vector<f64> busy_seconds() const;

  /// Largest backlog the work queue ever reached.
  std::size_t queue_high_water() const { return queue_.high_water(); }

  std::size_t queue_capacity() const { return queue_.capacity(); }

 private:
  /// A queued task plus the trace context active where it was submitted.
  struct PoolTask {
    std::function<void()> fn;
    obs::TraceContext ctx;
  };

  void worker_loop(u32 index);

  obs::Tracer* tracer_ = nullptr;  // set before workers start, then const
  const u32 threads_;
  BoundedQueue<PoolTask> queue_;
  std::mutex spawn_mutex_;  // serializes respawn_crashed()
  std::vector<std::thread> workers_;
  std::vector<f64> busy_seconds_;  // one slot per worker, owner-written
  std::vector<bool> exited_;       // crashed workers awaiting respawn
  std::atomic<u32> alive_{0};
  std::atomic<u32> crashed_{0};

  // in_flight_ counts submitted-but-unfinished tasks; idle_ fires when it
  // reaches zero. The mutex also orders busy_seconds_ writes (made before
  // the finishing decrement) with reads after wait_idle(), and guards
  // exited_.
  mutable std::mutex state_mutex_;
  std::condition_variable idle_;
  u64 in_flight_ = 0;
};

/// The tasks one run submits to a pool that other runs may share.
///
/// The group completes through its own count: wait() returns once this
/// group's tasks have finished, whatever else the pool is doing. The
/// waiting thread is not idle — while the queue is full (submit) or this
/// group still has work pending (wait), it runs queued tasks itself via
/// run_one_inline(), whichever run they belong to. So a one-task group
/// usually runs entirely on the caller, and a pool whose workers have
/// all crashed still drains.
///
/// Accounting is per group: busy_seconds(), inline_busy_seconds() and
/// queue_high_water() cover only this group's tasks.
///
/// One thread submits and waits; tasks must not throw (WorkerCrash
/// aside, as for ThreadPool). The destructor waits for pending tasks.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Queue `task` on the pool. While the queue is full, runs queued
  /// tasks inline instead of blocking, so it cannot deadlock on a
  /// collapsed pool.
  void submit(std::function<void()> task);

  /// Run queued tasks inline until every task submitted to this group
  /// has finished.
  void wait();

  ThreadPool& pool() const { return pool_; }

  /// Seconds each pool worker spent running this group's tasks. Read
  /// after wait().
  std::vector<f64> busy_seconds() const;

  /// Seconds threads outside the pool (this group's caller, or another
  /// group's caller helping) spent running this group's tasks. Read
  /// after wait().
  f64 inline_busy_seconds() const;

  /// Largest number of this group's tasks queued at once.
  u64 queue_high_water() const { return high_water_; }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable done;
    u64 pending = 0;         // submitted, not finished
    std::vector<f64> busy;   // per pool worker
    f64 inline_busy = 0.0;   // threads outside the pool
    std::atomic<u64> queued{0};  // submitted, not started
  };

  ThreadPool& pool_;
  // Shared with every task: a task's final notify can still be running
  // when wait() returns and the group is destroyed.
  std::shared_ptr<State> state_;
  u64 high_water_ = 0;  // submitting thread only
};

}  // namespace ceresz::engine
