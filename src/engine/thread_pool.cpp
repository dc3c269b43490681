#include "engine/thread_pool.h"

#include <algorithm>
#include <string>

#include "common/timer.h"

namespace ceresz::engine {

namespace {

// Which pool (if any) the calling thread works for, and its index there.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local u32 tl_worker = 0;

}  // namespace

ThreadPool::ThreadPool(u32 threads, std::size_t queue_capacity,
                       obs::Tracer* tracer)
    : tracer_(tracer),
      threads_(threads),
      queue_(queue_capacity > 0 ? queue_capacity
                                : 2 * std::max<u32>(1, threads)) {
  CERESZ_CHECK(threads >= 1, "ThreadPool: need at least one worker");
  busy_seconds_.assign(threads, 0.0);
  exited_.assign(threads, false);
  alive_.store(threads, std::memory_order_release);
  workers_.reserve(threads);
  for (u32 i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(state_mutex_);
    ++in_flight_;
  }
  if (!queue_.push(
          PoolTask{std::move(task), obs::current_trace_context()})) {
    // Closed pool: roll the count back so wait_idle() cannot hang.
    std::lock_guard lock(state_mutex_);
    --in_flight_;
    CERESZ_FAIL("ThreadPool: submit after shutdown");
  }
  if (tracer_) {
    tracer_->counter("pool.queue_depth",
                     static_cast<i64>(queue_.depth()));
  }
}

bool ThreadPool::try_submit(std::function<void()> task) {
  {
    std::lock_guard lock(state_mutex_);
    ++in_flight_;
  }
  if (!queue_.try_push(
          PoolTask{std::move(task), obs::current_trace_context()})) {
    std::lock_guard lock(state_mutex_);
    if (--in_flight_ == 0) idle_.notify_all();
    return false;
  }
  if (tracer_) {
    tracer_->counter("pool.queue_depth",
                     static_cast<i64>(queue_.depth()));
  }
  return true;
}

bool ThreadPool::run_one_inline() {
  auto task = queue_.try_pop();
  if (!task) return false;
  {
    const obs::TraceContextScope scope(task->ctx);
    obs::SpanGuard span(tracer_, "task", "pool");
    try {
      (task->fn)();
    } catch (const WorkerCrash&) {
      // The caller's thread is only borrowed; a crash here kills nothing.
    }
  }
  std::lock_guard lock(state_mutex_);
  if (--in_flight_ == 0) idle_.notify_all();
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(state_mutex_);
  idle_.wait(lock, [&] { return in_flight_ == 0; });
}

std::vector<f64> ThreadPool::busy_seconds() const {
  std::lock_guard lock(state_mutex_);
  return busy_seconds_;
}

std::optional<u32> ThreadPool::current_worker() const {
  if (tl_pool != this) return std::nullopt;
  return tl_worker;
}

u32 ThreadPool::respawn_crashed() {
  if (alive() == size()) return 0;
  std::lock_guard spawn_lock(spawn_mutex_);
  std::vector<u32> dead;
  {
    std::lock_guard lock(state_mutex_);
    for (u32 i = 0; i < threads_; ++i) {
      if (exited_[i]) {
        exited_[i] = false;
        dead.push_back(i);
      }
    }
  }
  for (const u32 i : dead) {
    workers_[i].join();
    alive_.fetch_add(1, std::memory_order_acq_rel);
    workers_[i] = std::thread([this, i] { worker_loop(i); });
  }
  return static_cast<u32>(dead.size());
}

void ThreadPool::worker_loop(u32 index) {
  tl_pool = this;
  tl_worker = index;
  // Only the name is recorded for the thread itself: an idle worker's
  // lifetime is not busy time, and the task spans below cover the rest.
  if (tracer_) {
    tracer_->set_thread_name(obs::kHostPid, tracer_->thread_id(),
                             "worker-" + std::to_string(index));
  }
  while (auto task = queue_.pop()) {
    if (tracer_) {
      tracer_->counter("pool.queue_depth",
                       static_cast<i64>(queue_.depth()));
    }
    const u64 start_ns = now_ns();
    bool crashed = false;
    {
      // The submitter's trace context wraps the busy span too, so the
      // "task" wrapper itself carries the request's trace id.
      const obs::TraceContextScope scope(task->ctx);
      // The busy span and busy_seconds_ bracket the same region, so the
      // trace's task spans account for (cover) the measured busy time.
      obs::SpanGuard span(tracer_, "task", "pool");
      try {
        (task->fn)();
      } catch (const WorkerCrash&) {
        crashed = true;
      }
    }
    const f64 elapsed = static_cast<f64>(now_ns() - start_ns) * 1e-9;
    {
      std::lock_guard lock(state_mutex_);
      busy_seconds_[index] += elapsed;
      if (--in_flight_ == 0) idle_.notify_all();
    }
    if (crashed) {
      if (tracer_) tracer_->instant("worker.crash", "pool");
      crashed_.fetch_add(1, std::memory_order_acq_rel);
      alive_.fetch_sub(1, std::memory_order_acq_rel);
      std::lock_guard lock(state_mutex_);
      exited_[index] = true;
      return;  // this worker is gone; survivors keep draining the queue
    }
  }
}

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), state_(std::make_shared<State>()) {
  state_->busy.assign(pool.size(), 0.0);
}

TaskGroup::~TaskGroup() { wait(); }

void TaskGroup::submit(std::function<void()> task) {
  {
    std::lock_guard lock(state_->mu);
    ++state_->pending;
  }
  std::function<void()> wrapped = [state = state_, &pool = pool_,
                                   fn = std::move(task)] {
    state->queued.fetch_sub(1, std::memory_order_relaxed);
    // Busy time and the completion are booked on every exit, including a
    // WorkerCrash unwinding into the pool.
    struct Book {
      State& st;
      const ThreadPool& pool;
      u64 start_ns;
      ~Book() {
        const f64 seconds = static_cast<f64>(now_ns() - start_ns) * 1e-9;
        const std::optional<u32> worker = pool.current_worker();
        std::lock_guard lock(st.mu);
        (worker ? st.busy[*worker] : st.inline_busy) += seconds;
        if (--st.pending == 0) st.done.notify_all();
      }
    } book{*state, pool, now_ns()};
    fn();
  };
  for (;;) {
    const u64 depth =
        state_->queued.fetch_add(1, std::memory_order_relaxed) + 1;
    if (pool_.try_submit(wrapped)) {
      // `depth` can count a task a worker has popped but not yet started;
      // the queue itself never holds more than its capacity.
      high_water_ = std::max<u64>(high_water_,
                                  std::min<u64>(depth, pool_.queue_capacity()));
      return;
    }
    state_->queued.fetch_sub(1, std::memory_order_relaxed);
    if (!pool_.run_one_inline()) std::this_thread::yield();
  }
}

void TaskGroup::wait() {
  std::unique_lock lock(state_->mu);
  while (state_->pending > 0) {
    lock.unlock();
    const bool ran = pool_.run_one_inline();
    lock.lock();
    // With the queue empty, every pending task of this group is already
    // running somewhere and will notify when it finishes.
    if (!ran) state_->done.wait(lock, [&] { return state_->pending == 0; });
  }
}

std::vector<f64> TaskGroup::busy_seconds() const {
  std::lock_guard lock(state_->mu);
  return state_->busy;
}

f64 TaskGroup::inline_busy_seconds() const {
  std::lock_guard lock(state_->mu);
  return state_->inline_busy;
}

}  // namespace ceresz::engine
