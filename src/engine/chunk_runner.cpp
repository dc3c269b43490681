#include "engine/chunk_runner.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

namespace ceresz::engine {

namespace {

using clock = std::chrono::steady_clock;

enum class Outcome : u8 {
  kSuccess,
  kTransient,
  kTimeout,
  kCrash,
  kPermanent,
};

struct ChunkState {
  u32 attempts_started = 0;
  bool running = false;
  bool done = false;
  Outcome outcome = Outcome::kSuccess;
  std::string message;
  std::shared_ptr<CancelToken> cancel;
  /// The running attempt's armed deadline, if it has one.
  std::optional<DeadlineTimer::Handle> deadline;
};

// All mutable run state lives behind one mutex: worker tasks append to
// `completions`, the deadline timer cancels overdue attempts, and only
// the calling thread makes retry/failure decisions. Heap-allocated and
// shared with every task and armed deadline: a worker's final notify
// runs after it has released the mutex, and a timer callback can run
// just after its attempt finished, so either may still touch the state
// when run() returns.
struct RunState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ChunkState> states;
  std::deque<u64> completions;
  u64 timeouts = 0;
  u64 fallback_chunks = 0;
};

}  // namespace

ChunkRunner::ChunkRunner(TaskGroup& tasks, RetryPolicy policy,
                         DeadlineTimer* timer)
    : tasks_(tasks), policy_(policy), timer_(timer) {
  CERESZ_CHECK(policy_.max_attempts >= 1,
               "ChunkRunner: max_attempts must be at least 1");
}

RunReport ChunkRunner::run(u64 n_chunks, const ChunkFn& fn,
                           Deadline deadline) {
  RunReport report;
  if (n_chunks == 0) return report;
  const bool timed = policy_.deadline_ms > 0 || deadline.has_value();
  CERESZ_CHECK(!timed || timer_ != nullptr,
               "ChunkRunner: a run with a deadline needs a DeadlineTimer");

  // However run() exits, no attempt may outlive `fn`.
  struct WaitForTasks {
    TaskGroup& tasks;
    ~WaitForTasks() { tasks.wait(); }
  } wait_for_tasks{tasks_};

  ThreadPool& pool = tasks_.pool();
  auto rs = std::make_shared<RunState>();
  rs->states.resize(n_chunks);
  std::multimap<clock::time_point, u64> retry_at;
  u64 resolved = 0;  // chunks that succeeded or terminally failed

  // One attempt, wrapped so that nothing but WorkerCrash ever escapes into
  // the pool — and WorkerCrash only after the outcome is recorded.
  auto make_task = [&](u64 c, u32 attempt,
                       std::shared_ptr<CancelToken> cancel) {
    return [&fn, &pool, rs, c, attempt, cancel = std::move(cancel)] {
      Outcome oc = Outcome::kSuccess;
      std::string message;
      bool crash = false;
      try {
        fn(c, attempt, *cancel);
      } catch (const WorkerCrash&) {
        oc = Outcome::kCrash;
        crash = true;
      } catch (const PermanentChunkError& e) {
        oc = Outcome::kPermanent;
        message = e.what();
      } catch (const ChunkTimeout& e) {
        oc = Outcome::kTimeout;
        message = e.what();
      } catch (const std::exception& e) {
        oc = Outcome::kTransient;
        message = e.what();
      } catch (...) {
        oc = Outcome::kTransient;
        message = "chunk attempt failed with an unknown error";
      }
      {
        std::lock_guard lock(rs->mu);
        ChunkState& st = rs->states[c];
        st.running = false;
        st.outcome = oc;
        st.message = crash ? "chunk " + std::to_string(c) +
                                 ": worker thread crashed"
                           : std::move(message);
        // A borrowed thread ran this attempt while the pool had no
        // workers left: the degraded single-threaded mode.
        if (!pool.current_worker() && pool.alive() == 0) {
          ++rs->fallback_chunks;
        }
        rs->completions.push_back(c);
      }
      rs->cv.notify_all();
      if (crash) throw WorkerCrash{};
    };
  };

  // Start the next attempt at chunk `c`, arming its deadline first.
  auto dispatch = [&](u64 c) {
    u32 attempt = 0;
    auto cancel = std::make_shared<CancelToken>();
    {
      std::lock_guard lock(rs->mu);
      ChunkState& st = rs->states[c];
      attempt = st.attempts_started++;
      st.running = true;
      st.cancel = cancel;
    }
    if (timed) {
      clock::time_point when = clock::time_point::max();
      if (policy_.deadline_ms > 0) {
        when = clock::now() + std::chrono::milliseconds(policy_.deadline_ms);
      }
      if (deadline) when = std::min(when, *deadline);
      const DeadlineTimer::Handle handle =
          timer_->arm(when, [rs, c, cancel] {
            std::lock_guard lock(rs->mu);
            ChunkState& st = rs->states[c];
            if (st.running && st.cancel == cancel && !cancel->cancelled()) {
              cancel->cancel();
              ++rs->timeouts;
            }
          });
      std::lock_guard lock(rs->mu);
      rs->states[c].deadline = handle;
    }
    tasks_.submit(make_task(c, attempt, std::move(cancel)));
  };

  for (u64 c = 0; c < n_chunks; ++c) dispatch(c);

  std::unique_lock lock(rs->mu);
  while (resolved < n_chunks) {
    while (!rs->completions.empty()) {
      const u64 c = rs->completions.front();
      rs->completions.pop_front();
      ChunkState& st = rs->states[c];
      if (st.deadline) {
        timer_->disarm(*st.deadline);
        st.deadline.reset();
      }
      if (st.done) continue;
      if (st.outcome == Outcome::kSuccess) {
        st.done = true;
        ++resolved;
        continue;
      }
      if (st.outcome == Outcome::kPermanent) {
        st.done = true;
        ++resolved;
        report.failed.push_back({c, true, st.message});
        continue;
      }
      if (st.outcome == Outcome::kCrash) ++report.worker_crashes;
      if (st.attempts_started >= policy_.max_attempts) {
        st.done = true;
        ++resolved;
        report.failed.push_back({c, false, st.message});
      } else {
        ++report.retries;
        const u32 k = std::min<u32>(st.attempts_started, 21) - 1;
        const u64 delay_us =
            std::min(policy_.backoff_cap_us, policy_.backoff_us << k);
        retry_at.emplace(clock::now() + std::chrono::microseconds(delay_us),
                         c);
      }
    }

    const auto now = clock::now();
    while (!retry_at.empty() && retry_at.begin()->first <= now) {
      const u64 c = retry_at.begin()->second;
      retry_at.erase(retry_at.begin());
      lock.unlock();
      dispatch(c);
      lock.lock();
    }
    if (resolved == n_chunks || !rs->completions.empty()) continue;

    // Nothing to decide yet: run queued work here, or — once the queue
    // is empty, so every attempt in flight is already running somewhere —
    // sleep until one completes or the next retry is due.
    lock.unlock();
    const bool ran = pool.run_one_inline();
    lock.lock();
    if (ran) continue;
    const auto completed = [&] { return !rs->completions.empty(); };
    if (retry_at.empty()) {
      rs->cv.wait(lock, completed);
    } else {
      rs->cv.wait_until(lock, retry_at.begin()->first, completed);
    }
  }
  report.timeouts = rs->timeouts;
  report.fallback_chunks = rs->fallback_chunks;
  lock.unlock();

  std::sort(
      report.failed.begin(), report.failed.end(),
      [](const ChunkFailure& a, const ChunkFailure& b) {
        return a.chunk < b.chunk;
      });
  return report;
}

}  // namespace ceresz::engine
