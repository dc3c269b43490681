// Fault-tolerant chunk execution on a (possibly shared) ThreadPool.
//
// ChunkRunner::run() dispatches one attempt per chunk through the run's
// TaskGroup and shepherds every failure to a terminal state:
//   - transient failures (any std::exception, injected throws, crashed
//     workers, timeouts) are retried with capped exponential backoff, up
//     to RetryPolicy::max_attempts attempts per chunk;
//   - PermanentChunkError skips the retry ladder entirely — it marks data
//     that is wrong (bad CRC, undecodable record), which no retry fixes;
//   - an attempt with a deadline (RetryPolicy::deadline_ms after its
//     start, capped by the run's absolute deadline) is cancelled by the
//     owner's DeadlineTimer via the attempt's CancelToken (cooperative:
//     chunk functions poll it between blocks);
//   - a WorkerCrash kills its worker but not the run — survivors keep
//     draining, and the calling thread runs queued attempts itself while
//     it waits, so even a fully collapsed pool finishes the run with
//     every chunk either succeeded or failed.
//
// At most one attempt per chunk is ever in flight, so chunk functions may
// write their output slot in place; a retry observes the previous attempt
// fully finished. All retry decisions run on the calling thread — worker
// tasks only report outcomes — which keeps the policy single-threaded and
// easy to reason about.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "engine/deadline_timer.h"
#include "engine/thread_pool.h"

namespace ceresz::engine {

/// Retry/deadline policy for one run.
struct RetryPolicy {
  /// Total attempts per chunk (first try included). Must be >= 1.
  u32 max_attempts = 3;
  /// Backoff before retry k (k = 1, 2, ...): min(backoff_us << (k-1),
  /// backoff_cap_us) microseconds.
  u64 backoff_us = 200;
  u64 backoff_cap_us = 5000;
  /// Per-attempt deadline in milliseconds; 0 = none.
  u64 deadline_ms = 0;
};

/// Absolute deadline for a whole run (e.g. a service request's budget);
/// nullopt = none. No attempt of the run may outlive it.
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// Cooperative cancellation flag for one chunk attempt. The deadline
/// timer sets it; the chunk function polls it between blocks and aborts
/// by throwing ChunkTimeout.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Failure that retrying cannot fix: the chunk's bytes are wrong (CRC
/// mismatch, undecodable record). Goes straight to the failed list.
class PermanentChunkError : public Error {
 public:
  using Error::Error;
};

/// Thrown by a chunk function that observed its CancelToken fire. Treated
/// as a transient failure (the attempt timed out; a retry may succeed).
class ChunkTimeout : public Error {
 public:
  using Error::Error;
};

/// A chunk that exhausted its attempts or failed permanently.
struct ChunkFailure {
  u64 chunk = 0;
  bool permanent = false;  ///< PermanentChunkError vs retries exhausted
  std::string message;     ///< the final attempt's error
};

/// What happened during one run.
struct RunReport {
  u64 retries = 0;         ///< re-dispatched attempts (beyond the first)
  u64 timeouts = 0;        ///< attempts cancelled at their deadline
  u64 worker_crashes = 0;  ///< attempts that took their worker down
  u64 fallback_chunks = 0; ///< attempts run inline after pool collapse
  std::vector<ChunkFailure> failed;  ///< terminally failed chunks, sorted

  bool all_succeeded() const { return failed.empty(); }
};

class ChunkRunner {
 public:
  /// `attempt` is 0-based; the function either returns (success) or throws
  /// (ChunkTimeout / PermanentChunkError / WorkerCrash / anything else =
  /// transient). It must leave its chunk re-runnable on failure.
  using ChunkFn =
      std::function<void(u64 chunk, u32 attempt, const CancelToken& cancel)>;

  /// Attempts go to `tasks` (the run's group on its pool). `timer` cancels
  /// overdue attempts; it may be null only when runs have no deadline.
  ChunkRunner(TaskGroup& tasks, RetryPolicy policy, DeadlineTimer* timer);

  /// Run chunks [0, n_chunks) through `fn` until each one has either
  /// succeeded or terminally failed, then wait for the run's tasks to
  /// finish. Never throws for chunk failures — they come back in the
  /// report for the caller's policy (strict/lenient) to apply.
  RunReport run(u64 n_chunks, const ChunkFn& fn, Deadline deadline = {});

 private:
  TaskGroup& tasks_;
  RetryPolicy policy_;
  DeadlineTimer* timer_;
};

}  // namespace ceresz::engine
