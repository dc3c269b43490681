// One timer thread that fires callbacks at deadlines. A ParallelEngine
// owns one and uses it to cancel the overdue chunk attempts of all its
// runs.
//
// The thread starts on the first arm() and sleeps with
// condition_variable::wait_until on the earliest pending deadline, so it
// has no fixed tick: a deadline fires when it passes, and a run whose
// attempts finish early disarms them and is never held back by the
// timer. Owners that never arm a deadline never start the thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/types.h"

namespace ceresz::engine {

class DeadlineTimer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Identifies one armed deadline (its time plus a unique sequence
  /// number, so equal deadlines stay distinct).
  using Handle = std::pair<Clock::time_point, u64>;

  DeadlineTimer() = default;
  /// Stops the thread; callbacks still pending are dropped.
  ~DeadlineTimer();

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Run `fire` on the timer thread once `when` has passed, unless
  /// disarm() comes first. `fire` runs without the timer's lock held and
  /// must not throw.
  Handle arm(Clock::time_point when, std::function<void()> fire);

  /// Drop a pending deadline; a no-op when it already fired. A callback
  /// that is running at the time may still complete.
  void disarm(const Handle& handle);

 private:
  void loop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::map<Handle, std::function<void()>> pending_;
  u64 next_seq_ = 0;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ceresz::engine
