#include "engine/deadline_timer.h"

namespace ceresz::engine {

DeadlineTimer::~DeadlineTimer() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

DeadlineTimer::Handle DeadlineTimer::arm(Clock::time_point when,
                                         std::function<void()> fire) {
  std::lock_guard lock(mu_);
  if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
  const Handle handle{when, next_seq_++};
  pending_.emplace(handle, std::move(fire));
  // Only a new earliest deadline changes how long the thread sleeps.
  if (pending_.begin()->first == handle) wake_.notify_one();
  return handle;
}

void DeadlineTimer::disarm(const Handle& handle) {
  std::lock_guard lock(mu_);
  pending_.erase(handle);
}

void DeadlineTimer::loop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    if (pending_.empty()) {
      wake_.wait(lock);
      continue;
    }
    const auto first = pending_.begin();
    // A copy: disarm() may erase the entry while the thread sleeps.
    const Clock::time_point due = first->first.first;
    if (Clock::now() < due) {
      wake_.wait_until(lock, due);
      continue;
    }
    std::function<void()> fire = std::move(first->second);
    pending_.erase(first);
    lock.unlock();
    fire();
    lock.lock();
  }
}

}  // namespace ceresz::engine
