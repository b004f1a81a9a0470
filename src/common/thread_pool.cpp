#include "common/thread_pool.h"

#include <cassert>

namespace ditto {

namespace {
/// The pool whose worker_loop owns this thread; nullptr elsewhere.
thread_local const ThreadPool* tl_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : wake_(threads), parked_(threads, false) {
  assert(threads > 0);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  for (auto& w : wake_) w.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return tl_worker_of == this; }

void ThreadPool::worker_loop(std::size_t self) {
  tl_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (queue_.empty() && !stopping_) {
        parked_[self] = true;
        idle_.push_back(self);
        if (idle_.size() == wake_.size()) idle_cv_.notify_all();
        wake_[self].wait(lock, [&] { return !parked_[self] || stopping_; });
      }
      if (queue_.empty()) return;  // stopping, and every task has run
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      task();  // packaged_task stores exceptions; this guards raw closures
    } catch (...) {
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && idle_.size() == wake_.size(); });
}

}  // namespace ditto
