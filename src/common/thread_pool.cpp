#include "common/thread_pool.h"

#include <cassert>

namespace ditto {

namespace {
/// The pool whose worker_loop owns this thread; nullptr elsewhere.
thread_local const ThreadPool* tl_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  assert(threads > 0);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return tl_worker_of == this; }

void ThreadPool::worker_loop() {
  tl_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    try {
      task();  // packaged_task stores exceptions; this guards raw closures
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

}  // namespace ditto
