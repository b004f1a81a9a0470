// Fixed-size thread pool used by the execution backend: each simulated
// "server" owns a pool whose width equals its function-slot count, so
// intra-server task concurrency is bounded exactly like the paper's
// per-server CPU-core limit.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace ditto {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Enqueue a task whose failure modes are captured as a Status: a
  /// thrown exception becomes INTERNAL instead of propagating out of
  /// future::get(). Accepts callables returning void (mapped to OK) or
  /// Status (passed through). Use this for work whose body is not
  /// trusted to be exception-free (e.g. user-provided stage functions).
  template <typename F>
  std::future<Status> submit_guarded(F&& f) {
    return submit([fn = std::forward<F>(f)]() mutable -> Status {
      try {
        if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
          fn();
          return Status::ok();
        } else {
          return fn();
        }
      } catch (const std::exception& e) {
        return Status::internal(std::string("task threw: ") + e.what());
      } catch (...) {
        return Status::internal("task threw a non-standard exception");
      }
    });
  }

  std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers. Work
  /// running on a worker must not block on more work submitted to the
  /// same pool: every worker could end up waiting on a queue that no
  /// free worker drains.
  bool on_worker_thread() const;

  /// Block until every queued task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace ditto
