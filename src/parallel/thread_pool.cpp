#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace tspopt {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // Carry the submitter's live span names into the task, so a sampling
  // profiler attributes worker-thread CPU to the submitting phase
  // (engine.pass and friends). Free when no capture is on: the snapshot
  // is empty and the scope a no-op.
  std::packaged_task<void()> packaged(
      [task = std::move(task), names = obs::capture_span_names()] {
        obs::SpanNameScope scope(names);
        task();
      });
  std::future<void> fut = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    TSPOPT_CHECK_MSG(!stop_, "submit on a stopped ThreadPool");
    if (count_ == queue_.size()) {
      std::vector<std::packaged_task<void()>> grown(
          std::max<std::size_t>(16, 2 * queue_.size()));
      for (std::size_t t = 0; t < count_; ++t) {
        grown[t] = std::move(queue_[(head_ + t) % queue_.size()]);
      }
      queue_ = std::move(grown);
      head_ = 0;
    }
    queue_[(head_ + count_) % queue_.size()] = std::move(packaged);
    ++count_;
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::run_on_all(const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || count_ != 0; });
      if (stop_ && count_ == 0) return;
      task = std::move(queue_[head_]);
      head_ = (head_ + 1) % queue_.size();
      --count_;
    }
    task();  // packaged_task captures exceptions into the future
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace tspopt
