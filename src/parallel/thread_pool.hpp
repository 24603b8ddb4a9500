// A small static thread pool.
//
// This is the substrate under both the "parallel CPU" 2-opt baseline (the
// paper's 6-core OpenCL CPU implementation) and the SIMT simulator's block
// scheduler. Design goals: no work stealing (workloads here are regular),
// exception propagation to the submitter, and a blocking parallel-for with
// static or dynamic chunking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace tspopt {

class ThreadPool {
 public:
  // `threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task; the future rethrows any exception in the caller.
  std::future<void> submit(std::function<void()> task);

  // Run fn(worker_index) on every pool worker plus the calling thread does
  // not participate; blocks until all complete. Exceptions: the first one
  // thrown is rethrown in the caller.
  void run_on_all(const std::function<void(std::size_t)>& fn);

  // Shared process-wide pool sized to hardware concurrency. Benches,
  // engines and the SIMT executor default to this instance so the machine
  // is never oversubscribed.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  // FIFO task ring: queue_[head_], ... (mod capacity), count_ long. It
  // grows only when full, so a steady launch rate allocates nothing for
  // queueing (a deque allocates a node every few launches, which made
  // per-launch allocation counts depend on how many tasks ran before).
  std::vector<std::packaged_task<void()>> queue_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace tspopt
