// A small work-stealing-free thread pool with one job: the file backend's
// batch fan-out, which issues one batch's pread/pwrite calls concurrently
// (FileDiskBackend::read_batch/write_batch on ThreadPool::global()). It
// does no in-memory sorting; the in-core kernels run on the context's
// budgeted CpuPool (util/cpu_pool.h).
//
// Design notes (C++ Core Guidelines CP.*): tasks are plain std::function
// jobs; the pool is joined in the destructor (RAII); parallel_for blocks the
// caller until all chunks complete, so no dangling references can escape.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.h"

namespace pdm {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a job; does not block.
  void submit(std::function<void()> job);

  /// Blocks until every job submitted so far has completed.
  void wait_idle();

  /// Runs fn(i) for i in [begin, end) across the pool, blocking until done.
  /// Work is split into ~3x-oversubscribed contiguous chunks.
  void parallel_for(usize begin, usize end,
                    const std::function<void(usize, usize)>& chunk_fn);

  /// Process-wide pool, created on first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  usize in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace pdm
