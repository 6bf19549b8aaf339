#include "util/thread_pool.h"

#include <algorithm>

namespace pdm {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(
    usize begin, usize end,
    const std::function<void(usize, usize)>& chunk_fn) {
  if (begin >= end) return;
  const usize n = end - begin;
  const usize chunks = std::min<usize>(n, static_cast<usize>(size()) * 3);
  if (chunks <= 1) {
    chunk_fn(begin, end);
    return;
  }
  const usize step = (n + chunks - 1) / chunks;
  std::mutex done_mu;
  std::condition_variable done_cv;
  usize remaining = 0;
  for (usize lo = begin; lo < end; lo += step) ++remaining;
  usize left = remaining;
  std::exception_ptr first_error;
  for (usize lo = begin; lo < end; lo += step) {
    const usize hi = std::min(end, lo + step);
    submit([&, lo, hi] {
      try {
        chunk_fn(lo, hi);
      } catch (...) {
        std::lock_guard g(done_mu);
        if (!first_error) first_error = std::current_exception();
      }
      std::lock_guard g(done_mu);
      if (--left == 0) done_cv.notify_one();
    });
  }
  std::unique_lock lock(done_mu);
  done_cv.wait(lock, [&] { return left == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
    {
      std::lock_guard lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace pdm
