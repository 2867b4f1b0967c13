#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/thread_pool_testing.hpp"

namespace venom {

namespace {

/// Live detail::ForcePooled guards; nonzero disables the inline rule.
std::atomic<int> force_pooled{0};

}  // namespace

detail::ForcePooled::ForcePooled() {
  force_pooled.fetch_add(1, std::memory_order_relaxed);
}

detail::ForcePooled::~ForcePooled() {
  force_pooled.fetch_sub(1, std::memory_order_relaxed);
}

/// Shared state of one parallel loop: an atomic cursor over the chunk
/// grid plus completion tracking. Runner tasks and the calling thread all
/// drain chunks from `next`; the last finished chunk wakes the caller.
struct ThreadPool::Job {
  std::function<void(std::size_t, std::size_t)> body;  // [begin, end)
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t total_chunks = 0;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  Mutex error_mutex;
  std::exception_ptr first_error VENOM_GUARDED_BY(error_mutex);

  Mutex done_mutex;
  CondVar done_cv;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.wait(lock);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_job(Job& job) {
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.total_chunks) return;
    const std::size_t begin = c * job.chunk;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    try {
      job.body(begin, end);
    } catch (...) {
      MutexLock lock(job.error_mutex);
      if (!job.first_error) job.first_error = std::current_exception();
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.total_chunks) {
      MutexLock lock(job.done_mutex);
      job.done_cv.notify_one();
    }
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain, std::size_t work) {
  if (n == 0) return;
  if (work < kInlineWork &&
      force_pooled.load(std::memory_order_relaxed) == 0) {
    fn(0, n);
    return;
  }
  const std::size_t workers = workers_.size();
  if (grain == 0) {
    // A few chunks per worker balances load without shredding locality.
    grain = std::max<std::size_t>(1, n / (std::max<std::size_t>(1, workers) * 4));
  }
  if (workers <= 1 || n <= grain) {
    fn(0, n);  // serial: exceptions propagate directly
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = fn;
  job->n = n;
  job->chunk = grain;
  job->total_chunks = (n + grain - 1) / grain;

  // One runner per worker at most; each runner loops claiming chunks off
  // the atomic cursor, so queue traffic is O(workers), not O(chunks).
  // One wake-up per runner: the other idle workers sleep on.
  const std::size_t runners = std::min(workers, job->total_chunks);
  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < runners; ++i)
      tasks_.emplace([job] { run_job(*job); });
  }
  for (std::size_t i = 0; i < runners; ++i) cv_.notify_one();

  // The caller drains chunks too (it would otherwise idle), then waits
  // for stragglers claimed by workers.
  run_job(*job);
  {
    MutexLock lock(job->done_mutex);
    while (job->done.load(std::memory_order_acquire) != job->total_chunks)
      job->done_cv.wait(lock);
  }
  // Read under the lock: the draining loop above only proves every chunk
  // *finished*; the error slot itself is error_mutex state.
  std::exception_ptr err;
  {
    MutexLock lock(job->error_mutex);
    err = job->first_error;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  parallel_for_chunks(
      n,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      0);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace venom
