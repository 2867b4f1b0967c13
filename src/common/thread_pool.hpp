// Work-sharing thread pool used by the CPU kernels.
//
// Spatha's CUDA kernels assign one output tile per thread block; the CPU
// port assigns one output tile per pool iteration. Dispatch is chunked:
// a parallel_for publishes one job with an atomic work counter, a handful
// of runner tasks (at most one per worker) claim contiguous index chunks
// from that counter, and the calling thread participates in the draining.
// Kernels that need scratch (gather panels, accumulator tiles) use
// parallel_for_chunks and allocate the scratch once per claimed chunk
// instead of once per iteration.
//
// Inline rule. A caller that knows its serial cost passes it as `work`,
// in multiply-adds; a call whose work is below kInlineWork runs fn(0, n)
// on the calling thread and wakes no worker. This is the one place a
// kernel decides between the pool and the caller: the SpMM drivers pass
// nnz x C, the attention core its score multiply-adds, and gelu, add and
// layer_norm 16 per element. A call without `work` is dispatched as
// before. Bits never depend on the choice: every caller's chunks own
// disjoint outputs, so fn(0, n) writes what the chunks would.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace venom {

/// Fixed-size thread pool with blocking parallel loops.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Multiply-adds below which parallel_for_chunks runs inline, where
  /// waking and joining the workers costs more than they save. Median us
  /// over 300 calls of the fp16 64:2:8 SpMM (spmm_vnm over a PackedVnm)
  /// on a 4-vCPU Sapphire Rapids VM, inline (a 1-thread pool) vs 2- and
  /// 4-thread pools, work = nnz x C:
  ///
  ///   shape      C   work     inline  pool2  pool4
  ///   256x256    1      16 k     3.1    3.4    3.4
  ///   256x256    4      66 k     5.4    9.8   13.0
  ///   512x256    1      33 k     5.4   10.1   13.1
  ///   256x512    4     131 k     8.6   11.9   17.5
  ///   256x256   16     262 k    17.5   22.7   26.1
  ///   768x768    4     590 k    29.4   34.2   37.9
  ///   768x768   16    2.36 M   145    154    159
  ///   3072x768  64    37.7 M  1936   2293   2304
  ///
  /// This VM's four vCPUs deliver about one core of throughput, so here
  /// the pool never wins; an earlier run of the same probe had it first
  /// winning at 3072x768, C = 64 (769 vs 1144 us). 2^18 is the attention
  /// core's former cutoff: every decode-width call (C <= 3 on the serving
  /// model, <= 98 k) runs inline, and every BERT-base call from C = 16
  /// (>= 2.36 M) and every burst-phase call (>= 2 M) keeps the pool.
  static constexpr std::size_t kInlineWork = std::size_t(1) << 18;

  /// Runs fn(i) for i in [0, n), blocking until all iterations finish.
  /// Iterations are claimed in contiguous chunks off an atomic counter;
  /// the first exception thrown by fn is rethrown on the caller thread
  /// after all chunks drain.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked variant: runs fn(begin, end) over a partition of [0, n) into
  /// contiguous ranges of at most `grain` indices (grain 0 picks a size
  /// that yields a few chunks per worker). fn is invoked once per chunk,
  /// so per-chunk scratch buffers amortize across all iterations of the
  /// chunk. `work` is the call's serial multiply-adds: below kInlineWork
  /// fn(0, n) runs once on the caller (the default, unknown, never does).
  /// Exceptions propagate as with parallel_for.
  void parallel_for_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t grain = 0,
      std::size_t work = std::numeric_limits<std::size_t>::max());

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  struct Job;

  void worker_loop() VENOM_EXCLUDES(mutex_);
  static void run_job(Job& job);

  // Immutable after construction (joined in the destructor); size() may
  // read it concurrently without the lock.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ VENOM_GUARDED_BY(mutex_);
  bool stop_ VENOM_GUARDED_BY(mutex_) = false;
};

}  // namespace venom
