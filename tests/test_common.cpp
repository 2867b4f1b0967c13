// Tests for RNG determinism/quality, thread pool semantics, scratch
// memory reuse (arena + object pool), and errors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/thread_pool_testing.hpp"

namespace venom {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float u = rng.uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.uniform(-3.0f, 5.0f);
    EXPECT_GE(u, -3.0f);
    EXPECT_LT(u, 5.0f);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit in 1000 draws
}

TEST(Rng, SplitDecorrelates) {
  Rng base(5);
  Rng a = base.split(0);
  Rng b = base.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(ThreadPool, RunsAllIterationsExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleIterationRunsInline) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t) { throw Error("x"); });
  } catch (const Error&) {
  }
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPoolChunks, CoversRangeExactlyOnceWithoutOverlap) {
  ThreadPool pool(4);
  const std::size_t n = 1003;  // deliberately not a multiple of any grain
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_chunks(n, [&](std::size_t b, std::size_t e) {
    ASSERT_LE(b, e);
    ASSERT_LE(e, n);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  }, 7);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolChunks, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_chunks(
      0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  pool.parallel_for_chunks(
      0, [&](std::size_t, std::size_t) { called = true; }, 64);
  EXPECT_FALSE(called);
}

TEST(ThreadPoolChunks, GrainLargerThanRangeRunsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for_chunks(5, [&](std::size_t b, std::size_t e) {
    calls.fetch_add(1);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
  }, 1000);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolChunks, SingleThreadPoolRunsSerially) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t covered = 0;
  pool.parallel_for_chunks(100, [&](std::size_t b, std::size_t e) {
    // The <= 1 worker path runs everything inline on the caller, so
    // unsynchronized accumulation is safe here.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += e - b;
  }, 3);
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPoolChunks, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  // Grain 1 over many indices: the throwing chunk is very likely claimed
  // by a worker task, not the participating caller.
  EXPECT_THROW(pool.parallel_for_chunks(256,
                                        [&](std::size_t b, std::size_t) {
                                          if (b == 101) throw Error("chunk");
                                        },
                                        1),
               Error);
  // The pool must stay usable after draining the failed job.
  std::atomic<int> sum{0};
  pool.parallel_for_chunks(64, [&](std::size_t b, std::size_t e) {
    sum.fetch_add(int(e - b));
  }, 1);
  EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPoolChunks, FirstOfConcurrentExceptionsWins) {
  ThreadPool pool(4);
  try {
    pool.parallel_for_chunks(128,
                             [&](std::size_t b, std::size_t) {
                               throw Error("chunk " + std::to_string(b));
                             },
                             1);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
  }
}

// The inline rule: a call whose work is below ThreadPool::kInlineWork
// runs fn(0, n) once on the caller; any other call is dispatched.

/// Calls dispatch(body), where body(b, e) counts indices [b, e) in
/// `hits`, and returns the threads that ran body. Each body call waits
/// (up to 10 s) until a second thread has run one, so a dispatched call
/// shows two threads even when the caller could drain every chunk alone.
template <typename Dispatch>
std::set<std::thread::id> chunk_threads(std::vector<std::atomic<int>>& hits,
                                        Dispatch&& dispatch) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  const auto two_seen = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return ids.size() >= 2;
  };
  dispatch([&](std::size_t b, std::size_t e) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!two_seen() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  return ids;
}

void expect_each_hit_once(const std::vector<std::atomic<int>>& hits) {
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolInline, BelowTheConstantRunsOnceOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t work :
       {std::size_t(0), std::size_t(1), ThreadPool::kInlineWork - 1}) {
    int calls = 0;
    pool.parallel_for_chunks(
        100,
        [&](std::size_t b, std::size_t e) {
          ++calls;  // inline: no other thread can be here
          EXPECT_EQ(b, 0u);
          EXPECT_EQ(e, 100u);
          EXPECT_EQ(std::this_thread::get_id(), caller);
        },
        1, work);
    EXPECT_EQ(calls, 1) << "work " << work;
  }
}

TEST(ThreadPoolInline, AtOrAboveTheConstantSpreadsOverThreads) {
  ThreadPool pool(4);
  for (const std::size_t work :
       {ThreadPool::kInlineWork, ThreadPool::kInlineWork * 64}) {
    SCOPED_TRACE(::testing::Message() << "work " << work);
    std::vector<std::atomic<int>> hits(64);
    const auto ids = chunk_threads(hits, [&](const auto& body) {
      pool.parallel_for_chunks(hits.size(), body, 1, work);
    });
    EXPECT_GT(ids.size(), 1u);
    expect_each_hit_once(hits);
  }
}

TEST(ThreadPoolInline, CallWithoutWorkStillDispatches) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8);
  const auto ids = chunk_threads(hits, [&](const auto& body) {
    pool.parallel_for_chunks(hits.size(), body, 1);
  });
  EXPECT_GT(ids.size(), 1u);
  expect_each_hit_once(hits);
}

TEST(ThreadPoolInline, ForcePooledDispatchesSmallWork) {
  ThreadPool pool(4);
  const detail::ForcePooled pooled;
  std::vector<std::atomic<int>> hits(16);
  const auto ids = chunk_threads(hits, [&](const auto& body) {
    pool.parallel_for_chunks(hits.size(), body, 1, 1);
  });
  EXPECT_GT(ids.size(), 1u);
  expect_each_hit_once(hits);
}

TEST(ThreadPoolInline, ExceptionPropagatesInBothModes) {
  ThreadPool pool(4);
  for (const std::size_t work :
       {std::size_t(1), ThreadPool::kInlineWork}) {
    EXPECT_THROW(pool.parallel_for_chunks(
                     64,
                     [](std::size_t b, std::size_t e) {
                       if (b <= 37 && 37 < e) throw Error("chunk");
                     },
                     1, work),
                 Error)
        << "work " << work;
    // Still serviceable after the failed call.
    std::atomic<int> sum{0};
    pool.parallel_for_chunks(
        64, [&](std::size_t b, std::size_t e) { sum.fetch_add(int(e - b)); },
        1, work);
    EXPECT_EQ(sum.load(), 64) << "work " << work;
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(Error, ChecksThrowWithContext) {
  try {
    VENOM_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Error, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(VENOM_CHECK(2 + 2 == 4));
}

TEST(ScratchArena, AllocationsAreAlignedAndDisjoint) {
  ScratchArena arena;
  auto* bytes = arena.alloc<std::uint8_t>(3);
  auto* doubles = arena.alloc<double>(4);
  auto* ints = arena.alloc<std::uint32_t>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(doubles) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ints) % alignof(std::uint32_t),
            0u);
  // Writes to one allocation must not bleed into another.
  std::memset(bytes, 0xAB, 3);
  for (int i = 0; i < 4; ++i) doubles[i] = 1.5;
  for (int i = 0; i < 5; ++i) ints[i] = 7;
  EXPECT_EQ(bytes[0], 0xAB);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(doubles[i], 1.5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ints[i], 7u);
}

TEST(ScratchArena, PointersSurviveGrowthWithinACycle) {
  ScratchArena arena(64);  // small: the second alloc must chain a block
  auto* first = arena.alloc<std::uint64_t>(4);
  for (int i = 0; i < 4; ++i) first[i] = 0x1111111111111111ull * (i + 1);
  auto* second = arena.alloc<std::uint64_t>(1024);
  second[0] = 42;
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(first[i], 0x1111111111111111ull * (i + 1));
}

TEST(ScratchArena, SteadyStateCapacitySettles) {
  ScratchArena arena;
  const auto cycle = [&arena] {
    arena.reset();
    arena.alloc<float>(1000);
    arena.alloc<std::uint32_t>(500);
  };
  cycle();
  cycle();  // second cycle coalesces any chained blocks
  const std::size_t settled = arena.capacity();
  for (int i = 0; i < 10; ++i) cycle();
  EXPECT_EQ(arena.capacity(), settled);  // no growth once warm
  EXPECT_GE(arena.high_water(), 1000 * sizeof(float));
}

TEST(ScratchArena, MixedAlignmentCyclesSettleToo) {
  // Alignment padding must count toward the high-water mark: a coalesced
  // block sized without it would spill (and heap-allocate) every cycle.
  ScratchArena arena;
  const auto cycle = [&arena] {
    arena.reset();
    arena.alloc<std::uint8_t>(1);   // forces 7 bytes of padding before...
    arena.alloc<double>(64);        // ...this 8-aligned allocation
    arena.alloc<std::uint8_t>(3);
    arena.alloc<std::uint64_t>(16);
  };
  cycle();
  cycle();
  const std::size_t settled = arena.capacity();
  for (int i = 0; i < 16; ++i) cycle();
  EXPECT_EQ(arena.capacity(), settled);
}

TEST(ObjectPool, MoveAssignedLeaseReturnsHeldObject) {
  ObjectPool<std::vector<int>> pool;
  auto lease = pool.acquire();
  lease->resize(10);
  for (int i = 0; i < 5; ++i) {
    // Move-assign over a live lease: the held object must go back to the
    // pool (not be destroyed), so the pool never grows past 2.
    lease = pool.acquire();
  }
  EXPECT_LE(pool.created(), 2u);
}

TEST(ScratchArena, ResetReclaimsUsage) {
  ScratchArena arena;
  arena.alloc<std::uint8_t>(100);
  EXPECT_GE(arena.bytes_used(), 100u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GE(arena.high_water(), 100u);
}

TEST(ObjectPool, SequentialAcquiresReuseOneObject) {
  ObjectPool<std::vector<int>> pool;
  std::vector<int>* seen = nullptr;
  for (int i = 0; i < 5; ++i) {
    auto lease = pool.acquire();
    lease->resize(100);
    if (seen == nullptr) seen = &*lease;
    EXPECT_EQ(&*lease, seen);  // LIFO: the warm object comes back
  }
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(ObjectPool, ConcurrentLeasesGetDistinctObjects) {
  ObjectPool<std::vector<int>> pool;
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_NE(&*a, &*b);
  }
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.idle(), 2u);
}

TEST(ObjectPool, ThreadedAcquireReleaseIsSafe) {
  ObjectPool<std::vector<int>> pool;
  std::vector<std::thread> threads;
  std::atomic<int> total{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&pool, &total] {
      for (int i = 0; i < 200; ++i) {
        auto lease = pool.acquire();
        lease->push_back(i);
        total.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), 800);
  EXPECT_LE(pool.created(), 4u);  // bounded by peak concurrency
}

}  // namespace
}  // namespace venom
