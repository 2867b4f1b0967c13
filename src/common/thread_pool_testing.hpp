// Test seam of ThreadPool (common/thread_pool.hpp): a guard that turns
// off the inline rule, so the suites that compare results across pool
// sizes still run their small shapes on the workers. Only the tests use
// it.
#pragma once

namespace venom::detail {

/// While one is alive, parallel_for_chunks ignores `work` and dispatches
/// as it does for a call without it. Process-wide: every pool and every
/// thread sees it.
class ForcePooled {
 public:
  ForcePooled();
  ~ForcePooled();
  ForcePooled(const ForcePooled&) = delete;
  ForcePooled& operator=(const ForcePooled&) = delete;
};

}  // namespace venom::detail
