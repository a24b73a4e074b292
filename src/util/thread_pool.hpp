// A small fixed-size thread pool with a blocking parallel_for.
//
// The library uses data parallelism in two hot spots: evaluating many greedy
// candidates against a submodular oracle (src/core) and running Monte-Carlo
// trials of online algorithms (src/secretary). Both are embarrassingly
// parallel. parallel_for hands out indices dynamically, one at a time, so
// which thread runs an index varies from run to run; results do not depend
// on the number of workers because each index's work is deterministic and
// writes to its own index-addressed output slot.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ps::util {

/// Fixed set of worker threads consuming a FIFO task queue.
/// Tasks passed to submit() must not throw; an exception escaping one
/// terminates the program. parallel_for bodies may throw (see there).
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` means
  /// hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(i) exactly once for each i in [begin, end) and blocks until
  /// all iterations finish. The caller and up to min(size(), n - 1) workers
  /// each claim the next unclaimed index from a shared atomic counter until
  /// the range is exhausted, so expensive indices spread over every thread
  /// whatever their position. Iterations run in no fixed order or thread:
  /// body must be safe to run concurrently and should write only to
  /// index-addressed output for results to be deterministic. The calling
  /// thread participates, so this is safe to use with a pool of size 1 and
  /// never deadlocks on nested use from the caller's side. If body throws,
  /// no further index is claimed, the iterations already running finish,
  /// and the first exception is rethrown on the caller; the pool stays
  /// usable.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Convenience: run body(i) over [0, n) on a transient pool when no shared
/// pool is available. For n below `serial_cutoff` the loop runs inline.
void parallel_for_n(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t num_threads = 0, std::size_t serial_cutoff = 32);

}  // namespace ps::util
