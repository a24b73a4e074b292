// Monotonic time helpers — the one timing utility of the library. Every
// clock read in the engine (trial wall times, phase spans, bench reps,
// thread-pool busy/idle accounting) goes through these, so "what clock do
// we time with" has exactly one answer: std::chrono::steady_clock,
// nanosecond resolution.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif

namespace ps::obs {

/// Nanoseconds on the monotonic clock. Only differences are meaningful;
/// the epoch is the steady_clock's (usually boot).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU nanoseconds consumed by the calling thread, or 0 where the platform
/// has no per-thread CPU clock. Used for the wall-vs-cpu split in the sweep
/// metrics (a trial that waits is not a trial that computes).
inline std::uint64_t thread_cpu_ns() {
#if defined(__unix__) || defined(__APPLE__)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

/// Stopwatch measuring monotonic wall time since construction or the last
/// reset().
class StopWatch {
 public:
  StopWatch() : start_ns_(now_ns()) {}

  void reset() { start_ns_ = now_ns(); }

  std::uint64_t ns() const { return now_ns() - start_ns_; }
  double seconds() const { return static_cast<double>(ns()) * 1e-9; }
  double milliseconds() const { return static_cast<double>(ns()) * 1e-6; }

 private:
  std::uint64_t start_ns_;
};

}  // namespace ps::obs
