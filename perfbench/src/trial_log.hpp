// The traced run's view into the solver and thread-pool layers: a registry
// whose every solver is the built-in one wrapped in a timing decorator
// around Solver::run_trial. Each trial appends (family, start, end) to a
// buffer owned by its thread, so recording takes no lock; the workload reads
// the buffers back after SweepRunner::run has joined its pool.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/registry.hpp"

namespace perfbench {

/// The solver families reported as trial.<F>.* (the registry key's prefix
/// before the first '.').
const std::vector<std::string>& trial_families();

struct TrialSpan {
  std::uint16_t family = 0;  // index into trial_families()
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-thread trial buffers. Buffers outlive their threads (the sweep
/// runner builds a fresh pool per run), so a buffer's index is a unique
/// thread identity for the whole process.
class TrialLog {
 public:
  static TrialLog& global();

  void record(std::uint16_t family, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// Moves out every buffer's spans, keyed by thread index. Call only when
  /// no trial is running (after SweepRunner::run returned).
  std::map<std::size_t, std::vector<TrialSpan>> drain();

 private:
  std::vector<std::unique_ptr<std::vector<TrialSpan>>> buffers_;
};

/// A registry holding every built-in solver of `base` behind the timing
/// decorator. `base` must outlive the returned registry.
ps::engine::SolverRegistry timed_registry(const ps::engine::SolverRegistry& base);

/// Per-family trial tallies plus the pool view, summed over every sweep of
/// every repetition of a run.
struct TrialStats {
  std::vector<std::vector<double>> family_us;  // trial durations per family
  double busy_ms = 0.0;        // sum of trial durations
  double capacity_ms = 0.0;    // sum over sweeps of wall x compute threads
  double tail_idle_ms = 0.0;   // sum over sweeps of mean per-thread tail idle
  std::size_t compute_threads = 0;  // most distinct threads in one sweep

  TrialStats();
  /// Folds in spans drained after trials that ran outside a pool.
  void add_trials(const std::map<std::size_t, std::vector<TrialSpan>>& spans);
  /// Folds one sweep's drained spans in, pool view included. `threads` is
  /// the pool's compute thread count (workers + the participating caller):
  /// a thread that ran no trial of the sweep idles for the whole sweep.
  void add_sweep(const std::map<std::size_t, std::vector<TrialSpan>>& spans,
                 std::uint64_t sweep_start_ns, std::uint64_t sweep_end_ns,
                 std::size_t threads);
  /// Adds trial.<F>.{count,busy_ms,p50_us,p99_us} for every family; counts
  /// and busy time are per repetition.
  void report_trials(Outcome& out, std::size_t reps) const;
  /// Adds pool.{compute_threads,busy_ms,utilization,tail_idle_ms}.
  void report_pool(Outcome& out, std::size_t reps) const;
};

}  // namespace perfbench
