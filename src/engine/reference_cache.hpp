// Process-wide memo for expensive per-instance reference values (brute-force
// optima, exact DPs, exhaustive enumerations). The engine derives every
// trial's instance stream from the parameters only, so an N-solver
// comparison — or an algorithm-knob sweep whose knob is an algo_param —
// draws the *same* instance many times; without this cache each scenario
// would recompute the exponential comparator from scratch. Generalizes the
// one-off memoization the power-scheduler vs_opt path started with.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace ps::scheduling {
class SchedulingInstance;
}  // namespace ps::scheduling

namespace ps::engine {

/// Returns the cached value under `key`, computing it with `compute` (and
/// storing the result) on a miss. Thread-safe, and each key is computed at
/// most once: the first caller (the one miss) inserts an in-flight entry and
/// runs `compute` outside the lock; concurrent callers for the same key
/// count as hits and block until that value is ready. If `compute` throws,
/// the in-flight entry is removed, every waiter is released with the same
/// exception, and the first caller rethrows it, so the next call for the
/// key computes afresh. `compute` must not request its own key (it would
/// wait on itself).
///
/// Keys must uniquely identify the instance AND the reference semantics.
/// Where the instance has a serializer, use it; otherwise draw one raw
/// `instance_rng()` word *before* generating the instance and use it as a
/// stream fingerprint (the stream is a pure function of the instance
/// parameters and trial index, so the first word identifies it).
double cached_reference(const std::string& key,
                        const std::function<double()>& compute);

/// The brute-force all-jobs optimum of `instance` under a restart cost of
/// `alpha`, memoized under "power.opt|<instance text>|<alpha>". Sweeps
/// (`vs_opt=1`) and SolveService instance requests share this one key, so
/// an instance priced by either is a hit for the other. Returns -1 when the
/// instance has no full schedule.
double power_opt_reference(const scheduling::SchedulingInstance& instance,
                           double alpha);

struct ReferenceCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// Snapshot of the global cache's hit/miss counters (for tests and tuning).
ReferenceCacheStats reference_cache_stats();

/// Drops every cached value and zeroes the counters (tests only). A compute
/// still in flight across a clear returns its value to its callers but
/// neither stores it nor, if it throws, removes a newer entry for its key.
void clear_reference_cache();

}  // namespace ps::engine
