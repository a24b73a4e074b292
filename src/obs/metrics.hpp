// ps::obs — the observability core (no dependency beyond util's number
// codec): named counters, gauges, and fixed-bucket latency histograms behind
// a lock-sharded Registry.
//
// Design constraints, in order:
//   1. Hot paths stay hot. Instruments are plain atomics; the registry's
//      shard locks guard only name -> instrument resolution, which callers
//      do once and cache the returned reference (instruments are never
//      removed, so references stay valid for the registry's lifetime).
//      A per-trial increment is one relaxed fetch_add, no lock.
//   2. Off by default, bit-identical when on. Metrics never touch stdout —
//      snapshots render to stderr or side files — so instrumented builds
//      produce byte-identical primary outputs (CSV/tables/SVG) whether the
//      global `enabled()` switch is on or off. The switch gates the *cost*
//      (clock reads, span recording), not correctness.
//   3. Deterministic rendering. Snapshots are sorted by name with stable
//      formatting, so two snapshots of the same state are byte-identical —
//      testable, diffable, CI-safe.
//
// The histogram trades exactness for O(1) memory: geometric 1-2-5 buckets
// over nanoseconds, so percentile estimates are exact to within their
// bucket (factor <= 2.5) — plenty for "did p99 double", which is what a
// latency histogram is for. min/max/sum/count are exact.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ps::obs {

/// Process-global switch for the instrumentation sites. Off by default:
/// a library user who never asks for metrics pays (almost) nothing and
/// observes identical behaviour. The CLI turns it on for --metrics,
/// --metrics-json, --trace, and --progress runs.
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing event count. Relaxed atomics: totals are exact,
/// cross-counter ordering is not promised (nor needed for metrics).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, worker count, ...).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram over nanoseconds: geometric 1-2-5 bucket
/// bounds from 1ns up to ~17 minutes, one overflow bucket past the last
/// bound. record() is a handful of relaxed atomic ops; percentile() scans
/// the 38 buckets and interpolates linearly inside the winning bucket,
/// clamped to the exact observed [min, max].
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 38;  // 1-2-5 per decade + overflow

  /// Upper bounds (exclusive) of the finite buckets, ascending; size
  /// kBuckets - 1. Bucket i covers [bounds[i-1], bounds[i]).
  static const std::array<std::uint64_t, kBuckets - 1>& bucket_bounds();

  void record(std::uint64_t ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact observed extrema; 0 when empty.
  std::uint64_t min() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// q in [0, 1]; exact to within the containing bucket, clamped to the
  /// observed [min, max]. 0 when empty.
  double percentile(double q) const;

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Name -> instrument registry. Lock-sharded by name hash so concurrent
/// first-time registrations from many workers do not serialize on one
/// mutex; after resolution, instrument access is lock-free. Instruments
/// live as long as the registry and are never removed (reset() zeroes
/// values but keeps identities).
class Registry {
 public:
  /// The process-global default registry every built-in instrumentation
  /// site records into. Tests build private Registry instances.
  static Registry& global();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The instrument named `name`, created on first use. The reference is
  /// stable for the registry's lifetime — resolve once, cache, increment
  /// lock-free. A name resolves to exactly one kind; asking for a counter
  /// named like an existing gauge aborts (instrument names are a flat,
  /// typed namespace).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// Point-in-time copy of every instrument, each kind sorted by name —
  /// the deterministic order every exporter renders in.
  struct Snapshot {
    struct CounterRow {
      std::string name;
      std::uint64_t value;
    };
    struct GaugeRow {
      std::string name;
      double value;
    };
    struct HistogramRow {
      std::string name;
      std::uint64_t count;
      std::uint64_t sum_ns;
      std::uint64_t min_ns;
      std::uint64_t max_ns;
      double p50_ns;
      double p95_ns;
      double p99_ns;
    };
    std::vector<CounterRow> counters;
    std::vector<GaugeRow> gauges;
    std::vector<HistogramRow> histograms;
  };
  Snapshot snapshot() const;

  /// Zeroes every instrument's value (identities and references survive).
  void reset();

 private:
  struct Shard;
  Shard& shard_for(const std::string& name);

  static constexpr std::size_t kShards = 16;
  std::array<std::unique_ptr<Shard>, kShards> shards_;
};

/// Human-readable snapshot: one line per instrument, sorted by name within
/// each kind, stable formatting — byte-identical for identical state. This
/// is what `--metrics` prints to stderr at exit.
std::string render_metrics_text(const Registry::Snapshot& snapshot);

/// Machine-readable snapshot ("powersched-metrics v1"): counters/gauges as
/// objects, histograms with count/sum/min/max/p50/p95/p99 in ns. This is
/// what `--metrics-json FILE` writes.
std::string render_metrics_json(const Registry::Snapshot& snapshot);

}  // namespace ps::obs
