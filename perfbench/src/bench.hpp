// Shared plumbing of the end-to-end benchmark: command-line options, the
// result record every workload fills, clocks and process counters, order
// statistics, and the span log the traced run writes as Chrome trace JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/time.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for CSVs, artifacts and the trace file.
  std::string work_dir;
  /// Root of the source tree (holds src/), for dispatch fingerprinting.
  std::string source_root;
  /// Recorded per-preset CSV digests (paper_cold's output check).
  std::string digests_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: the output-check tallies and its metrics, in
/// the order they are printed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; a failed check is counted, never skipped.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

Outcome run_paper_cold(const Options& options);
Outcome run_serve_cold_mix(const Options& options);
Outcome run_dispatch_warm(const Options& options);

/// The paper's experiments, e1..e16.
const std::vector<std::string>& paper_presets();

/// The paper_cold digest table of the current tree, in the file format
/// run_paper_cold reads ("<preset> <16 hex digits>" lines).
std::string record_digests(const Options& options);

/// Every end-to-end (untraced) and per-layer (traced) metric, in print
/// order, with units and zero values.
std::vector<Metric> end_to_end_metrics();
std::vector<Metric> per_layer_metrics();

/// Monotonic seconds.
double now_s();
/// CPU time of the whole process (all threads), seconds.
double process_cpu_s();
/// Peak resident set size of the process so far, MB.
double peak_rss_mb();

/// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
double median(std::vector<double> values);
/// The repo's percentile definition (util::percentile_of_sorted) over an
/// unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);

/// Timings of the operations of a repeated pass (one preset run or rerun
/// each), keyed by operation, reduced per operation to one quantile of its
/// samples (see the noise notes in perfbench/README.md for each workload's
/// choice).
class PassSamples {
 public:
  explicit PassSamples(double quantile) : quantile_(quantile) {}

  void add(const std::string& op, double wall_ms, double cpu_s);
  /// Adds the pass metrics: wall_s and cpu_s (the sum over operations of
  /// each one's quantile), p50_ms and p99_ms (over the per-operation wall
  /// times) and max_rps (operations per second of wall_s).
  void report(Outcome& out) const;

 private:
  double quantile_;
  std::map<std::string, std::vector<double>> wall_ms_, cpu_s_;
};

/// FNV-1a 64 over `text` — the digest of a preset's CSV bytes.
std::uint64_t fnv1a64(const std::string& text);

/// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out);

/// Deterministic generator for workload inputs (splitmix64).
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Fisher-Yates shuffle of 0..n-1 drawn from `rng`.
std::vector<std::size_t> shuffled_order(std::size_t n, SeedRng& rng);

/// The benchmark's own spans, recorded around calls into each layer when
/// the run is traced (a private obs::TraceRecorder, so the engine's internal
/// per-trial slices stay off). Untraced, a span is one branch.
class Spans {
 public:
  explicit Spans(bool active);

  void add(const std::string& name, const std::string& layer,
           std::uint64_t start_ns, std::uint64_t end_ns);
  /// Writes the Chrome trace_event JSON; no-op when inactive.
  bool write(const std::string& path) const;

 private:
  bool active_;
  ps::obs::TraceRecorder recorder_;
};

/// Times one call in milliseconds; records a span when the log is active.
template <class Fn>
double timed_ms(Spans& spans, const std::string& name, const std::string& layer,
                Fn&& fn) {
  const std::uint64_t start = ps::obs::now_ns();
  fn();
  const std::uint64_t end = ps::obs::now_ns();
  spans.add(name, layer, start, end);
  return static_cast<double>(end - start) * 1e-6;
}

}  // namespace perfbench
