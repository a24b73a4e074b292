// ps::engine::Session — the one front door to the experiment engine. A
// Session owns everything a run needs — the solver registry, preset/plan
// resolution, shard selection, the scenario + reference caches and their
// on-disk persistence, and the thread pool options — configured by one
// declarative RunConfig. Embedders and tools call run() with a set of
// ResultSinks instead of re-implementing cache wiring, shard parsing, and
// emission plumbing; the `powersched` CLI is a thin layer over exactly
// this class.
//
//   RunConfig config;
//   config.preset = "e15";
//   config.shard_index = 0; config.shard_count = 3;
//   config.cache_file = "e15.shard0.cache";
//   Session session(config);
//   session.add_sink(std::make_unique<TableSink>());
//   session.add_sink(std::make_unique<CacheFileSink>());
//   session.add_sink(std::make_unique<CsvSink>("e15.shard0.csv"));
//   ps::Status status = session.run();   // status.exit_code() -> 0/1/2
//
// Determinism contract (inherited from the engine): for a fixed config,
// every sink observes bit-identical aggregates for any thread count, and a
// sharded run's cache files merged back (RunConfig::merge_files) reproduce
// the unsharded run's outputs byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/bench_presets.hpp"
#include "engine/registry.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "util/status.hpp"

namespace ps::engine {

/// Everything that selects and shapes one run, declaratively. Exactly one
/// of `preset` (a catalogue name) or `plan` (an ad-hoc sweep) drives the
/// run; the rest are overrides and I/O wiring.
struct RunConfig {
  /// Bench preset name ("e15", "a4", ...). Empty = ad-hoc `plan` mode.
  std::string preset;

  /// Ad-hoc sweep plan (solvers × grid); ignored when `preset` is set.
  SweepPlan plan;

  /// Trials per scenario; 0 keeps each sweep's (or the plan's) default.
  /// Negative is a usage error.
  int trials = 0;

  /// Base seed override, applied only when `seed_given` (seed 0 is usable).
  std::uint64_t seed = 0;
  bool seed_given = false;

  /// Worker threads; -1 keeps the default (the preset's own, or hardware
  /// concurrency for ad-hoc plans). 0 = hardware concurrency, 1 = serial.
  int num_threads = -1;

  /// Force wall-time columns on even for non-timing presets.
  bool timing = false;

  /// Retain per-trial samples during aggregation (`--tails`): unlocks the
  /// exact p50/p95/p99 percentile columns in every sink and persists the
  /// samples into the cache file (scenario-cache v2). Off by default — a
  /// 100k-trial sweep must not buffer every reading, and the emitted CSV
  /// stays byte-identical to pre-tails builds. In merge mode the merged
  /// cache entries must themselves carry samples (shards run with --tails);
  /// a streaming-only entry fails the merge loudly.
  bool tails = false;

  /// With tails: cap per-scenario sample retention to at most this many
  /// readings per accumulator (`--tails-cap`) via a deterministic seeded
  /// reservoir, bounding memory for huge trial counts. 0 = exact (unbounded)
  /// retention, the default. Requires tails; rejected otherwise.
  std::size_t tails_cap = 0;

  /// Serve repeated scenarios from the scenario cache (presets only; an
  /// ad-hoc plan caches only into a file-scoped cache, never the global).
  bool use_cache = true;

  /// Shard selection: run only the scenarios whose global plan index is
  /// congruent to shard_index mod shard_count (round-robin over the
  /// concatenated sweeps; union over shards == the full plan).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// Persistent scenario cache: loaded (if present) before the run, so
  /// already-computed scenarios are skipped; a CacheFileSink saves it back.
  /// Missing parent directories are created by the Session.
  std::string cache_file;

  /// Merge mode: run no trials; assemble the full plan from these per-shard
  /// cache files and feed the byte-identical results to the sinks.
  std::vector<std::string> merge_files;

  /// Print stderr progress lines (scenario counts, shard banners). The CLI
  /// sets this; library embedders usually keep it off.
  bool verbose = false;

  /// Live progress ticker on stderr (obs::ProgressMeter): scenarios
  /// done/total, trials/sec, ETA, throttled to at most one line per second.
  /// The CLI sets this only when stderr is a TTY, so logs and CI output
  /// never see the carriage-return line. No effect in merge mode (no
  /// trials run there).
  bool progress = false;
};

class Session {
 public:
  explicit Session(RunConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Sinks receive results in the order they were added; add them before
  /// run(). A run with zero sinks is valid (compute + cache only).
  void add_sink(std::unique_ptr<ResultSink> sink);

  /// Validates the config and wires the caches without running anything:
  /// resolves the preset, checks shard/merge/solver/trial arguments
  /// (Status::usage on a malformed request), loads cache and merge files,
  /// and creates missing output parent directories (Status::runtime naming
  /// the path on failure). Idempotent; run() calls it implicitly.
  Status prepare();

  /// Runs the configured plan — or assembles it from merge files — feeding
  /// every sink. Error contract: the first failing sink prepare()/finish()
  /// or engine failure aborts with that Status; consume() failures are
  /// deferred until after the remaining sinks flushed (see ResultSink).
  Status run();

  // Introspection, valid after a successful prepare():
  const SolverRegistry& registry() const { return registry_; }
  /// The resolved preset, or nullptr for an ad-hoc run.
  const BenchPreset* preset() const { return preset_; }
  /// Scenarios this run owns (after shard selection), across all sweeps.
  std::size_t num_scenarios() const;

 private:
  struct SweepUnit {
    std::string caption;
    std::vector<ScenarioSpec> scenarios;
  };

  Status prepare_units();

  RunConfig config_;
  SolverRegistry registry_;
  const BenchPreset* preset_ = nullptr;
  std::vector<SweepUnit> units_;
  ScenarioCache file_cache_;
  SweepOptions sweep_options_;
  std::vector<std::unique_ptr<ResultSink>> sinks_;
  std::uint64_t effective_seed_ = 0;
  int effective_trials_ = 0;  // ad-hoc only (presets vary per sweep)
  bool timing_ = false;
  bool prepared_ = false;
};

}  // namespace ps::engine
