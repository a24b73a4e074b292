// ResultSink — where a Session's aggregated results go. Each destination
// (fixed-width tables on stdout, one CSV file, a cache save, a figure
// report) is a composable object: a run carries any set of sinks, each
// sees every sweep's results as they complete (consume) and flushes once
// at the end (finish), and every failure is a loud ps::Status instead of a
// bool the caller had to translate into an exit code.
//
// The built-ins:
//   TableSink      — fixed-width tables and the preset's PASS criterion
//   CsvSink        — the aggregated union-of-columns CSV of the whole run
//   CacheFileSink  — persists the session's file-scoped scenario cache
//                    (write-to-temp + rename)
//   SvgReportSink  — bridges to src/report/: renders the run's CSV bytes
//                    (in memory, no file round-trip) into the preset's
//                    Markdown + SVG figure report
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/bench_presets.hpp"
#include "engine/sweep_runner.hpp"
#include "util/status.hpp"

namespace ps::engine {

/// One completed sweep of a run, handed to every sink in plan order.
struct SweepBatch {
  /// The preset being run, or nullptr for an ad-hoc --solvers sweep.
  const BenchPreset* preset = nullptr;
  /// 0-based index of this sweep within the run.
  std::size_t sweep_index = 0;
  /// True for the run's first batch (TableSink separates later tables with
  /// a leading blank line, exactly as the legacy preset runner did).
  bool first = false;
  /// The sweep's caption ("E15: primal/dual frontier ..." or the ad-hoc
  /// "sweep results (seed N)").
  std::string caption;
  /// Whether wall-time columns are included for this run.
  bool timing = false;
  /// Aggregated results of this sweep, in plan order. Valid only for the
  /// duration of the consume() call.
  const std::vector<ScenarioResult>* results = nullptr;
};

/// Run-wide context the Session hands to prepare() and finish().
struct SinkContext {
  /// The preset being run, or nullptr for an ad-hoc sweep.
  const BenchPreset* preset = nullptr;
  /// Effective base seed of the run's first sweep (after --seed
  /// overrides). Preset sweeps may each carry their own seed; per-sweep
  /// seeds live in the batch results' ScenarioSpecs.
  std::uint64_t seed = 0;
  /// Whether wall-time columns are included.
  bool timing = false;
  /// The session's file-scoped scenario cache when --cache-file/--merge is
  /// in play, else nullptr. CacheFileSink persists exactly this.
  const ScenarioCache* file_cache = nullptr;
  /// Path the file cache persists to ("" when none was configured).
  std::string cache_file;
  /// Every sweep's results concatenated in plan order. Set only for
  /// finish(); nullptr during prepare().
  const std::vector<ScenarioResult>* all_results = nullptr;
};

/// A destination for a Session's results. Lifecycle per run: prepare()
/// once before any trial executes (validate paths, create parent
/// directories — fail before hours of compute, not after), consume() once
/// per sweep as its results complete, finish() once after the last sweep.
///
/// Error contract: a failed prepare() or finish() aborts the run with that
/// Status. A failed consume() is *deferred* — the Session keeps running
/// remaining sweeps and sinks and reports the first such failure only after
/// every finish() succeeded — so a side-output failure cannot discard the
/// primary CSV/cache outputs, yet still fails the run loudly.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual Status prepare(const SinkContext& context) {
    (void)context;
    return Status();
  }
  virtual Status consume(const SweepBatch& batch) = 0;
  virtual Status finish(const SinkContext& context) {
    (void)context;
    return Status();
  }
};

/// Creates the missing parent directories of `file_path` (lexically
/// normalized; no-op for a bare filename). The one place output paths are
/// normalized for every sink and the session cache file — tools stopped
/// doing this per-main. Fails with a Status naming the directory and path.
Status ensure_parent_directory(const std::string& file_path);

/// Creates directory `dir_path` (and parents) if absent; Status names the
/// path on failure.
Status ensure_directory(const std::string& dir_path);

/// Fixed-width result tables, one per sweep, plus the preset's PASS
/// criterion — the human-facing output of `powersched sweep`. Writes to
/// stdout by default; a test can redirect into any std::ostream.
class TableSink : public ResultSink {
 public:
  TableSink();
  explicit TableSink(std::ostream& stream) : stream_(stream) {}

  Status consume(const SweepBatch& batch) override;
  Status finish(const SinkContext& context) override;

 private:
  std::ostream& stream_;
};

/// The aggregated union-of-columns CSV of the whole run, written at
/// finish() — byte-identical to what the legacy --csv flag produced. Under
/// `--tails` (RunConfig::tails) the rows carry the percentile column block
/// of docs/csv-schema.md; with tails off the bytes are unchanged.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  Status prepare(const SinkContext& context) override;
  Status consume(const SweepBatch& batch) override;
  Status finish(const SinkContext& context) override;

 private:
  std::string path_;
};

/// Persists the session's file-scoped scenario cache to the configured
/// --cache-file at finish() (write-to-temp + rename, via
/// ScenarioCacheStore). Requires the session to have a cache file
/// configured — composing this sink into a run without one is an error.
class CacheFileSink : public ResultSink {
 public:
  Status prepare(const SinkContext& context) override;
  Status consume(const SweepBatch& batch) override;
  Status finish(const SinkContext& context) override;
};

/// Bridges a run into src/report/: at finish(), renders the run's
/// aggregated CSV bytes (in memory — results_csv_text, no file round-trip)
/// through ReportBuilder into `<out_dir>/<preset>.md` + one SVG per sweep.
/// Byte-identical to `powersched report` over the CsvSink's file, because
/// both consume the same CSV bytes. Preset runs only: an ad-hoc sweep has
/// no PlotHints to draw.
class SvgReportSink : public ResultSink {
 public:
  explicit SvgReportSink(std::string out_dir) : out_dir_(std::move(out_dir)) {}

  const std::string& out_dir() const { return out_dir_; }

  Status prepare(const SinkContext& context) override;
  Status consume(const SweepBatch& batch) override;
  Status finish(const SinkContext& context) override;

 private:
  std::string out_dir_;
};

}  // namespace ps::engine
