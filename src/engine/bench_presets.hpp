// The bench preset catalogue: every experiment of the paper as a
// declarative (name, sweep plans, pass criterion) bundle, run with
// `powersched sweep --preset e13`. One registered solver adapter per
// algorithm, one SweepPlan per table, and the engine does the seeding,
// threading, caching, aggregation, and emission uniformly — driven through
// ps::engine::Session (see session.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace ps::engine {

/// How one sweep's aggregated CSV rows render as a figure. Every name is a
/// column of the sweep CSV schema (docs/csv-schema.md): parameter columns by
/// bare name, core statistics as written (`ratio_mean`, `objective_mean`,
/// ...), named metrics as `m_<name>`. The report pipeline
/// (src/report/report_builder.cpp) resolves the hint against the CSV and
/// fails loudly when a named column is absent.
struct PlotHint {
  /// X-axis column — the swept parameter.
  std::string x;
  /// Y-value columns; each becomes one series (per series split). A column
  /// with a `<stem>_ci95` sibling in the CSV gets ci95 error bars, and one
  /// with `<stem>_<band_lo>`/`<stem>_<band_hi>` siblings (a `--tails` run)
  /// additionally gets a percentile band.
  std::vector<std::string> y;
  /// Columns whose distinct row values split the rows into separate series
  /// (typically {"solver"}, sometimes a second sweep axis); empty = one
  /// series per y column. The series count — distinct value combinations
  /// times y columns — must stay within report::kMaxPlotSeries (8).
  std::vector<std::string> series;
  bool log_x = false;
  bool log_y = false;
  /// Y-axis caption; empty derives one from the y columns.
  std::string y_label;
  /// Percentile band pair drawn under each y series when the sibling tail
  /// columns exist: `<stem>_<band_lo>` / `<stem>_<band_hi>`. Any emitted
  /// tail suffix works ("p5", "p25", "p50", "p75", "p95", "p99"; metric
  /// stems also "min"/"max"). The p5–p95 default keeps existing figures
  /// unchanged; either name empty disables the band outright.
  std::string band_lo = "p5";
  std::string band_hi = "p95";
};

/// One table of a preset: a sweep plan, its caption, and how it plots.
struct PresetSweep {
  std::string caption;
  SweepPlan plan;
  PlotHint plot;
};

/// One machine-evaluable tail check: `column op bound` must hold on every
/// scenario row of the run that carries the statistic. Columns use the CSV
/// tail naming (`ratio_p5`, `objective_p99`, `m_<name>_p50`, ...; also
/// `_mean`/`_min`/`_max`). TableSink::finish evaluates these only when the
/// run retained samples (`--tails`) — streaming runs keep the byte-identical
/// legacy output and only print the human pass_criterion string.
struct PassRule {
  enum class Op { kGe, kLe };
  std::string column;
  Op op = Op::kGe;
  double bound = 0.0;
};

struct BenchPreset {
  /// CLI key: "e1".."e16", "a1".."a4", "p_micro".
  std::string name;
  /// One line: what the experiment measures.
  std::string title;
  /// The human pass criterion printed after the tables (from the paper's
  /// predictions; the engine does not evaluate it).
  std::string pass_criterion;
  std::vector<PresetSweep> sweeps;
  /// Default worker threads (0 = hardware concurrency). Timing ablations
  /// pin this to 1 so in-trial wall readings are not perturbed.
  std::size_t default_threads = 0;
  /// Include wall-time columns in tables/CSV (timing is the measurement).
  bool timing = false;
  /// Machine-evaluable tail checks (see PassRule). Evaluated — and able to
  /// fail the run — only when samples were retained (`--tails`).
  std::vector<PassRule> pass_rules = {};
};

/// The full catalogue, in e1..e16, a1..a4, p_micro order.
const std::vector<BenchPreset>& bench_presets();

/// The preset named `name`, or nullptr.
const BenchPreset* find_bench_preset(const std::string& name);

/// All preset names joined with ", " — for error messages and --list-presets.
std::string preset_names_joined();

/// The full catalogue rendered as a Markdown reference — name, title, pass
/// criterion, and per-sweep solvers/axes/trials/seed/plot hints. This is
/// what `powersched list-presets --markdown` prints and what
/// docs/presets.md is generated from (CI fails on drift), so the document
/// can never fall behind the code.
std::string preset_catalogue_markdown();

}  // namespace ps::engine
