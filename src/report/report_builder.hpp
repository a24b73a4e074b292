// Assembles per-preset Markdown + SVG reports from an aggregated sweep CSV:
// the first in-repo consumer of the write_results_csv schema. Each sweep of
// the preset becomes one figure (drawn the way the preset's PlotHint
// declares) plus a Markdown data table; the output is a pure function of
// (preset catalogue, CSV bytes), so reports built from a sharded-merge CSV
// and from an unsharded run are byte-identical — CI diffs exactly that.
#pragma once

#include <string>

#include "engine/bench_presets.hpp"
#include "report/csv_table.hpp"

namespace ps::report {

/// Writes `<out_dir>/<preset>.md` plus `<out_dir>/<preset>-sweep<K>.svg`
/// (K = 1-based sweep index) from `table`, which must be the preset's own
/// aggregated CSV — every scenario of every sweep present as a row (the
/// file `powersched sweep --preset NAME --csv ...` or `powersched merge
/// ... --csv` writes). Returns false after a stderr diagnostic when the CSV does not
/// cover the preset's plan (e.g. a lone shard CSV), a hinted column is
/// missing, a figure exceeds the series budget, or a file cannot be
/// written. `out_dir` is created if absent.
bool build_preset_report(const engine::BenchPreset& preset,
                         const CsvTable& table, const std::string& out_dir);

}  // namespace ps::report
