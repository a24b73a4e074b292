#include "report/report_builder.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <vector>

#include "engine/scenario.hpp"
#include "report/svg_plot.hpp"

namespace ps::report {
namespace {

using engine::BenchPreset;
using engine::ParamMap;
using engine::PlotHint;
using engine::PresetSweep;
using engine::ScenarioSpec;

/// The parameter columns of a sweep CSV: everything between "solver" (first)
/// and "trials" (first fixed statistic) — the schema's column-ordering
/// contract (docs/csv-schema.md).
bool param_columns(const CsvTable& table, std::vector<std::string>& out,
                   const std::string& preset_name) {
  const std::ptrdiff_t trials = table.column("trials");
  if (table.header().empty() || table.header().front() != "solver" ||
      trials < 1) {
    std::fprintf(stderr,
                 "report %s: CSV is not a sweep results file (expected "
                 "'solver' first and a 'trials' column)\n",
                 preset_name.c_str());
    return false;
  }
  out.assign(table.header().begin() + 1,
             table.header().begin() + static_cast<std::size_t>(trials));
  return true;
}

/// Does CSV row `row` hold scenario `spec`? The scenario's parameters must
/// match cell-for-cell against the %.17g cells (and a parameter the
/// scenario lacks must be the empty cell — the union-of-columns encoding).
bool row_matches_spec(const CsvTable& table, std::size_t row,
                      const ScenarioSpec& spec,
                      const std::vector<std::string>& params) {
  if (table.cell(row, 0) != spec.solver) return false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::string& cell = table.cell(row, i + 1);
    if (spec.params.has(params[i])) {
      if (cell != engine::format_param(spec.params.get(params[i], 0.0))) {
        return false;
      }
    } else if (!cell.empty()) {
      return false;
    }
  }
  return true;
}

/// "m_bound_2log2n" -> "bound_2log2n" for labels; other columns unchanged.
std::string pretty_column(const std::string& column) {
  return column.rfind("m_", 0) == 0 ? column.substr(2) : column;
}

/// Series-split label piece for one series column of one row: solver cells
/// read as-is, numeric parameter cells re-rendered %g so a label says
/// "density=0.2", not the CSV's exact "0.2000...1".
std::string series_value_text(const CsvTable& table, std::size_t row,
                              const std::string& column, std::size_t col) {
  const std::string& cell = table.cell(row, col);
  if (column == "solver") return cell;
  double value = 0.0;
  if (table.numeric_cell(row, col, value)) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", value);
    return column + "=" + buffer;
  }
  return column + "=" + cell;
}

/// Markdown-table cell text: pipes would split the cell, so escape them.
std::string md_escape(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '|') out += "\\|";
    else out += ch;
  }
  return out;
}

/// %.6g display form of a CSV cell for the Markdown tables (the %.17g
/// round-trip form stays in the CSV); non-numeric cells pass through with
/// '|' escaped.
std::string md_cell(const CsvTable& table, std::size_t row, std::size_t col) {
  double value = 0.0;
  if (table.numeric_cell(row, col, value)) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return buffer;
  }
  return md_escape(table.cell(row, col));
}

/// Resolves a hint column or fails loudly naming the figure.
bool resolve_column(const CsvTable& table, const std::string& name,
                    const std::string& context, std::size_t& out) {
  const std::ptrdiff_t col = table.column(name);
  if (col < 0) {
    std::fprintf(stderr,
                 "report %s: plot column '%s' is not in the CSV header — "
                 "stale CSV, or a CSV written without the column (e.g. "
                 "--timing off for a wall-time hint)?\n",
                 context.c_str(), name.c_str());
    return false;
  }
  out = static_cast<std::size_t>(col);
  return true;
}

bool write_text_file(const std::filesystem::path& path,
                     const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "report: cannot write '%s'\n", path.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

bool build_preset_report(const BenchPreset& preset, const CsvTable& table,
                         const std::string& out_dir) {
  std::vector<std::string> params;
  if (!param_columns(table, params, preset.name)) return false;

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "report %s: cannot create output dir '%s': %s\n",
                 preset.name.c_str(), out_dir.c_str(),
                 ec.message().c_str());
    return false;
  }

  std::string md;
  md += "# `" + preset.name + "` — " + preset.title + "\n\n";
  md += "<!-- GENERATED FILE — do not edit by hand. Regenerate with\n"
        "       powersched sweep --preset " + preset.name +
        " --csv " + preset.name + ".csv && \\\n"
        "       powersched report --preset " + preset.name +
        " --csv " + preset.name + ".csv --out <dir>\n"
        "     Figures and tables are a pure function of the CSV bytes. -->\n\n";
  if (!preset.pass_criterion.empty()) {
    md += "**Pass criterion:** " + preset.pass_criterion + "\n\n";
  }

  for (std::size_t sweep_index = 0; sweep_index < preset.sweeps.size();
       ++sweep_index) {
    const PresetSweep& preset_sweep = preset.sweeps[sweep_index];
    const PlotHint& hint = preset_sweep.plot;
    const std::string context =
        preset.name + " sweep " + std::to_string(sweep_index + 1);

    // Map the sweep's expanded plan onto CSV rows; a CSV that does not
    // cover the plan (a lone shard's CSV, a stale file) is an error, not a
    // partial figure.
    const std::vector<ScenarioSpec> specs = preset_sweep.plan.expand();
    std::vector<std::size_t> rows;
    rows.reserve(specs.size());
    for (const ScenarioSpec& spec : specs) {
      bool found = false;
      for (std::size_t row = 0; row < table.num_rows(); ++row) {
        if (row_matches_spec(table, row, spec, params)) {
          rows.push_back(row);
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr,
                     "report %s: CSV has no row for scenario %s — pass the "
                     "full (or merged) preset CSV, not a shard's\n",
                     context.c_str(), spec.label().c_str());
        return false;
      }
    }

    // Resolve every hinted column up front.
    std::size_t x_col = 0;
    if (!resolve_column(table, hint.x, context, x_col)) return false;
    std::vector<std::size_t> series_cols;
    for (const std::string& name : hint.series) {
      std::size_t col = 0;
      if (!resolve_column(table, name, context, col)) return false;
      series_cols.push_back(col);
    }
    std::vector<std::size_t> y_cols;
    std::vector<std::ptrdiff_t> err_cols;      // -1 = no ci95 sibling
    std::vector<std::ptrdiff_t> band_lo_cols;  // -1 = no band siblings
    std::vector<std::ptrdiff_t> band_hi_cols;
    for (const std::string& name : hint.y) {
      std::size_t col = 0;
      if (!resolve_column(table, name, context, col)) return false;
      y_cols.push_back(col);
      // A `<stem>_mean` column keys its sibling statistics by the stem; a
      // bare metric column (`m_<name>`) is its own stem. A ci95 sibling
      // adds error bars; the hint's band pair (`<stem>_p5`/`<stem>_p95` by
      // default, present only in `--tails` CSVs) adds a percentile band.
      const std::string stem_mean = "_mean";
      std::string stem = name;
      if (name.size() > stem_mean.size() &&
          name.compare(name.size() - stem_mean.size(), stem_mean.size(),
                       stem_mean) == 0) {
        stem = name.substr(0, name.size() - stem_mean.size());
      }
      err_cols.push_back(stem != name ? table.column(stem + "_ci95") : -1);
      const bool band_named = !hint.band_lo.empty() && !hint.band_hi.empty();
      const std::ptrdiff_t lo =
          band_named ? table.column(stem + "_" + hint.band_lo) : -1;
      const std::ptrdiff_t hi =
          band_named ? table.column(stem + "_" + hint.band_hi) : -1;
      const bool banded = lo >= 0 && hi >= 0;
      band_lo_cols.push_back(banded ? lo : -1);
      band_hi_cols.push_back(banded ? hi : -1);
    }

    // Split rows into series keys (first-appearance order — which is plan
    // order, hence deterministic).
    std::vector<std::string> key_labels;
    std::vector<std::vector<std::size_t>> key_rows;
    std::map<std::string, std::size_t> key_index;
    for (std::size_t row : rows) {
      std::string key;
      std::string label;
      for (std::size_t i = 0; i < series_cols.size(); ++i) {
        key += table.cell(row, series_cols[i]);
        key += '\x1f';
        if (!label.empty()) label += ", ";
        label += series_value_text(table, row, hint.series[i], series_cols[i]);
      }
      const auto [it, inserted] = key_index.emplace(key, key_labels.size());
      if (inserted) {
        key_labels.push_back(label);
        key_rows.emplace_back();
      }
      key_rows[it->second].push_back(row);
    }

    PlotSpec spec;
    spec.title = preset_sweep.caption;
    spec.x_label = hint.x;
    spec.log_x = hint.log_x;
    spec.log_y = hint.log_y;
    if (!hint.y_label.empty()) {
      spec.y_label = hint.y_label;
    } else {
      for (std::size_t i = 0; i < hint.y.size(); ++i) {
        if (i) spec.y_label += " / ";
        spec.y_label += pretty_column(hint.y[i]);
      }
    }
    for (std::size_t k = 0; k < key_labels.size(); ++k) {
      for (std::size_t yi = 0; yi < y_cols.size(); ++yi) {
        PlotSeries series;
        series.label = key_labels[k];
        if (hint.y.size() > 1) {
          if (!series.label.empty()) series.label += " — ";
          series.label += pretty_column(hint.y[yi]);
        }
        for (std::size_t row : key_rows[k]) {
          double x = 0.0, y = 0.0;
          if (!table.numeric_cell(row, x_col, x) ||
              !table.numeric_cell(row, y_cols[yi], y)) {
            continue;  // empty cell = statistic undefined: drop the point
          }
          double err = 0.0;
          if (err_cols[yi] >= 0) {
            table.numeric_cell(row, static_cast<std::size_t>(err_cols[yi]),
                               err);
          }
          const double nan = std::numeric_limits<double>::quiet_NaN();
          double band_lo = nan, band_hi = nan;
          if (band_lo_cols[yi] >= 0 &&
              (!table.numeric_cell(
                   row, static_cast<std::size_t>(band_lo_cols[yi]),
                   band_lo) ||
               !table.numeric_cell(
                   row, static_cast<std::size_t>(band_hi_cols[yi]),
                   band_hi))) {
            band_lo = band_hi = nan;  // empty cell = no band at this point
          }
          series.xs.push_back(x);
          series.ys.push_back(y);
          series.err.push_back(err);
          series.band_lo.push_back(band_lo);
          series.band_hi.push_back(band_hi);
        }
        spec.series.push_back(std::move(series));
      }
    }
    if (spec.series.size() > kMaxPlotSeries) {
      std::fprintf(stderr,
                   "report %s: plot hint yields %zu series (max %zu) — "
                   "narrow the series split or the y columns\n",
                   context.c_str(), spec.series.size(), kMaxPlotSeries);
      return false;
    }

    const std::string svg = render_svg_plot(spec);
    if (svg.empty()) {
      std::fprintf(stderr, "report %s: figure rendering failed\n",
                   context.c_str());
      return false;
    }
    const std::string svg_name =
        preset.name + "-sweep" + std::to_string(sweep_index + 1) + ".svg";
    if (!write_text_file(std::filesystem::path(out_dir) / svg_name, svg)) {
      return false;
    }

    // The sweep section: figure, then the data behind it as a Markdown
    // table — solver, the sweep's own parameters (columns any of its rows
    // fill), trial counts, and the plotted columns.
    md += "## " + md_escape(preset_sweep.caption) + "\n\n";
    md += "![" + md_escape(preset_sweep.caption) + "](" + svg_name + ")\n\n";

    std::vector<std::size_t> table_cols;
    table_cols.push_back(0);  // solver
    for (std::size_t i = 0; i < params.size(); ++i) {
      for (std::size_t row : rows) {
        if (!table.cell(row, i + 1).empty()) {
          table_cols.push_back(i + 1);
          break;
        }
      }
    }
    for (const char* fixed : {"trials", "infeasible"}) {
      const std::ptrdiff_t col = table.column(fixed);
      if (col >= 0) table_cols.push_back(static_cast<std::size_t>(col));
    }
    for (std::size_t i = 0; i < y_cols.size(); ++i) {
      table_cols.push_back(y_cols[i]);
      if (err_cols[i] >= 0) {
        table_cols.push_back(static_cast<std::size_t>(err_cols[i]));
      }
      if (band_lo_cols[i] >= 0) {
        table_cols.push_back(static_cast<std::size_t>(band_lo_cols[i]));
        table_cols.push_back(static_cast<std::size_t>(band_hi_cols[i]));
      }
    }
    md += "|";
    for (std::size_t col : table_cols) {
      md += ' ';
      md += md_escape(table.header()[col]);
      md += " |";
    }
    md += "\n|";
    for (std::size_t i = 0; i < table_cols.size(); ++i) md += "---|";
    md += "\n";
    for (std::size_t row : rows) {
      md += "|";
      for (std::size_t col : table_cols) {
        md += ' ';
        md += md_cell(table, row, col);
        md += " |";
      }
      md += "\n";
    }
    md += "\n";
  }

  return write_text_file(
      std::filesystem::path(out_dir) / (preset.name + ".md"), md);
}

}  // namespace ps::report
