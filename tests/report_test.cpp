// Tests for the figure-reproduction pipeline (src/report/): the CsvTable
// reader against the exact write_results_csv schema (incl. the dry-run
// header of every preset), SVG renderer byte-determinism against a golden
// file, plot-hint well-formedness for the whole catalogue, and the
// acceptance property that a report built from a sharded-merge CSV is
// byte-identical to one built from an unsharded run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/bench_presets.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"
#include "engine/session.hpp"
#include "engine/sweep_runner.hpp"
#include "report/csv_table.hpp"
#include "report/report_builder.hpp"
#include "report/svg_plot.hpp"

namespace ps::report {
namespace {

using engine::BenchPreset;
using engine::PlotHint;
using engine::ScenarioResult;
using engine::ScenarioSpec;
using engine::SweepPlan;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Directory contents as filename -> bytes (for whole-report comparisons).
std::map<std::string, std::string> read_dir(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    out[entry.path().filename().string()] = read_file(entry.path());
  }
  return out;
}

/// One-trial e15 run through engine::Session: `config` carries the
/// shard/cache/merge wiring; a CacheFileSink joins when it names a cache
/// file, a CsvSink when `csv_path` is set.
Status run_e15(engine::RunConfig config, const std::string& csv_path) {
  config.preset = "e15";
  config.trials = 1;
  const bool has_cache_file = !config.cache_file.empty();
  engine::Session session(std::move(config));
  if (has_cache_file) {
    session.add_sink(std::make_unique<engine::CacheFileSink>());
  }
  if (!csv_path.empty()) {
    session.add_sink(std::make_unique<engine::CsvSink>(csv_path));
  }
  return session.run();
}

TEST(CsvTable, ParsesQuotingEmptyCellsAndCrlf) {
  const std::string text =
      "a,b,c\r\n"
      "plain,\"has,comma\",\"has\"\"quote\"\n"
      ",\"multi\nline\",3.5\n";
  CsvTable table;
  std::string error;
  ASSERT_TRUE(CsvTable::parse(text, table, &error)) << error;
  ASSERT_EQ(table.header(), (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.cell(0, 1), "has,comma");
  EXPECT_EQ(table.cell(0, 2), "has\"quote");
  EXPECT_EQ(table.cell(1, 0), "");
  EXPECT_EQ(table.cell(1, 1), "multi\nline");
  double value = 0.0;
  EXPECT_FALSE(table.numeric_cell(1, 0, value));  // empty = undefined
  EXPECT_FALSE(table.numeric_cell(0, 0, value));  // non-numeric
  EXPECT_TRUE(table.numeric_cell(1, 2, value));
  EXPECT_EQ(value, 3.5);
  EXPECT_EQ(table.column("c"), 2);
  EXPECT_EQ(table.column("nope"), -1);
}

TEST(CsvTable, MissingFinalNewlineAndLoneHeader) {
  CsvTable table;
  ASSERT_TRUE(CsvTable::parse("x,y\n1,2", table));
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.cell(0, 1), "2");
  ASSERT_TRUE(CsvTable::parse("only,header\n", table));
  EXPECT_EQ(table.num_rows(), 0u);
  // A quoted-empty final cell at EOF is still a row.
  ASSERT_TRUE(CsvTable::parse("x,y\n1,\"\"", table));
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.cell(0, 1), "");
}

TEST(CsvTable, RejectsRaggedRowsUnterminatedQuoteAndEmptyInput) {
  CsvTable table;
  std::string error;
  EXPECT_FALSE(CsvTable::parse("a,b\n1,2,3\n", table, &error));
  EXPECT_NE(error.find("row 1"), std::string::npos) << error;
  EXPECT_FALSE(CsvTable::parse("a,b\n\"unterminated\n", table, &error));
  EXPECT_FALSE(CsvTable::parse("", table, &error));
  EXPECT_FALSE(CsvTable::load("/nonexistent/definitely_missing.csv", table));
}

// The reader against the writer, for every preset: a dry "run" (zero
// trials executed) still emits the full union-of-columns header and
// empty-cell statistics, and CsvTable must round-trip it exactly.
TEST(CsvTable, RoundTripsEveryPresetDryRunHeader) {
  for (const BenchPreset& preset : engine::bench_presets()) {
    std::vector<ScenarioResult> results;
    std::set<std::string> param_union;
    for (const auto& preset_sweep : preset.sweeps) {
      for (const ScenarioSpec& spec : preset_sweep.plan.expand()) {
        ScenarioResult result;
        result.spec = spec;
        results.push_back(result);
        for (const auto& [name, value] : spec.params.values()) {
          param_union.insert(name);
        }
      }
    }
    const std::string path = ::testing::TempDir() + "dry_" + preset.name +
                             ".csv";
    ASSERT_TRUE(engine::write_results_csv(results, path, preset.timing))
        << preset.name;
    CsvTable table;
    ASSERT_TRUE(CsvTable::load(path, table)) << preset.name;
    std::remove(path.c_str());

    // Schema: solver first, then the sorted parameter union, then the
    // fixed statistics starting at "trials".
    ASSERT_FALSE(table.header().empty());
    EXPECT_EQ(table.header().front(), "solver");
    const std::ptrdiff_t trials_col = table.column("trials");
    ASSERT_GT(trials_col, 0) << preset.name;
    const std::vector<std::string> params(
        table.header().begin() + 1,
        table.header().begin() + static_cast<std::size_t>(trials_col));
    EXPECT_EQ(params,
              std::vector<std::string>(param_union.begin(), param_union.end()))
        << preset.name;
    for (const char* column :
         {"infeasible", "objective_mean", "objective_ci95", "ratio_mean",
          "ratio_max", "cost_mean", "oracle_mean"}) {
      EXPECT_GE(table.column(column), 0) << preset.name << " " << column;
    }
    EXPECT_EQ(table.column("wall_ms_mean") >= 0, preset.timing)
        << preset.name;

    ASSERT_EQ(table.num_rows(), results.size()) << preset.name;
    // Zero trials ran: every statistic cell is empty (never NaN, never 0),
    // and numeric_cell refuses them.
    const std::size_t mean_col =
        static_cast<std::size_t>(table.column("objective_mean"));
    for (std::size_t row = 0; row < table.num_rows(); ++row) {
      double value = 0.0;
      EXPECT_FALSE(table.numeric_cell(row, mean_col, value));
      EXPECT_TRUE(table.numeric_cell(
          row, static_cast<std::size_t>(trials_col), value));
      EXPECT_EQ(value, 0.0);
    }
  }
}

// Static well-formedness of the whole plot-hint catalogue: each hint's x
// and series columns name real sweep parameters (or "solver"), its y
// columns are legal schema columns, and the series split stays inside the
// renderer's fixed 8-color budget.
TEST(PlotHints, EveryPresetDeclaresAWellFormedFigure) {
  const std::set<std::string> core_stats{
      "trials",        "infeasible",       "objective_mean",
      "objective_stddev", "objective_ci95", "objective_min",
      "objective_max", "ratio_mean",       "ratio_max",
      "cost_mean",     "oracle_mean"};
  for (const BenchPreset& preset : engine::bench_presets()) {
    for (const auto& preset_sweep : preset.sweeps) {
      const SweepPlan& plan = preset_sweep.plan;
      const PlotHint& hint = preset_sweep.plot;
      const std::string context = preset.name + ": " + preset_sweep.caption;

      const auto param_cardinality =
          [&plan](const std::string& name) -> std::size_t {
        for (const auto& axis : plan.axes) {
          if (axis.name == name) {
            return std::set<double>(axis.values.begin(), axis.values.end())
                .size();
          }
        }
        return plan.base_params.has(name) ? 1u : 0u;
      };

      ASSERT_FALSE(hint.x.empty()) << context;
      EXPECT_GT(param_cardinality(hint.x), 0u)
          << context << ": x '" << hint.x << "' is not a sweep parameter";
      ASSERT_FALSE(hint.y.empty()) << context;
      for (const std::string& column : hint.y) {
        const bool metric = column.rfind("m_", 0) == 0 && column.size() > 2;
        const bool wall = column == "wall_ms_mean";
        EXPECT_TRUE(core_stats.count(column) > 0 || metric ||
                    (wall && preset.timing))
            << context << ": y '" << column << "' is not a schema column";
      }

      std::size_t split = 1;
      for (const std::string& column : hint.series) {
        if (column == "solver") {
          split *= plan.solvers.size();
          continue;
        }
        const std::size_t cardinality = param_cardinality(column);
        EXPECT_GT(cardinality, 0u) << context << ": series '" << column
                                   << "' is not a sweep parameter";
        split *= cardinality > 0 ? cardinality : 1;
      }
      EXPECT_LE(split * hint.y.size(), kMaxPlotSeries) << context;
    }
  }
}

TEST(PresetCatalogueMarkdown, CoversEveryPresetAndMarksGenerated) {
  const std::string doc = engine::preset_catalogue_markdown();
  EXPECT_NE(doc.find("GENERATED FILE"), std::string::npos);
  for (const BenchPreset& preset : engine::bench_presets()) {
    EXPECT_NE(doc.find("## `" + preset.name + "` — " + preset.title),
              std::string::npos)
        << preset.name;
    EXPECT_NE(doc.find(preset.pass_criterion), std::string::npos)
        << preset.name;
  }
  // Two invocations produce identical bytes (the docs drift check in CI
  // depends on this).
  EXPECT_EQ(doc, engine::preset_catalogue_markdown());
}

PlotSpec golden_spec() {
  PlotSpec spec;
  spec.title = "golden: two series & error bars";
  spec.x_label = "n";
  spec.y_label = "ratio";
  PlotSeries a;
  a.label = "alpha";
  a.xs = {1.0, 2.0, 4.0};
  a.ys = {1.5, 1.25, 1.125};
  a.err = {0.25, 0.125, 0.0};
  PlotSeries b;
  b.label = "beta <escaped & \"quoted\">";
  b.xs = {1.0, 2.0, 4.0};
  b.ys = {2.0, 2.5, 2.25};
  spec.series = {a, b};
  return spec;
}

// Byte-determinism pinned against a committed golden file. Regenerate
// after an intentional renderer change with
//   POWERSCHED_UPDATE_GOLDEN=1 ./build/report_test
// and commit the diff.
TEST(SvgPlot, GoldenFileByteDeterminism) {
  const std::string svg = render_svg_plot(golden_spec());
  ASSERT_FALSE(svg.empty());
  EXPECT_EQ(svg, render_svg_plot(golden_spec()));  // pure function

  const std::filesystem::path golden =
      std::filesystem::path(POWERSCHED_SOURCE_DIR) / "tests" / "data" /
      "golden_plot.svg";
  if (std::getenv("POWERSCHED_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << svg;
    ASSERT_TRUE(static_cast<bool>(out));
    GTEST_SKIP() << "golden updated at " << golden;
  }
  EXPECT_EQ(svg, read_file(golden))
      << "renderer output changed; regenerate with "
         "POWERSCHED_UPDATE_GOLDEN=1 if intentional";
}

/// golden_spec() with a p5–p95 percentile band on the first series — one
/// point's band marked NaN (no retained samples there) to pin the
/// band-gap behavior alongside the happy path.
PlotSpec banded_golden_spec() {
  PlotSpec spec = golden_spec();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  spec.series[0].band_lo = {1.125, nan, 1.0};
  spec.series[0].band_hi = {2.0, nan, 1.375};
  return spec;
}

// The banded renderer pinned against its own golden file — and the
// band-free spec must render byte-identically to the pre-bands golden
// (same file as SvgPlot.GoldenFileByteDeterminism), proving bands are
// strictly additive.
TEST(SvgPlot, PercentileBandGoldenFileByteDeterminism) {
  const std::string svg = render_svg_plot(banded_golden_spec());
  ASSERT_FALSE(svg.empty());
  EXPECT_EQ(svg, render_svg_plot(banded_golden_spec()));  // pure function
  EXPECT_NE(svg.find("<polygon"), std::string::npos);
  // No bands requested -> no band markup at all.
  EXPECT_EQ(render_svg_plot(golden_spec()).find("<polygon"),
            std::string::npos);

  const std::filesystem::path golden =
      std::filesystem::path(POWERSCHED_SOURCE_DIR) / "tests" / "data" /
      "golden_plot_bands.svg";
  if (std::getenv("POWERSCHED_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << svg;
    ASSERT_TRUE(static_cast<bool>(out));
    GTEST_SKIP() << "golden updated at " << golden;
  }
  EXPECT_EQ(svg, read_file(golden))
      << "band renderer output changed; regenerate with "
         "POWERSCHED_UPDATE_GOLDEN=1 if intentional";
}

TEST(SvgPlot, BandRequiresTwoFinitePointsAndClampsOnLogY) {
  // A single banded point renders no polygon (nothing to ribbon between).
  PlotSpec spec = golden_spec();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  spec.series[0].band_lo = {1.0, nan, nan};
  spec.series[0].band_hi = {2.0, nan, nan};
  EXPECT_EQ(render_svg_plot(spec).find("<polygon"), std::string::npos);

  // On a log y axis a non-positive band edge cannot be mapped; the point
  // drops out of the ribbon rather than poisoning the transform.
  PlotSpec log_spec = golden_spec();
  log_spec.log_y = true;
  log_spec.series[0].band_lo = {-1.0, 1.0, 1.0};
  log_spec.series[0].band_hi = {2.0, 2.0, 2.0};
  const std::string svg = render_svg_plot(log_spec);
  ASSERT_FALSE(svg.empty());
  EXPECT_NE(svg.find("<polygon"), std::string::npos);  // 2 good points left
}

TEST(SvgPlot, DropsUnplottablePointsAndRefusesOversizedSpecs) {
  PlotSpec spec = golden_spec();
  spec.log_x = spec.log_y = true;
  spec.series[0].xs[0] = 0.0;   // dropped on log x
  spec.series[1].ys[0] = -1.0;  // dropped on log y
  const std::string svg = render_svg_plot(spec);
  ASSERT_FALSE(svg.empty());
  EXPECT_NE(svg.find("(log scale)"), std::string::npos);

  PlotSpec empty;
  EXPECT_TRUE(render_svg_plot(empty).empty());  // no series = error
  PlotSpec oversized = golden_spec();
  while (oversized.series.size() <= kMaxPlotSeries) {
    oversized.series.push_back(oversized.series[0]);
  }
  EXPECT_TRUE(render_svg_plot(oversized).empty());

  // All points unplottable: still a valid document, flagged as empty.
  PlotSpec hollow;
  hollow.log_y = true;
  PlotSeries s;
  s.label = "gone";
  s.xs = {1.0};
  s.ys = {-2.0};
  hollow.series = {s};
  const std::string placeholder = render_svg_plot(hollow);
  EXPECT_NE(placeholder.find("no plottable data"), std::string::npos);
}

// The acceptance property: a report built from the CSV a 3-shard
// cache-file merge emits is byte-identical to one built from an unsharded
// single-process run — and a rebuild from the same CSV is byte-identical
// too.
TEST(ReportBuilder, ShardedMergeReportIdenticalToUnsharded) {
  const BenchPreset* preset = engine::find_bench_preset("e15");
  ASSERT_NE(preset, nullptr);
  const std::filesystem::path tmp =
      std::filesystem::path(::testing::TempDir()) / "report_shard_test";
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp);

  const std::string unsharded_csv = (tmp / "unsharded.csv").string();
  ASSERT_TRUE(run_e15({}, unsharded_csv).ok());

  std::vector<std::string> cache_files;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    engine::RunConfig config;
    config.shard_index = shard;
    config.shard_count = 3;
    config.cache_file =
        (tmp / ("shard" + std::to_string(shard) + ".cache")).string();
    cache_files.push_back(config.cache_file);
    ASSERT_TRUE(run_e15(std::move(config), "").ok()) << shard;
  }
  const std::string merged_csv = (tmp / "merged.csv").string();
  engine::RunConfig merge;
  merge.merge_files = cache_files;
  ASSERT_TRUE(run_e15(std::move(merge), merged_csv).ok());
  EXPECT_EQ(read_file(unsharded_csv), read_file(merged_csv));

  CsvTable unsharded_table, merged_table;
  ASSERT_TRUE(CsvTable::load(unsharded_csv, unsharded_table));
  ASSERT_TRUE(CsvTable::load(merged_csv, merged_table));
  const std::string dir_a = (tmp / "report_unsharded").string();
  const std::string dir_b = (tmp / "report_merged").string();
  const std::string dir_c = (tmp / "report_again").string();
  ASSERT_TRUE(build_preset_report(*preset, unsharded_table, dir_a));
  ASSERT_TRUE(build_preset_report(*preset, merged_table, dir_b));
  ASSERT_TRUE(build_preset_report(*preset, unsharded_table, dir_c));

  const auto files_a = read_dir(dir_a);
  EXPECT_EQ(files_a, read_dir(dir_b));  // sharded == unsharded, byte-wise
  EXPECT_EQ(files_a, read_dir(dir_c));  // repeated build, byte-wise

  // One Markdown page embedding one SVG figure per sweep, whose
  // regeneration recipe names the commands that exist.
  ASSERT_TRUE(files_a.count("e15.md") == 1);
  EXPECT_NE(files_a.at("e15.md").find("powersched sweep --preset e15"),
            std::string::npos);
  EXPECT_EQ(files_a.at("e15.md").find("powersched_"), std::string::npos);
  std::size_t figures = 0;
  for (const auto& [name, bytes] : files_a) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".svg") == 0) {
      ++figures;
      EXPECT_NE(files_a.at("e15.md").find("](" + name + ")"),
                std::string::npos)
          << name << " not embedded";
      EXPECT_EQ(bytes.rfind("<svg", 0), 0u) << name;
    }
  }
  EXPECT_EQ(figures, preset->sweeps.size());

  std::filesystem::remove_all(tmp);
}

TEST(ReportBuilder, FailsClosedOnShardCsvAndMissingColumns) {
  const BenchPreset* preset = engine::find_bench_preset("e15");
  ASSERT_NE(preset, nullptr);
  const std::filesystem::path tmp =
      std::filesystem::path(::testing::TempDir()) / "report_fail_test";
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp);

  // A lone shard's CSV does not cover the plan: the report must refuse,
  // not render a partial figure.
  const std::string shard_csv = (tmp / "shard0.csv").string();
  engine::RunConfig shard0;
  shard0.shard_index = 0;
  shard0.shard_count = 3;
  ASSERT_TRUE(run_e15(std::move(shard0), shard_csv).ok());
  CsvTable shard_table;
  ASSERT_TRUE(CsvTable::load(shard_csv, shard_table));
  EXPECT_FALSE(
      build_preset_report(*preset, shard_table, (tmp / "out").string()));

  // A structurally alien CSV (no solver/trials framing) must refuse too.
  CsvTable alien;
  ASSERT_TRUE(CsvTable::parse("foo,bar\n1,2\n", alien));
  EXPECT_FALSE(build_preset_report(*preset, alien, (tmp / "out").string()));

  std::filesystem::remove_all(tmp);
}

}  // namespace
}  // namespace ps::report
