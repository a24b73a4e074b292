#include "engine/result_sink.hpp"

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "engine/cache_store.hpp"
#include "report/csv_table.hpp"
#include "report/report_builder.hpp"

namespace ps::engine {

Status ensure_parent_directory(const std::string& file_path) {
  namespace fs = std::filesystem;
  const fs::path parent =
      fs::path(file_path).lexically_normal().parent_path();
  if (parent.empty()) return Status();
  std::error_code ec;
  fs::create_directories(parent, ec);
  if (ec) {
    return Status::runtime("cannot create parent directory '" +
                           parent.string() + "' for output path '" +
                           file_path + "': " + ec.message());
  }
  return Status();
}

Status ensure_directory(const std::string& dir_path) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(dir_path).lexically_normal();
  if (dir.empty()) return Status();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::runtime("cannot create output directory '" + dir.string() +
                           "': " + ec.message());
  }
  return Status();
}

// ---------------------------------------------------------------------------
// TableSink

namespace {

/// Resolves a PassRule column name ("ratio_p5", "objective_mean",
/// "m_<name>_p50", ...) against one scenario's accumulators. Returns false
/// when the row does not carry the statistic (unknown stem, no such metric,
/// zero count, or a percentile without retained samples) — the rule then
/// simply does not bind on that row.
bool tail_stat_value(const ScenarioResult& result, const std::string& column,
                     double& out) {
  const std::size_t split = column.rfind('_');
  if (split == std::string::npos || split + 1 >= column.size()) return false;
  const std::string stem = column.substr(0, split);
  const std::string suffix = column.substr(split + 1);
  const util::Accumulator* acc = nullptr;
  if (stem == "objective") {
    acc = &result.objective;
  } else if (stem == "ratio") {
    acc = &result.ratio;
  } else if (stem == "cost") {
    acc = &result.cost;
  } else if (stem == "oracle") {
    acc = &result.oracle_calls;
  } else if (stem.rfind("m_", 0) == 0) {
    const auto it = result.metrics.find(stem.substr(2));
    if (it != result.metrics.end()) acc = &it->second;
  }
  if (acc == nullptr || acc->count() == 0) return false;
  if (suffix == "mean") {
    out = acc->mean();
    return true;
  }
  if (suffix == "min") {
    out = acc->min();
    return true;
  }
  if (suffix == "max") {
    out = acc->max();
    return true;
  }
  if (acc->samples_kept()) {
    const char* const names[] = {"p5", "p25", "p50", "p75", "p95", "p99"};
    const double qs[] = {0.05, 0.25, 0.50, 0.75, 0.95, 0.99};
    for (std::size_t i = 0; i < std::size(names); ++i) {
      if (suffix == names[i]) {
        out = acc->percentile(qs[i]);
        return true;
      }
    }
  }
  return false;
}

}  // namespace

TableSink::TableSink() : TableSink(std::cout) {}

Status TableSink::consume(const SweepBatch& batch) {
  // Tables after the first are separated by one blank line — the exact
  // spacing the legacy preset runner produced.
  const std::string caption =
      (batch.first ? std::string() : std::string("\n")) + batch.caption;
  results_table(*batch.results, caption, batch.timing).print(stream_);
  return Status();
}

Status TableSink::finish(const SinkContext& context) {
  if (context.preset == nullptr) return Status();
  std::string out;
  if (!context.preset->pass_criterion.empty()) {
    out += "\nPASS criterion: " + context.preset->pass_criterion + "\n";
  }

  // Machine-evaluable tail checks bind only when the run retained samples —
  // a streaming run's output stays byte-identical to pre-rule builds.
  std::size_t failed = 0;
  bool tails = false;
  if (context.all_results != nullptr) {
    for (const auto& result : *context.all_results) {
      tails = tails || result.objective.samples_kept();
    }
  }
  if (tails) {
    for (const auto& rule : context.preset->pass_rules) {
      const char* op = rule.op == PassRule::Op::kGe ? ">=" : "<=";
      std::size_t checked = 0;
      double worst = 0.0;
      for (const auto& result : *context.all_results) {
        double value = 0.0;
        if (!tail_stat_value(result, rule.column, value)) continue;
        const bool new_worst =
            checked == 0 ||
            (rule.op == PassRule::Op::kGe ? value < worst : value > worst);
        if (new_worst) worst = value;
        ++checked;
      }
      const bool holds =
          checked > 0 && (rule.op == PassRule::Op::kGe ? worst >= rule.bound
                                                       : worst <= rule.bound);
      if (!holds) ++failed;
      char line[192];
      if (checked == 0) {
        std::snprintf(line, sizeof(line),
                      "tail check %s %s %g: FAILED (no scenario carries the "
                      "statistic)\n",
                      rule.column.c_str(), op, rule.bound);
      } else {
        std::snprintf(line, sizeof(line),
                      "tail check %s %s %g: %s (worst %.6g over %zu "
                      "scenario(s))\n",
                      rule.column.c_str(), op, rule.bound,
                      holds ? "OK" : "FAILED", worst, checked);
      }
      out += line;
    }
  }

  stream_ << out;
  if (failed > 0) {
    return Status::runtime(std::to_string(failed) +
                           " tail pass check(s) failed");
  }
  return Status();
}

// ---------------------------------------------------------------------------
// CsvSink

Status CsvSink::prepare(const SinkContext& context) {
  (void)context;
  return ensure_parent_directory(path_);
}

Status CsvSink::consume(const SweepBatch& batch) {
  (void)batch;  // the CSV is written once, from the run's full result set
  return Status();
}

Status CsvSink::finish(const SinkContext& context) {
  if (!write_results_csv(*context.all_results, path_, context.timing)) {
    return Status::runtime("FAILED to write results CSV '" + path_ + "'");
  }
  std::fprintf(stderr, "wrote %zu aggregated row(s) to %s\n",
               context.all_results->size(), path_.c_str());
  return Status();
}

// ---------------------------------------------------------------------------
// CacheFileSink

Status CacheFileSink::prepare(const SinkContext& context) {
  if (context.cache_file.empty() || context.file_cache == nullptr) {
    return Status::usage(
        "cache-file sink requires a session cache file (set "
        "RunConfig::cache_file)");
  }
  return ensure_parent_directory(context.cache_file);
}

Status CacheFileSink::consume(const SweepBatch& batch) {
  (void)batch;  // entries land in the cache as scenarios complete
  return Status();
}

Status CacheFileSink::finish(const SinkContext& context) {
  if (!ScenarioCacheStore(context.cache_file).save(*context.file_cache)) {
    return Status::runtime("FAILED to write scenario cache '" +
                           context.cache_file + "'");
  }
  return Status();
}

// ---------------------------------------------------------------------------
// SvgReportSink

Status SvgReportSink::prepare(const SinkContext& context) {
  if (context.preset == nullptr) {
    return Status::usage(
        "figure reports need a preset: an ad-hoc --solvers sweep declares "
        "no PlotHints");
  }
  return ensure_directory(out_dir_);
}

Status SvgReportSink::consume(const SweepBatch& batch) {
  (void)batch;  // the report is a pure function of the run's full CSV
  return Status();
}

Status SvgReportSink::finish(const SinkContext& context) {
  const std::string csv =
      results_csv_text(*context.all_results, context.timing);
  report::CsvTable table;
  std::string error;
  if (!report::CsvTable::parse(csv, table, &error)) {
    return Status::runtime("internal: run CSV failed to parse: " + error);
  }
  if (!report::build_preset_report(*context.preset, table, out_dir_)) {
    return Status::runtime("FAILED to build figure report for preset '" +
                           context.preset->name + "' in '" + out_dir_ + "'");
  }
  std::fprintf(stderr, "report: wrote %s/%s.md (%zu figure(s))\n",
               out_dir_.c_str(), context.preset->name.c_str(),
               context.preset->sweeps.size());
  return Status();
}

}  // namespace ps::engine
