// dispatch_warm — the engine used the other way round: set-up fills shard
// artifacts with a cold 3-shard --tails dispatch of e1..e16, and the timed
// phase repeats warm Dispatcher::run calls (CSV + report sinks) that reuse
// every artifact and run zero trials. Fingerprinting, cache-file parsing,
// merge, CSV emission and SVG rendering are the work; solver time is zero,
// so a kernel change must leave this workload flat.
//
// The traced run alternates untraced and traced repetitions (for the
// tracing overhead), then times each layer's public call on its own:
// compute_source_fingerprint, ScenarioCacheStore::merge_into/save,
// merge_scenario_results, results_csv_text and build_preset_report.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "bench.hpp"
#include "dispatch/dispatcher.hpp"
#include "dispatch/fingerprint.hpp"
#include "engine/bench_presets.hpp"
#include "engine/cache_store.hpp"
#include "engine/result_sink.hpp"
#include "engine/sweep_runner.hpp"
#include "report/csv_table.hpp"
#include "report/report_builder.hpp"

namespace perfbench {
namespace {

namespace eng = ps::engine;
namespace fs = std::filesystem;

constexpr std::size_t kShards = 3;
// Set-up is the median of kFills cold fills into fresh directories, spread
// over the run (each is followed by its share of warm repetitions), so the
// median sees the machine's state across the whole run.
constexpr int kFills = 5;
// Layer probes (traced run only): passes over all 16 presets.
constexpr int kProbePasses = 3;

ps::dispatch::DispatchConfig dispatch_config(const std::string& preset,
                                             const std::string& dir,
                                             const Options& options) {
  ps::dispatch::DispatchConfig config;
  config.base.preset = preset;
  // Serial shards on 3 shard workers: 3 compute threads, below nproc.
  config.base.num_threads = 1;
  config.base.tails = true;
  config.shards = kShards;
  config.workers = kShards;
  config.artifact_dir = dir + "/" + preset;
  config.source_root = options.source_root;
  return config;
}

// One Dispatcher::run with the CSV and report sinks; false on a failed run.
bool dispatch(const std::string& preset, const std::string& dir,
              const std::string& tag, const Options& options,
              ps::dispatch::DispatchReport& report, std::string& csv,
              double& ms) {
  ps::dispatch::Dispatcher dispatcher(dispatch_config(preset, dir, options));
  const std::string csv_path = dir + "/" + preset + "." + tag + ".csv";
  dispatcher.add_sink(std::make_unique<eng::CsvSink>(csv_path));
  dispatcher.add_sink(std::make_unique<eng::SvgReportSink>(dir + "/report-" + tag));
  const double start = now_s();
  const ps::Status status = dispatcher.run(&report);
  ms = (now_s() - start) * 1e3;
  if (!status.ok()) {
    std::fprintf(stderr, "dispatch_warm: %s (%s) failed: %s\n", preset.c_str(),
                 tag.c_str(), status.message().c_str());
    return false;
  }
  return read_file(csv_path, csv);
}

std::vector<std::string> artifact_paths(const std::string& dir,
                                        const std::string& preset) {
  std::vector<std::string> paths;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    paths.push_back(dir + "/" + preset + "/" +
                    ps::dispatch::shard_artifact_name(shard, kShards));
  }
  return paths;
}

struct ProbeTotals {
  std::vector<double> fingerprint_ms, load_ms, merge_ms, emit_ms, render_ms,
      save_ms;
};

// One pass of per-layer calls over every preset's artifacts, each summed
// over the 16 presets so it compares with one warm repetition.
bool probe_layers(const std::vector<std::string>& presets, const std::string& dir,
                  const std::map<std::string, std::string>& fill_csv,
                  const Options& options, Spans& spans, ProbeTotals& totals) {
  bool ok = true;
  double fingerprint = 0.0, load = 0.0, merge = 0.0, emit = 0.0, render = 0.0,
         save = 0.0;
  for (const std::string& name : presets) {
    const eng::BenchPreset& preset = *eng::find_bench_preset(name);
    ps::dispatch::SourceFingerprint print;
    fingerprint += timed_ms(spans, name + " fingerprint", "dispatch", [&] {
      ok = ps::dispatch::compute_source_fingerprint(options.source_root, print)
               .ok() && ok;
    });
    eng::ScenarioCache cache;
    load += timed_ms(spans, name + " merge_into", "cache_store", [&] {
      ok = eng::ScenarioCacheStore::merge_into(artifact_paths(dir, name), cache) &&
           ok;
    });
    std::vector<eng::ScenarioResult> all;
    merge += timed_ms(spans, name + " merge_scenario_results", "engine", [&] {
      for (const eng::PresetSweep& sweep : preset.sweeps) {
        std::vector<eng::ScenarioResult> results;
        ok = eng::merge_scenario_results(sweep.plan.expand(), cache, results) && ok;
        for (auto& result : results) all.push_back(std::move(result));
      }
    });
    std::string csv;
    emit += timed_ms(spans, name + " results_csv_text", "engine",
                     [&] { csv = eng::results_csv_text(all, preset.timing); });
    ok = ok && csv == fill_csv.at(name);
    render += timed_ms(spans, name + " build_preset_report", "report", [&] {
      ps::report::CsvTable table;
      ok = ps::report::CsvTable::parse(csv, table) &&
           ps::report::build_preset_report(preset, table, dir + "/report-probe") &&
           ok;
    });
    save += timed_ms(spans, name + " save", "cache_store", [&] {
      ok = eng::ScenarioCacheStore(dir + "/probe.cache").save(cache) && ok;
    });
  }
  totals.fingerprint_ms.push_back(fingerprint);
  totals.load_ms.push_back(load);
  totals.merge_ms.push_back(merge);
  totals.emit_ms.push_back(emit);
  totals.render_ms.push_back(render);
  totals.save_ms.push_back(save);
  return ok;
}

}  // namespace

Outcome run_dispatch_warm(const Options& options) {
  Outcome out;
  const std::vector<std::string>& presets = paper_presets();
  Spans spans(options.trace);

  // Minimum per preset: a rerun is single-threaded and short (4-150 ms),
  // and each preset reruns about 100 times a run, so every run catches
  // the host's fast state; a median follows how much of the run the host
  // spent slow.
  PassSamples reruns(0.0);
  std::vector<double> fill_s, wall_s, traced_wall_s, reused, launched;
  std::map<std::string, std::string> fill_csv;
  std::string dir;
  SeedRng rng(options.seed);
  double warm_elapsed = 0.0;
  for (int fill = 0; fill < kFills; ++fill) {
    // Set-up sample: a cold fill; its CSVs are the reference every warm
    // rerun must reproduce, and every fill must reproduce the first.
    std::error_code ignored;
    if (!dir.empty()) fs::remove_all(dir, ignored);
    dir = options.work_dir + "/fill" + std::to_string(fill);
    fs::remove_all(dir, ignored);
    const double fill_start = now_s();
    for (const std::string& preset : presets) {
      ps::dispatch::DispatchReport report;
      std::string csv;
      double ms = 0.0;
      const bool ran = dispatch(preset, dir, "fill", options, report, csv, ms);
      const bool cold = report.launched == kShards && report.reused == 0;
      const bool same = fill == 0 || csv == fill_csv[preset];
      if (!(ran && cold && same)) out.check(false);
      fill_csv[preset] = csv;
    }
    fill_s.push_back(now_s() - fill_start);

    // This fill's share of warm repetitions (traced run: each untraced
    // repetition is followed by a traced one over the same order).
    const double segment_end = options.seconds * (fill + 1) / kFills;
    do {
      const double segment_start = now_s();
      const std::vector<std::size_t> order = shuffled_order(presets.size(), rng);
      for (int traced = 0; traced <= (options.trace ? 1 : 0); ++traced) {
        const double start = now_s();
        double rep_reused = 0.0, rep_launched = 0.0;
        for (std::size_t index : order) {
          const std::string& preset = presets[index];
          ps::dispatch::DispatchReport report;
          std::string csv;
          double ms = 0.0;
          const std::uint64_t span_start = ps::obs::now_ns();
          const double cpu_start = process_cpu_s();
          const bool ran = dispatch(preset, dir, "warm", options, report, csv, ms);
          const double cpu = process_cpu_s() - cpu_start;
          if (traced == 1) {
            spans.add(preset + " Dispatcher::run", "dispatch", span_start,
                      ps::obs::now_ns());
          }
          rep_reused += static_cast<double>(report.reused);
          rep_launched += static_cast<double>(report.launched);
          out.check(ran && report.launched == 0 && report.reused == kShards &&
                    csv == fill_csv[preset]);
          if (traced == 0) reruns.add(preset, ms, cpu);
        }
        const double wall = now_s() - start;
        if (traced == 1) {
          traced_wall_s.push_back(wall);
          reused.push_back(rep_reused);
          launched.push_back(rep_launched);
        } else {
          wall_s.push_back(wall);
        }
      }
      warm_elapsed += now_s() - segment_start;
    } while (warm_elapsed < segment_end);
  }

  if (!options.trace) {
    reruns.report(out);
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", median(fill_s), "s");
    out.add("ok_frac",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    std::fprintf(stderr, "dispatch_warm: %zu warm repetitions\n", wall_s.size());
    return out;
  }

  ProbeTotals probes;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    out.check(probe_layers(presets, dir, fill_csv, options, spans, probes));
  }
  double bytes = 0.0;
  for (const std::string& preset : presets) {
    for (const std::string& path : artifact_paths(dir, preset)) {
      std::error_code error;
      const auto size = fs::file_size(path, error);
      if (!error) bytes += static_cast<double>(size);
    }
  }
  out.add("engine.emit_ms", median(probes.emit_ms), "ms");
  out.add("engine.merge_ms", median(probes.merge_ms), "ms");
  out.add("dispatch.fingerprint_ms", median(probes.fingerprint_ms), "ms");
  out.add("dispatch.reused", median(reused), "count");
  out.add("dispatch.launched", median(launched), "count");
  out.add("cache_store.save_ms", median(probes.save_ms), "ms");
  out.add("cache_store.load_ms", median(probes.load_ms), "ms");
  out.add("cache_store.bytes", bytes, "bytes");
  out.add("report.render_ms", median(probes.render_ms), "ms");
  out.add("trace.overhead_pct",
          (median(traced_wall_s) / median(wall_s) - 1.0) * 100.0, "%");
  const std::string trace_path = options.work_dir + "/trace_dispatch_warm.json";
  if (!spans.write(trace_path)) out.check(false);
  std::fprintf(stderr, "dispatch_warm: %zu traced repetitions, trace in %s\n",
               traced_wall_s.size(), trace_path.c_str());
  return out;
}

}  // namespace perfbench
