// paper_cold — the paper's experiments e1..e16, each at its defaults through
// engine::Session with a CsvSink, from cold caches, exactly as a user pays
// for them on every CLI run. One repetition runs all 16 presets in an order
// drawn from the workload seed; the preset seeds stay at their defaults so
// every CSV can be checked against the digest recorded from a known-good
// tree (perfbench/paper_digests.txt).
//
// The traced run alternates an untraced repetition (the same Session path)
// with a traced one that drives each preset's sweeps through
// SweepRunner::run over a registry of timed solvers, so trials, the thread
// pool, the reference cache and CSV emission each get their own numbers.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "engine/bench_presets.hpp"
#include "engine/reference_cache.hpp"
#include "engine/result_sink.hpp"
#include "engine/session.hpp"
#include "engine/sweep_runner.hpp"
#include "trial_log.hpp"

namespace perfbench {
namespace {

namespace eng = ps::engine;

// num_threads = 2 gives 3 compute threads (SweepRunner's caller joins
// parallel_for): below the 4 cores the benchmark was sized on.
constexpr int kThreads = 2;
constexpr std::size_t kComputeThreads = kThreads + 1;

void make_cold() {
  eng::ScenarioCache::global().clear();
  eng::clear_reference_cache();
}

// A run that finds warm state must fail: warm caches would pass as a
// speed-up. clear_reference_cache zeroes the counters, and every insert
// follows a miss, so zero counters mean an empty reference cache.
bool caches_cold() {
  const eng::ReferenceCacheStats ref = eng::reference_cache_stats();
  return eng::ScenarioCache::global().size() == 0 && ref.hits == 0 &&
         ref.misses == 0;
}

eng::RunConfig preset_config(const std::string& preset) {
  eng::RunConfig config;
  config.preset = preset;
  config.num_threads = kThreads;
  return config;
}

// One preset through Session + CsvSink. Returns false on a failed run;
// `ms` covers Session::run (plan, trials, CSV write).
bool run_session(const std::string& preset, const std::string& csv_path,
                 double& ms, std::string& csv) {
  eng::Session session(preset_config(preset));
  session.add_sink(std::make_unique<eng::CsvSink>(csv_path));
  const double start = now_s();
  const ps::Status status = session.run();
  ms = (now_s() - start) * 1e3;
  if (!status.ok()) {
    std::fprintf(stderr, "paper_cold: %s failed: %s\n", preset.c_str(),
                 status.message().c_str());
    return false;
  }
  return read_file(csv_path, csv);
}

struct TracedTotals {
  TrialStats trials;
  std::map<std::string, std::vector<double>> run_ms;  // per preset
  std::vector<double> emit_ms;                        // per repetition
  std::vector<double> ref_misses, ref_hits;           // per repetition
  std::vector<double> trials_run, oracle_calls;       // per repetition
};

// One preset through SweepRunner over the timed registry — the same sweeps,
// thread count and global scenario cache Session uses — plus CSV emission.
std::string run_traced(const eng::BenchPreset& preset,
                       const eng::SolverRegistry& registry, Spans& spans,
                       TracedTotals& totals, double& emit_ms, double& trials_run,
                       double& oracle_calls) {
  eng::SweepOptions sweep_options;
  sweep_options.num_threads = kThreads;
  sweep_options.use_cache = true;
  const eng::SweepRunner runner(sweep_options);
  std::vector<eng::ScenarioResult> all;
  const std::uint64_t start = ps::obs::now_ns();
  for (const eng::PresetSweep& sweep : preset.sweeps) {
    const std::vector<eng::ScenarioSpec> specs = sweep.plan.expand();
    const std::uint64_t sweep_start = ps::obs::now_ns();
    std::vector<eng::ScenarioResult> results = runner.run(registry, specs);
    const std::uint64_t sweep_end = ps::obs::now_ns();
    spans.add(preset.name + " sweep", "pool", sweep_start, sweep_end);
    totals.trials.add_sweep(TrialLog::global().drain(), sweep_start, sweep_end,
                            kComputeThreads);
    for (auto& result : results) all.push_back(std::move(result));
  }
  std::string csv;
  emit_ms += timed_ms(spans, preset.name + " results_csv_text", "engine",
                      [&] { csv = eng::results_csv_text(all, preset.timing); });
  spans.add(preset.name, "engine", start, ps::obs::now_ns());
  totals.run_ms[preset.name].push_back(
      static_cast<double>(ps::obs::now_ns() - start) * 1e-6);
  for (const auto& result : all) {
    trials_run += static_cast<double>(result.trials_run);
    oracle_calls += result.oracle_calls.sum();
  }
  return csv;
}

// One set-up sample: the registry build inside each Session plus
// Session::prepare, for all 16 presets. It is well under a millisecond and
// its speed drifts with the machine's state, so a sample is taken before
// every preset run and the median over the whole run reported.
bool setup_sample(double& setup_s, double& prepare_ms) {
  bool ok = true;
  setup_s = 0.0;
  prepare_ms = 0.0;
  for (const std::string& preset : paper_presets()) {
    const double start = now_s();
    eng::Session session(preset_config(preset));
    const double built = now_s();
    ok = session.prepare().ok() && ok;
    const double end = now_s();
    setup_s += end - start;
    prepare_ms += (end - built) * 1e3;
  }
  return ok;
}

bool load_digests(const std::string& path,
                  std::map<std::string, std::uint64_t>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    if (!(fields >> name >> hex)) return false;
    out[name] = std::stoull(hex, nullptr, 16);
  }
  return out.size() == 16;
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

}  // namespace

std::string record_digests(const Options& options) {
  std::string out =
      "# FNV-1a 64 of each preset's CSV (Session + CsvSink, defaults, tails\n"
      "# off), written by `perfbench --record-digests`.\n";
  for (const std::string& preset : paper_presets()) {
    make_cold();
    double ms = 0.0;
    std::string csv;
    if (!run_session(preset, options.work_dir + "/" + preset + ".csv", ms, csv)) {
      return "";
    }
    out += preset + " " + hex64(fnv1a64(csv)) + "\n";
  }
  return out;
}

Outcome run_paper_cold(const Options& options) {
  Outcome out;
  std::map<std::string, std::uint64_t> digests;
  if (!load_digests(options.digests_path, digests)) {
    std::fprintf(stderr, "paper_cold: cannot read 16 digests from '%s'\n",
                 options.digests_path.c_str());
    out.check(false);
    return out;
  }
  const std::vector<std::string>& presets = paper_presets();
  Spans spans(options.trace);

  const eng::SolverRegistry builtins = eng::SolverRegistry::with_builtins();
  const eng::SolverRegistry timed = timed_registry(builtins);
  TracedTotals totals;
  SeedRng rng(options.seed);
  // Medians: e1 alone is 1.5 s on 3 threads and runs about 10 times, so
  // the host's fast state rarely covers a whole run of it, and a low
  // quantile flips between the host's two speeds from run to run.
  PassSamples runs(0.5);
  std::vector<double> wall_s, traced_wall_s, setup_s, prepare_ms;
  const double phase_start = now_s();
  while (wall_s.empty() || now_s() - phase_start < options.seconds) {
    const std::vector<std::size_t> order = shuffled_order(presets.size(), rng);
    // Untraced repetition: the user path, Session + CsvSink per preset.
    // Its wall and CPU time cover the Session::run calls only.
    double rep_wall = 0.0;
    for (std::size_t index : order) {
      const std::string& preset = presets[index];
      double setup = 0.0, prepare = 0.0;
      if (!setup_sample(setup, prepare)) out.check(false);
      setup_s.push_back(setup);
      prepare_ms.push_back(prepare);
      make_cold();
      const bool cold = caches_cold();
      double ms = 0.0;
      std::string csv;
      const double cpu_start = process_cpu_s();
      const bool ran = run_session(
          preset, options.work_dir + "/" + preset + ".csv", ms, csv);
      runs.add(preset, ms, process_cpu_s() - cpu_start);
      rep_wall += ms * 1e-3;
      out.check(cold && ran && fnv1a64(csv) == digests[preset]);
    }
    wall_s.push_back(rep_wall);
    if (!options.trace) continue;

    // Traced repetition over the timed registry.
    double traced_wall = 0.0;
    double emit = 0.0, misses = 0.0, hits = 0.0, trials_run = 0.0,
           oracle_calls = 0.0;
    for (std::size_t index : order) {
      const eng::BenchPreset& preset = *eng::find_bench_preset(presets[index]);
      make_cold();
      const bool cold = caches_cold();
      const double start = now_s();
      const std::string csv = run_traced(preset, timed, spans, totals, emit,
                                         trials_run, oracle_calls);
      traced_wall += now_s() - start;
      const eng::ReferenceCacheStats ref = eng::reference_cache_stats();
      misses += static_cast<double>(ref.misses);
      hits += static_cast<double>(ref.hits);
      out.check(cold && fnv1a64(csv) == digests[preset.name]);
    }
    traced_wall_s.push_back(traced_wall);
    totals.emit_ms.push_back(emit);
    totals.ref_misses.push_back(misses);
    totals.ref_hits.push_back(hits);
    totals.trials_run.push_back(trials_run);
    totals.oracle_calls.push_back(oracle_calls);
  }

  if (!options.trace) {
    runs.report(out);
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", median(setup_s), "s");
    out.add("ok_frac",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    std::fprintf(stderr, "paper_cold: %zu repetitions\n", wall_s.size());
    return out;
  }

  const std::size_t reps = traced_wall_s.size();
  // The work counts are exact: every traced pass must repeat them.
  for (const auto* counts : {&totals.trials_run, &totals.oracle_calls}) {
    out.check(std::equal(counts->begin() + 1, counts->end(), counts->begin()));
  }
  out.add("engine.prepare_ms", median(prepare_ms), "ms");
  for (const std::string& preset : presets) {
    out.add("engine.run_ms." + preset, median(totals.run_ms[preset]), "ms");
  }
  out.add("engine.trials", median(totals.trials_run), "count");
  out.add("engine.oracle_calls", median(totals.oracle_calls), "count");
  out.add("engine.emit_ms", median(totals.emit_ms), "ms");
  totals.trials.report_trials(out, reps);
  out.add("reference.misses", median(totals.ref_misses), "count");
  out.add("reference.hits", median(totals.ref_hits), "count");
  totals.trials.report_pool(out, reps);
  out.add("trace.overhead_pct",
          (median(traced_wall_s) / median(wall_s) - 1.0) * 100.0, "%");
  const std::string trace_path = options.work_dir + "/trace_paper_cold.json";
  if (!spans.write(trace_path)) out.check(false);
  std::fprintf(stderr, "paper_cold: %zu traced repetitions, trace in %s\n",
               reps, trace_path.c_str());
  return out;
}

}  // namespace perfbench
