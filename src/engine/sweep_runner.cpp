#include "engine/sweep_runner.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/time.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace ps::engine {
namespace {

struct TrialSlot {
  TrialResult result;
  double wall_ms = 0.0;
};

/// Formats an accumulator statistic, or "" when fewer than `min_count`
/// samples exist — the statistic is undefined there, and an empty CSV cell
/// is the contract (never NaN, never a misleading 0).
std::string stat_cell(const util::Accumulator& acc, double value,
                      std::size_t min_count) {
  return acc.count() >= min_count ? format_param(value) : std::string();
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Reservoir seed for one accumulator stream of one scenario: a pure
/// function of the scenario identity and the stream name, so a capped
/// retention subset is deterministic across runs, shards, and thread counts
/// (aggregation always consumes trials in order on one thread).
std::uint64_t reservoir_seed(const ScenarioSpec& spec,
                             const std::string& stream) {
  return fnv1a64(scenario_cache_key(spec) + '|' + stream);
}

util::Accumulator make_retaining(const ScenarioSpec& spec,
                                 const std::string& stream,
                                 std::size_t tails_cap) {
  util::Accumulator acc(/*keep_samples=*/true);
  if (tails_cap > 0) acc.set_reservoir(tails_cap, reservoir_seed(spec, stream));
  return acc;
}

ScenarioResult aggregate(const ScenarioSpec& spec,
                         const std::vector<TrialSlot>& slots,
                         bool keep_samples, std::size_t tails_cap) {
  ScenarioResult result;
  result.spec = spec;
  if (keep_samples) {
    result.objective = make_retaining(spec, "objective", tails_cap);
    result.ratio = make_retaining(spec, "ratio", tails_cap);
    result.cost = make_retaining(spec, "cost", tails_cap);
    result.oracle_calls = make_retaining(spec, "oracle_calls", tails_cap);
  }
  for (const TrialSlot& slot : slots) {
    ++result.trials_run;
    result.wall_ms.add(slot.wall_ms);
    if (!slot.result.feasible) {
      ++result.infeasible;
      continue;
    }
    result.objective.add(slot.result.objective);
    result.cost.add(slot.result.cost);
    result.oracle_calls.add(slot.result.oracle_calls);
    if (slot.result.reference > 0.0) {
      result.ratio.add(slot.result.objective / slot.result.reference);
    }
    for (const auto& [name, value] : slot.result.metrics) {
      auto [it, inserted] = result.metrics.try_emplace(name, keep_samples);
      if (inserted && keep_samples && tails_cap > 0) {
        it->second.set_reservoir(tails_cap,
                                 reservoir_seed(spec, "m_" + name));
      }
      it->second.add(value);
    }
  }
  return result;
}

/// Tail columns exist only when a result retained samples and observed at
/// least one reading; otherwise the cell is empty like any other undefined
/// statistic.
std::string percentile_cell(const util::Accumulator& acc, double q) {
  return acc.samples_kept() && acc.count() > 0 ? format_param(acc.percentile(q))
                                               : std::string();
}

/// Whether any result carries retained samples — the trigger for emitting
/// the percentile column block. With `--tails` off no result retains
/// samples, so the schema (and every golden byte) is unchanged.
bool any_samples_kept(const std::vector<ScenarioResult>& results) {
  for (const auto& result : results) {
    if (result.objective.samples_kept()) return true;
  }
  return false;
}

}  // namespace

std::string scenario_cache_key(const ScenarioSpec& spec) {
  std::string key = spec.label();
  key += "|algo=";
  for (const auto& name : spec.algo_params) {
    key += name;
    key += ';';
  }
  key += "|seed=" + std::to_string(spec.seed);
  key += "|trials=" + std::to_string(spec.trials);
  return key;
}

ScenarioCache& ScenarioCache::global() {
  static ScenarioCache cache;
  return cache;
}

std::shared_ptr<const ScenarioResult> ScenarioCache::find(
    const std::string& key) {
  std::shared_ptr<const ScenarioResult> found;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
    } else {
      ++stats_.hits;
      found = it->second;
    }
  }
  if (obs::enabled()) {
    obs::Registry::global()
        .counter(found != nullptr ? "cache.scenario.hits"
                                  : "cache.scenario.misses")
        .add(1);
  }
  return found;
}

void ScenarioCache::insert(const std::string& key,
                           std::shared_ptr<const ScenarioResult> result) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.insert_or_assign(key, std::move(result));
  }
  if (obs::enabled()) {
    obs::Registry::global().counter("cache.scenario.inserts").add(1);
  }
}

std::shared_ptr<const ScenarioResult> ScenarioCache::peek(
    const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, std::shared_ptr<const ScenarioResult>>>
ScenarioCache::snapshot() const {
  std::map<std::string, std::shared_ptr<const ScenarioResult>> sorted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sorted.insert(entries_.begin(), entries_.end());
  }
  return {sorted.begin(), sorted.end()};
}

ScenarioCache::Stats ScenarioCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ScenarioCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ScenarioCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = {};
}

ScenarioResult run_scenario_inline(const SolverRegistry& registry,
                                   const ScenarioSpec& spec) {
  const Solver* solver = registry.find(spec.solver);
  if (solver == nullptr) {
    std::fprintf(stderr, "solve: unknown solver '%s' (registered: %s)\n",
                 spec.solver.c_str(), registry.names_joined().c_str());
    std::abort();
  }
  const int trials = spec.trials > 0 ? spec.trials : 0;
  std::vector<TrialSlot> slots(static_cast<std::size_t>(trials));
  const bool metrics_on = obs::enabled();
  obs::Counter* trials_counter = nullptr;
  obs::LatencyHistogram* trial_wall = nullptr;
  obs::LatencyHistogram* trial_cpu = nullptr;
  if (metrics_on) {
    auto& registry_obs = obs::Registry::global();
    trials_counter = &registry_obs.counter("sweep.trials.run");
    trial_wall = &registry_obs.histogram("sweep.trial.wall_ns");
    trial_cpu = &registry_obs.histogram("sweep.trial.cpu_ns");
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const bool tracing = recorder.active();
  const TrialSeeds seeds = spec.trial_seeds();
  for (int t = 0; t < trials; ++t) {
    util::Rng instance_rng(seeds.instance(t));
    util::Rng algo_rng(seeds.algo(t));
    TrialSlot& slot = slots[static_cast<std::size_t>(t)];
    const std::uint64_t cpu_start = metrics_on ? obs::thread_cpu_ns() : 0;
    const std::uint64_t start_ns = obs::now_ns();
    slot.result = solver->run_trial(spec.params, instance_rng, algo_rng);
    const std::uint64_t wall_ns = obs::now_ns() - start_ns;
    slot.wall_ms = static_cast<double>(wall_ns) / 1e6;
    if (metrics_on) {
      trials_counter->add(1);
      trial_wall->record(wall_ns);
      trial_cpu->record(obs::thread_cpu_ns() - cpu_start);
    }
    if (tracing) {
      recorder.add_complete(spec.label(), "trial", start_ns, wall_ns);
    }
  }
  return aggregate(spec, slots, /*keep_samples=*/false, /*tails_cap=*/0);
}

std::vector<ScenarioResult> SweepRunner::run(
    const SolverRegistry& registry,
    const std::vector<ScenarioSpec>& scenarios) const {
  // Resolve every solver up front so a typo fails before any work runs.
  std::vector<const Solver*> solvers;
  solvers.reserve(scenarios.size());
  for (const auto& spec : scenarios) {
    const Solver* solver = registry.find(spec.solver);
    if (solver == nullptr) {
      std::fprintf(stderr,
                   "sweep: unknown solver '%s' (registered: %s)\n",
                   spec.solver.c_str(), registry.names_joined().c_str());
      std::abort();
    }
    solvers.push_back(solver);
  }

  // Cache probe: scenarios already computed — here or in a prior run — are
  // served without re-running a single trial; duplicates within this run
  // execute once and share the aggregate.
  ScenarioCache* cache =
      options_.use_cache
          ? (options_.cache != nullptr ? options_.cache
                                       : &ScenarioCache::global())
          : nullptr;
  std::vector<std::string> keys(scenarios.size());
  std::vector<std::shared_ptr<const ScenarioResult>> served(scenarios.size());
  // duplicate_of[i] >= 0 points at the earlier scenario with the same key.
  std::vector<std::ptrdiff_t> duplicate_of(scenarios.size(), -1);
  if (cache != nullptr) {
    std::unordered_map<std::string, std::size_t> first_with_key;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      keys[s] = scenario_cache_key(scenarios[s]);
      const auto [it, inserted] = first_with_key.emplace(keys[s], s);
      if (!inserted) {
        duplicate_of[s] = static_cast<std::ptrdiff_t>(it->second);
        continue;
      }
      served[s] = cache->find(keys[s]);
      // A keep_samples run needs percentiles, which a streaming-era entry
      // cannot provide — treat it as a miss and recompute; the fresh result
      // (identical aggregates, now with samples) replaces it below.
      if (served[s] != nullptr && options_.keep_samples &&
          !served[s]->objective.samples_kept()) {
        served[s] = nullptr;
      }
    }
  }

  // Flatten to (scenario, trial) work items with index-addressed result
  // slots: workers write disjoint slots, and the aggregation below reads
  // them in a fixed order, so statistics do not depend on thread count.
  std::vector<std::pair<std::size_t, int>> items;
  std::vector<std::vector<TrialSlot>> slots(scenarios.size());
  std::vector<TrialSeeds> seeds(scenarios.size());
  std::size_t scenarios_cache_served = 0;
  std::size_t scenarios_deduped = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (served[s] != nullptr) {
      ++scenarios_cache_served;
      continue;
    }
    if (duplicate_of[s] >= 0) {
      ++scenarios_deduped;
      continue;
    }
    const int trials = scenarios[s].trials;
    slots[s].resize(static_cast<std::size_t>(trials > 0 ? trials : 0));
    seeds[s] = scenarios[s].trial_seeds();
    for (int t = 0; t < trials; ++t) items.emplace_back(s, t);
  }
  const std::size_t scenarios_skipped =
      scenarios_cache_served + scenarios_deduped;

  // Instrument handles are resolved once out here; inside the trial loop
  // an increment is a relaxed atomic op, never a registry lookup.
  const bool metrics_on = obs::enabled();
  obs::Counter* trials_counter = nullptr;
  obs::LatencyHistogram* trial_wall = nullptr;
  obs::LatencyHistogram* trial_cpu = nullptr;
  if (metrics_on) {
    auto& registry = obs::Registry::global();
    registry.counter("sweep.scenarios.planned").add(scenarios.size());
    registry.counter("sweep.scenarios.cache_served")
        .add(scenarios_cache_served);
    registry.counter("sweep.scenarios.deduped").add(scenarios_deduped);
    registry.counter("sweep.scenarios.executed")
        .add(scenarios.size() - scenarios_skipped);
    trials_counter = &registry.counter("sweep.trials.run");
    trial_wall = &registry.histogram("sweep.trial.wall_ns");
    trial_cpu = &registry.histogram("sweep.trial.cpu_ns");
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const bool tracing = recorder.active();

  // Progress bookkeeping only exists when a callback is installed; the
  // remaining-trials counters give exact scenario completion without any
  // ordering assumption on the worker schedule.
  const std::uint64_t trials_total = items.size();
  std::atomic<std::uint64_t> trials_done{0};
  std::atomic<std::size_t> scenarios_done{scenarios_skipped};
  std::vector<std::atomic<int>> remaining(
      options_.progress ? scenarios.size() : 0);
  if (options_.progress) {
    for (std::size_t s = 0; s < remaining.size(); ++s) {
      remaining[s].store(static_cast<int>(slots[s].size()),
                         std::memory_order_relaxed);
    }
    options_.progress(scenarios_done.load(), scenarios.size(), 0,
                      trials_total);
  }

  util::ThreadPool pool(options_.num_threads);
  pool.parallel_for(0, items.size(), [&](std::size_t idx) {
    const auto [s, t] = items[idx];
    const ScenarioSpec& spec = scenarios[s];
    util::Rng instance_rng(seeds[s].instance(t));
    util::Rng algo_rng(seeds[s].algo(t));
    TrialSlot& slot = slots[s][static_cast<std::size_t>(t)];
    const std::uint64_t cpu_start = metrics_on ? obs::thread_cpu_ns() : 0;
    const std::uint64_t start_ns = obs::now_ns();
    slot.result = solvers[s]->run_trial(spec.params, instance_rng, algo_rng);
    const std::uint64_t wall_ns = obs::now_ns() - start_ns;
    slot.wall_ms = static_cast<double>(wall_ns) / 1e6;
    if (metrics_on) {
      trials_counter->add(1);
      trial_wall->record(wall_ns);
      trial_cpu->record(obs::thread_cpu_ns() - cpu_start);
    }
    if (tracing) {
      recorder.add_complete(spec.label(), "trial", start_ns, wall_ns);
    }
    if (options_.progress) {
      const std::uint64_t done =
          trials_done.fetch_add(1, std::memory_order_relaxed) + 1;
      std::size_t sc_done = scenarios_done.load(std::memory_order_relaxed);
      if (remaining[s].fetch_sub(1, std::memory_order_relaxed) == 1) {
        sc_done = scenarios_done.fetch_add(1, std::memory_order_relaxed) + 1;
      }
      options_.progress(sc_done, scenarios.size(), done, trials_total);
    }
  });

  std::vector<ScenarioResult> results(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (served[s] != nullptr) {
      results[s] = *served[s];
      continue;
    }
    if (duplicate_of[s] >= 0) {
      // The first occurrence has a smaller index, so it is already final.
      results[s] = results[static_cast<std::size_t>(duplicate_of[s])];
      continue;
    }
    results[s] = aggregate(scenarios[s], slots[s], options_.keep_samples,
                           options_.tails_cap);
    if (cache != nullptr) {
      cache->insert(keys[s], std::make_shared<ScenarioResult>(results[s]));
    }
  }
  return results;
}

bool merge_scenario_results(const std::vector<ScenarioSpec>& scenarios,
                            const ScenarioCache& cache,
                            std::vector<ScenarioResult>& out) {
  out.clear();
  out.reserve(scenarios.size());
  std::size_t missing = 0;
  for (const auto& spec : scenarios) {
    const auto entry = cache.peek(scenario_cache_key(spec));
    if (entry == nullptr) {
      if (missing < 8) {
        std::fprintf(stderr, "merge: no cached result for scenario %s\n",
                     spec.label().c_str());
      }
      ++missing;
      continue;
    }
    out.push_back(*entry);
  }
  if (missing > 0) {
    std::fprintf(stderr,
                 "merge: %zu of %zu scenario(s) missing from the cache — "
                 "is a shard's cache file absent from the merge set?\n",
                 missing, scenarios.size());
    return false;
  }
  return true;
}

std::vector<std::string> metric_name_union(
    const std::vector<ScenarioResult>& results) {
  std::set<std::string> names;
  for (const auto& result : results) {
    for (const auto& [name, acc] : result.metrics) names.insert(name);
  }
  return {names.begin(), names.end()};
}

util::Table results_table(const std::vector<ScenarioResult>& results,
                          const std::string& caption, bool include_timing) {
  const auto metric_names = metric_name_union(results);
  const bool tails = any_samples_kept(results);
  std::vector<std::string> header{"solver", "params", "trials", "infeasible",
                                  "objective mean", "ci95", "ratio mean",
                                  "ratio max", "oracle mean"};
  if (tails) {
    header.insert(header.end(), {"obj p50", "obj p95", "obj p99"});
  }
  for (const auto& name : metric_names) header.push_back("m:" + name);
  if (include_timing) header.push_back("wall ms");

  util::Table table(header);
  table.set_caption(caption);
  for (const auto& result : results) {
    auto& row = table.row();
    row.cell(result.spec.solver)
        .cell(result.spec.params.signature())
        .cell(result.trials_run)
        .cell(result.infeasible);
    const auto stat = [&row](const util::Accumulator& acc, double value,
                             std::size_t min_count) {
      if (acc.count() >= min_count) {
        row.cell(value);
      } else {
        row.cell("");
      }
    };
    stat(result.objective, result.objective.mean(), 1);
    stat(result.objective, result.objective.ci95_halfwidth(), 2);
    stat(result.ratio, result.ratio.mean(), 1);
    stat(result.ratio, result.ratio.max(), 1);
    stat(result.oracle_calls, result.oracle_calls.mean(), 1);
    if (tails) {
      for (double q : {0.50, 0.95, 0.99}) {
        const auto& obj = result.objective;
        if (obj.samples_kept() && obj.count() > 0) {
          row.cell(obj.percentile(q));
        } else {
          row.cell("");
        }
      }
    }
    for (const auto& name : metric_names) {
      const auto it = result.metrics.find(name);
      if (it != result.metrics.end() && it->second.count() > 0) {
        row.cell(it->second.mean());
      } else {
        row.cell("");
      }
    }
    if (include_timing) row.cell(result.wall_ms.mean());
  }
  return table;
}

std::vector<std::vector<std::string>> results_csv_rows(
    const std::vector<ScenarioResult>& results, bool include_timing) {
  // Union of parameter names across scenarios, in sorted order, so sweeps
  // over heterogeneous solver families still line up column-wise. Metric
  // columns work the same way: sorted union, blank where absent.
  std::set<std::string> param_names;
  for (const auto& result : results) {
    for (const auto& [name, value] : result.spec.params.values()) {
      param_names.insert(name);
    }
  }
  const auto metric_names = metric_name_union(results);
  const bool tails = any_samples_kept(results);

  std::vector<std::string> header{"solver"};
  header.insert(header.end(), param_names.begin(), param_names.end());
  for (const char* column :
       {"trials", "infeasible", "objective_mean", "objective_stddev",
        "objective_ci95", "objective_min", "objective_max", "ratio_mean",
        "ratio_max", "cost_mean", "oracle_mean"}) {
    header.push_back(column);
  }
  if (tails) {
    for (const char* column :
         {"objective_p5", "objective_p25", "objective_p50", "objective_p75",
          "objective_p95", "objective_p99", "ratio_min", "ratio_p5",
          "ratio_p25", "ratio_p50", "ratio_p75", "ratio_p95", "ratio_p99",
          "cost_p50", "cost_p95", "cost_p99", "oracle_p50", "oracle_p95",
          "oracle_p99"}) {
      header.push_back(column);
    }
  }
  for (const auto& name : metric_names) {
    header.push_back("m_" + name);
    if (tails) {
      for (const char* suffix : {"_min", "_max", "_p5", "_p25", "_p50",
                                 "_p75", "_p95", "_p99"}) {
        header.push_back("m_" + name + suffix);
      }
    }
  }
  if (include_timing) header.push_back("wall_ms_mean");

  std::vector<std::vector<std::string>> rows;
  rows.reserve(results.size() + 1);
  rows.push_back(std::move(header));

  for (const auto& result : results) {
    std::vector<std::string> row{result.spec.solver};
    for (const auto& name : param_names) {
      row.push_back(result.spec.params.has(name)
                        ? format_param(result.spec.params.get(name, 0.0))
                        : std::string());
    }
    const auto& obj = result.objective;
    row.push_back(format_param(static_cast<double>(result.trials_run)));
    row.push_back(format_param(static_cast<double>(result.infeasible)));
    row.push_back(stat_cell(obj, obj.mean(), 1));
    row.push_back(stat_cell(obj, obj.stddev(), 2));
    row.push_back(stat_cell(obj, obj.ci95_halfwidth(), 2));
    row.push_back(stat_cell(obj, obj.min(), 1));
    row.push_back(stat_cell(obj, obj.max(), 1));
    row.push_back(stat_cell(result.ratio, result.ratio.mean(), 1));
    row.push_back(stat_cell(result.ratio, result.ratio.max(), 1));
    row.push_back(stat_cell(result.cost, result.cost.mean(), 1));
    row.push_back(
        stat_cell(result.oracle_calls, result.oracle_calls.mean(), 1));
    if (tails) {
      for (double q : {0.05, 0.25, 0.50, 0.75, 0.95, 0.99}) {
        row.push_back(percentile_cell(obj, q));
      }
      row.push_back(stat_cell(result.ratio, result.ratio.min(), 1));
      for (double q : {0.05, 0.25, 0.50, 0.75, 0.95, 0.99}) {
        row.push_back(percentile_cell(result.ratio, q));
      }
      for (double q : {0.50, 0.95, 0.99}) {
        row.push_back(percentile_cell(result.cost, q));
      }
      for (double q : {0.50, 0.95, 0.99}) {
        row.push_back(percentile_cell(result.oracle_calls, q));
      }
    }
    for (const auto& name : metric_names) {
      const auto it = result.metrics.find(name);
      const util::Accumulator* acc =
          it != result.metrics.end() ? &it->second : nullptr;
      row.push_back(acc != nullptr ? stat_cell(*acc, acc->mean(), 1)
                                   : std::string());
      if (tails) {
        row.push_back(acc != nullptr ? stat_cell(*acc, acc->min(), 1)
                                     : std::string());
        row.push_back(acc != nullptr ? stat_cell(*acc, acc->max(), 1)
                                     : std::string());
        for (double q : {0.05, 0.25, 0.50, 0.75, 0.95, 0.99}) {
          row.push_back(acc != nullptr ? percentile_cell(*acc, q)
                                       : std::string());
        }
      }
    }
    if (include_timing) {
      row.push_back(stat_cell(result.wall_ms, result.wall_ms.mean(), 1));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string results_csv_text(const std::vector<ScenarioResult>& results,
                             bool include_timing) {
  std::string out;
  for (const auto& row : results_csv_rows(results, include_timing)) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      out += util::csv_escape(row[i]);
    }
    out += '\n';
  }
  return out;
}

bool write_results_csv(const std::vector<ScenarioResult>& results,
                       const std::string& path, bool include_timing) {
  const auto rows = results_csv_rows(results, include_timing);
  util::CsvWriter writer(path, rows.front());
  if (!writer.ok()) {
    std::fprintf(stderr, "sweep: cannot open CSV output file '%s'\n",
                 path.c_str());
    return false;
  }
  for (std::size_t i = 1; i < rows.size(); ++i) writer.write_row(rows[i]);
  if (!writer.flush()) {
    std::fprintf(stderr, "sweep: write to CSV output file '%s' failed\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace ps::engine
