// Tests for the experiment engine: parameter maps and seed derivation,
// registry lookup (including the unknown-solver paths), sweep-plan
// expansion, the named-metric schema (per-metric aggregation, union-of-
// columns CSV determinism, no-NaN emission for tiny trial counts), the
// scenario cache, algo-param instance sharing, and the load-bearing
// guarantee that a sweep's aggregated results are bit-identical for any
// thread-pool size.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/reference_cache.hpp"
#include "engine/registry.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"

namespace ps::engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ParamMap, GetWithFallback) {
  ParamMap params{{"jobs", 8.0}, {"alpha", 2.5}};
  EXPECT_DOUBLE_EQ(params.get("alpha", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(params.get("absent", 7.0), 7.0);
  EXPECT_EQ(params.get_int("jobs", 0), 8);
  EXPECT_EQ(params.get_int("absent", 3), 3);
  EXPECT_TRUE(params.has("jobs"));
  EXPECT_FALSE(params.has("absent"));
}

TEST(ParamMap, SignatureIsSortedAndStable) {
  ParamMap a;
  a.set("zeta", 1.0);
  a.set("alpha", 2.0);
  ParamMap b;
  b.set("alpha", 2.0);
  b.set("zeta", 1.0);
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_EQ(a.signature(), "alpha=2,zeta=1");
}

TEST(DeriveSeed, VariesByTrialSaltAndParams) {
  const ParamMap params{{"n", 10.0}};
  const auto base = derive_seed(1, "", params, 0);
  EXPECT_EQ(base, derive_seed(1, "", params, 0));
  EXPECT_NE(base, derive_seed(1, "", params, 1));
  EXPECT_NE(base, derive_seed(2, "", params, 0));
  EXPECT_NE(base, derive_seed(1, "solver", params, 0));
  ParamMap other{{"n", 11.0}};
  EXPECT_NE(base, derive_seed(1, "", other, 0));
}

TEST(ParamMap, WithoutStripsNames) {
  const ParamMap params{{"a", 1.0}, {"b", 2.0}, {"c", 3.0}};
  const ParamMap stripped = params.without({"b", "absent"});
  EXPECT_EQ(stripped.signature(), "a=1,c=3");
  EXPECT_EQ(params.signature(), "a=1,b=2,c=3");
}

TEST(ScenarioSpec, AlgoParamsExcludedFromInstanceSeedOnly) {
  ScenarioSpec a;
  a.solver = "s";
  a.params = {{"n", 10.0}, {"eps", 0.5}};
  a.algo_params = {"eps"};
  ScenarioSpec b = a;
  b.params.set("eps", 0.25);
  // Same instance stream, different algorithm stream.
  EXPECT_EQ(a.instance_seed(3), b.instance_seed(3));
  EXPECT_NE(a.algo_seed(3), b.algo_seed(3));
  // A non-algo param change moves the instance stream.
  ScenarioSpec c = a;
  c.params.set("n", 11.0);
  EXPECT_NE(a.instance_seed(3), c.instance_seed(3));
}

TEST(SweepPlan, ExpandsCartesianAxesMajorSolverMinor) {
  SweepPlan plan;
  plan.solvers = {"a", "b"};
  plan.base_params = {{"fixed", 1.0}};
  plan.axes = {{"x", {1.0, 2.0}}, {"y", {5.0, 6.0, 7.0}}};
  plan.trials = 3;
  const auto scenarios = plan.expand();
  ASSERT_EQ(scenarios.size(), 2u * 2u * 3u);
  EXPECT_EQ(scenarios[0].solver, "a");
  EXPECT_EQ(scenarios[1].solver, "b");
  EXPECT_DOUBLE_EQ(scenarios[0].params.get("x", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(scenarios[0].params.get("y", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(scenarios[0].params.get("fixed", 0.0), 1.0);
  // Last axis varies fastest; first axis slowest.
  EXPECT_DOUBLE_EQ(scenarios[2].params.get("y", 0.0), 6.0);
  EXPECT_DOUBLE_EQ(scenarios[6].params.get("x", 0.0), 2.0);
  for (const auto& spec : scenarios) EXPECT_EQ(spec.trials, 3);
}

TEST(SolverRegistry, FindsRegisteredAndRejectsUnknown) {
  SolverRegistry registry;
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_FALSE(registry.contains("nope"));
  registry.add_fn("custom.answer",
                  [](const ParamMap&, util::Rng&, util::Rng&) {
                    TrialResult out;
                    out.objective = 42.0;
                    return out;
                  });
  ASSERT_NE(registry.find("custom.answer"), nullptr);
  EXPECT_TRUE(registry.contains("custom.answer"));
  EXPECT_EQ(registry.find("custom"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SolverRegistry, BuiltinsCoverEveryAlgorithmFamily) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  for (const char* name :
       {"submodular.greedy", "submodular.lazy", "submodular.stochastic",
        "core.setcover", "core.budgeted", "secretary.classic",
        "secretary.submodular", "secretary.knapsack", "power.greedy",
        "power.always_on", "power.per_job", "budget.value",
        "powerdown.break_even", "powerdown.randomized", "powerdown.eager",
        "powerdown.never",
        // The bench-derived families.
        "ablation.lazy_vs_plain", "ablation.incremental_matching",
        "ablation.parallel_greedy", "ablation.candidate_pruning",
        "core.bicriteria", "setcover.pipeline", "setcover.adversarial",
        "prize.bicriteria", "prize.value_floor", "dp.agreeable",
        "dp.gap_frontier", "frontier.primal_dual", "hiring.online",
        "hiring.naive", "secretary.nonmonotone",
        "secretary.nonmonotone_full", "secretary.matroid",
        "secretary.matroid_intersection", "secretary.multi_knapsack",
        "secretary.subadditive", "secretary.oracle_attack",
        "secretary.bottleneck", "micro.hopcroft_karp",
        "micro.incremental_fill", "micro.weighted_fill",
        "micro.coverage_eval", "micro.lazy_greedy", "micro.power_sched"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_FALSE(registry.contains("powerdown.psychic"));
  const auto names = registry.names();
  EXPECT_EQ(names.size(), registry.size());
  EXPECT_NE(registry.names_joined().find("secretary.classic"),
            std::string::npos);
}

TEST(SweepRunnerDeathTest, UnknownSolverAbortsWithDiagnostic) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  ScenarioSpec spec;
  spec.solver = "no.such.solver";
  spec.trials = 1;
  const SweepRunner runner;
  EXPECT_DEATH(runner.run(registry, {spec}), "unknown solver");
}

/// A sweep mixing deterministic and coin-flipping solvers across two
/// families, heavy enough that trials genuinely interleave across workers.
std::vector<ScenarioResult> run_reference_sweep(std::size_t num_threads) {
  SweepPlan plan;
  plan.solvers = {"powerdown.break_even", "powerdown.randomized",
                  "secretary.classic"};
  plan.base_params = {{"gaps", 200.0}, {"n", 40.0}};
  plan.axes = {{"alpha", {1.0, 2.0}}};
  plan.trials = 12;
  plan.seed = 99;
  SweepOptions options;
  options.num_threads = num_threads;
  const SweepRunner runner(options);
  return runner.run(SolverRegistry::with_builtins(), plan);
}

void expect_bit_identical(const util::Accumulator& a,
                          const util::Accumulator& b) {
  ASSERT_EQ(a.count(), b.count());
  // EXPECT_EQ on doubles is exact equality: aggregation must be
  // bit-identical, not merely close.
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  if (a.count() > 0) {
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
  }
}

TEST(SweepRunner, AggregatesAreBitIdenticalForPoolSizes1And4) {
  const auto serial = run_reference_sweep(1);
  const auto parallel = run_reference_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].spec.label(), parallel[i].spec.label());
    EXPECT_EQ(serial[i].trials_run, parallel[i].trials_run);
    EXPECT_EQ(serial[i].infeasible, parallel[i].infeasible);
    expect_bit_identical(serial[i].objective, parallel[i].objective);
    expect_bit_identical(serial[i].ratio, parallel[i].ratio);
    expect_bit_identical(serial[i].cost, parallel[i].cost);
    expect_bit_identical(serial[i].oracle_calls, parallel[i].oracle_calls);
  }
}

TEST(SweepRunner, SolversShareInstancesPerTrial) {
  // break_even and never see the same gap workloads (instance RNG is salted
  // by parameters only), so on the short-gap distribution — where both
  // policies equal the offline optimum — their objectives coincide exactly.
  SweepPlan plan;
  plan.solvers = {"powerdown.break_even", "powerdown.never"};
  plan.base_params = {{"gaps", 300.0}, {"alpha", 2.0}, {"dist", 1.0}};
  plan.trials = 6;
  const SweepRunner runner;
  const auto results = runner.run(SolverRegistry::with_builtins(), plan);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].objective.sum(), results[1].objective.sum());
  EXPECT_GT(results[0].objective.sum(), 0.0);
}

TEST(SweepRunner, CountsInfeasibleTrialsSeparately) {
  SolverRegistry registry;
  registry.add_fn("flaky", [](const ParamMap&, util::Rng& instance_rng,
                              util::Rng&) {
    TrialResult out;
    out.objective = 1.0;
    out.reference = 2.0;
    out.feasible = instance_rng.uniform_double() < 0.5;
    return out;
  });
  ScenarioSpec spec;
  spec.solver = "flaky";
  spec.trials = 40;
  const SweepRunner runner;
  const auto results = runner.run(registry, {spec});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].trials_run, 40u);
  EXPECT_GT(results[0].infeasible, 0u);
  EXPECT_EQ(results[0].objective.count() + results[0].infeasible, 40u);
  // Every feasible trial contributed a ratio of 1/2.
  EXPECT_EQ(results[0].ratio.count(), results[0].objective.count());
  EXPECT_DOUBLE_EQ(results[0].ratio.mean(), 0.5);
}

TEST(SweepOutput, TableHasOneRowPerScenarioAndCsvFailsLoudly) {
  SolverRegistry registry;
  registry.add_fn("unit", [](const ParamMap&, util::Rng&, util::Rng&) {
    TrialResult out;
    out.objective = 3.0;
    out.reference = 6.0;
    return out;
  });
  SweepPlan plan;
  plan.solvers = {"unit"};
  plan.axes = {{"x", {1.0, 2.0, 3.0}}};
  plan.trials = 2;
  const SweepRunner runner;
  const auto results = runner.run(registry, plan);
  EXPECT_EQ(results_table(results, "t").num_rows(), 3u);

  EXPECT_FALSE(
      write_results_csv(results, "/no/such/directory/results.csv"));

  const std::string path = ::testing::TempDir() + "engine_results.csv";
  ASSERT_TRUE(write_results_csv(results, path));
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
  EXPECT_EQ(std::string(line),
            "solver,x,trials,infeasible,objective_mean,objective_stddev,"
            "objective_ci95,objective_min,objective_max,ratio_mean,"
            "ratio_max,cost_mean,oracle_mean\n");
  std::fclose(file);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Named-metric schema

TEST(TrialResult, SetMetricAppendsAndOverwrites) {
  TrialResult result;
  result.set_metric("a", 1.0);
  result.set_metric("b", 2.0);
  result.set_metric("a", 3.0);
  ASSERT_EQ(result.metrics.size(), 2u);
  EXPECT_EQ(result.metrics[0].first, "a");
  ASSERT_NE(result.metric("a"), nullptr);
  EXPECT_DOUBLE_EQ(*result.metric("a"), 3.0);
  EXPECT_DOUBLE_EQ(*result.metric("b"), 2.0);
  EXPECT_EQ(result.metric("absent"), nullptr);
}

/// A solver reporting one unconditional and one conditional metric; only
/// feasible trials contribute, matching the core-field rule.
void register_metric_solver(SolverRegistry& registry) {
  registry.add_fn("metrics", [](const ParamMap& params, util::Rng& rng,
                                util::Rng&) {
    TrialResult out;
    const double draw = rng.uniform_double();
    out.objective = draw;
    out.reference = 1.0;
    out.feasible = draw < params.get("feasible_below", 1.0);
    out.set_metric("draw", draw);
    if (draw < 0.5) out.set_metric("small_draw", draw);
    return out;
  });
}

TEST(NamedMetrics, AggregatePerNameWithConditionalCounts) {
  SolverRegistry registry;
  register_metric_solver(registry);
  ScenarioSpec spec;
  spec.solver = "metrics";
  spec.trials = 64;
  const SweepRunner runner;
  const auto results = runner.run(registry, {spec});
  ASSERT_EQ(results.size(), 1u);
  const auto& metrics = results[0].metrics;
  ASSERT_EQ(metrics.count("draw"), 1u);
  ASSERT_EQ(metrics.count("small_draw"), 1u);
  EXPECT_EQ(metrics.at("draw").count(), 64u);
  // The conditional metric aggregated only the trials that reported it.
  EXPECT_GT(metrics.at("small_draw").count(), 0u);
  EXPECT_LT(metrics.at("small_draw").count(), 64u);
  EXPECT_LT(metrics.at("small_draw").max(), 0.5);
  // Metric means match the objective where they alias it.
  EXPECT_EQ(metrics.at("draw").mean(), results[0].objective.mean());
}

TEST(NamedMetrics, InfeasibleTrialsExcludedFromMetrics) {
  SolverRegistry registry;
  register_metric_solver(registry);
  ScenarioSpec spec;
  spec.solver = "metrics";
  spec.params = {{"feasible_below", 0.5}};
  spec.trials = 64;
  const SweepRunner runner;
  const auto results = runner.run(registry, {spec});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].infeasible, 0u);
  EXPECT_EQ(results[0].metrics.at("draw").count(),
            results[0].objective.count());
  EXPECT_LT(results[0].metrics.at("draw").max(), 0.5);
}

TEST(NamedMetrics, CsvEmitsSortedUnionOfMetricColumnsDeterministically) {
  SolverRegistry registry;
  registry.add_fn("zeta", [](const ParamMap&, util::Rng&, util::Rng&) {
    TrialResult out;
    out.objective = 1.0;
    out.set_metric("zz_last", 26.0);
    out.set_metric("aa_first", 1.0);
    return out;
  });
  registry.add_fn("mid", [](const ParamMap&, util::Rng&, util::Rng&) {
    TrialResult out;
    out.objective = 2.0;
    out.set_metric("mm_mid", 13.0);
    return out;
  });
  SweepPlan plan;
  plan.solvers = {"zeta", "mid"};
  plan.trials = 3;
  const SweepRunner runner;
  const auto results = runner.run(registry, plan);

  EXPECT_EQ(metric_name_union(results),
            (std::vector<std::string>{"aa_first", "mm_mid", "zz_last"}));

  const std::string path1 = ::testing::TempDir() + "metric_union_1.csv";
  const std::string path2 = ::testing::TempDir() + "metric_union_2.csv";
  ASSERT_TRUE(write_results_csv(results, path1));
  ASSERT_TRUE(write_results_csv(results, path2));
  const std::string text1 = read_file(path1);
  // Byte-identical across writes — the emission order is deterministic.
  EXPECT_EQ(text1, read_file(path2));
  // Header carries the sorted metric union; rows leave absent metrics blank.
  EXPECT_NE(text1.find("m_aa_first,m_mm_mid,m_zz_last"), std::string::npos);
  EXPECT_NE(text1.find("zeta,3,0,1,0,0,1,1,,,0,0,1,,26"), std::string::npos);
  EXPECT_NE(text1.find("mid,3,0,2,0,0,2,2,,,0,0,,13,"), std::string::npos);
  std::remove(path1.c_str());
  std::remove(path2.c_str());

  // The table shows the same union as "m:" columns.
  const auto table = results_table(results, "t");
  EXPECT_NE(table.to_string().find("m:aa_first"), std::string::npos);
  EXPECT_NE(table.to_string().find("m:zz_last"), std::string::npos);
}

TEST(SweepOutput, SingleTrialEmitsEmptyCi95CellsNotNaN) {
  SolverRegistry registry;
  registry.add_fn("unit", [](const ParamMap&, util::Rng&, util::Rng&) {
    TrialResult out;
    out.objective = 3.0;
    out.reference = 6.0;
    out.set_metric("m", 1.5);
    return out;
  });
  ScenarioSpec spec;
  spec.solver = "unit";
  spec.trials = 1;  // stddev/ci95 are undefined for n < 2
  const SweepRunner runner;
  const auto results = runner.run(registry, {spec});
  const std::string path = ::testing::TempDir() + "one_trial.csv";
  ASSERT_TRUE(write_results_csv(results, path));
  const std::string text = read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  // solver,trials,infeasible,mean,stddev,ci95,min,max,... — the stddev and
  // ci95 cells are empty, the defined statistics are not.
  EXPECT_NE(text.find("unit,1,0,3,,,3,3,0.5,0.5,0,0,1.5"), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Thread-count invariance, including per-metric accumulators

std::vector<ScenarioResult> run_metric_sweep(std::size_t num_threads) {
  SolverRegistry registry;
  register_metric_solver(registry);
  SweepPlan plan;
  plan.solvers = {"metrics"};
  plan.axes = {{"x", {1.0, 2.0}}};
  plan.trials = 40;
  plan.seed = 7;
  SweepOptions options;
  options.num_threads = num_threads;
  const SweepRunner runner(options);
  return runner.run(registry, plan);
}

void expect_bit_identical_acc(const util::Accumulator& a,
                              const util::Accumulator& b) {
  ASSERT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  if (a.count() > 0) {
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
  }
}

TEST(NamedMetrics, PerMetricAggregationBitIdenticalForPoolSizes1And4) {
  const auto serial = run_metric_sweep(1);
  const auto parallel = run_metric_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].metrics.size(), parallel[i].metrics.size());
    for (const auto& [name, acc] : serial[i].metrics) {
      ASSERT_EQ(parallel[i].metrics.count(name), 1u) << name;
      expect_bit_identical_acc(acc, parallel[i].metrics.at(name));
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario cache

TEST(ScenarioCacheKey, DistinguishesEveryCacheField) {
  ScenarioSpec spec;
  spec.solver = "s";
  spec.params = {{"n", 4.0}};
  const std::string base = scenario_cache_key(spec);
  ScenarioSpec other = spec;
  other.trials = spec.trials + 1;
  EXPECT_NE(scenario_cache_key(other), base);
  other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(scenario_cache_key(other), base);
  other = spec;
  other.params.set("n", 5.0);
  EXPECT_NE(scenario_cache_key(other), base);
  other = spec;
  other.algo_params = {"n"};
  EXPECT_NE(scenario_cache_key(other), base);
  other = spec;
  other.solver = "t";
  EXPECT_NE(scenario_cache_key(other), base);
  EXPECT_EQ(scenario_cache_key(spec), base);
}

TEST(ScenarioCache, SecondRunServedEntirelyFromCache) {
  static std::atomic<int> calls{0};
  calls = 0;
  SolverRegistry registry;
  registry.add_fn("counting", [](const ParamMap&, util::Rng& rng,
                                 util::Rng&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    TrialResult out;
    out.objective = rng.uniform_double();
    out.reference = 1.0;
    out.oracle_calls = 1.0;
    out.set_metric("m", out.objective);
    return out;
  });
  SweepPlan plan;
  plan.solvers = {"counting"};
  plan.axes = {{"x", {1.0, 2.0, 3.0}}};
  plan.trials = 8;
  ScenarioCache cache;
  SweepOptions options;
  options.use_cache = true;
  options.cache = &cache;
  const SweepRunner runner(options);

  const auto first = runner.run(registry, plan);
  EXPECT_EQ(calls.load(), 3 * 8);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);

  const auto second = runner.run(registry, plan);
  // Not a single trial re-ran: the oracle-call counter is unchanged and
  // every statistic — wall time included, it was served verbatim — matches.
  EXPECT_EQ(calls.load(), 3 * 8);
  EXPECT_EQ(cache.stats().hits, 3u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].trials_run, first[i].trials_run);
    expect_bit_identical_acc(first[i].objective, second[i].objective);
    expect_bit_identical_acc(first[i].oracle_calls, second[i].oracle_calls);
    expect_bit_identical_acc(first[i].metrics.at("m"),
                             second[i].metrics.at("m"));
    expect_bit_identical_acc(first[i].wall_ms, second[i].wall_ms);
  }

  // A different seed is a different scenario: miss, not hit.
  plan.seed += 1;
  runner.run(registry, plan);
  EXPECT_EQ(calls.load(), 2 * 3 * 8);
  EXPECT_EQ(cache.stats().misses, 6u);
}

TEST(ScenarioCache, DuplicateScenariosWithinOneRunExecuteOnce) {
  static std::atomic<int> calls{0};
  calls = 0;
  SolverRegistry registry;
  registry.add_fn("counting", [](const ParamMap&, util::Rng& rng,
                                 util::Rng&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    TrialResult out;
    out.objective = rng.uniform_double();
    return out;
  });
  ScenarioSpec spec;
  spec.solver = "counting";
  spec.trials = 5;
  ScenarioCache cache;
  SweepOptions options;
  options.use_cache = true;
  options.cache = &cache;
  const SweepRunner runner(options);
  const auto results = runner.run(registry, {spec, spec, spec});
  EXPECT_EQ(calls.load(), 5);
  ASSERT_EQ(results.size(), 3u);
  expect_bit_identical_acc(results[0].objective, results[1].objective);
  expect_bit_identical_acc(results[0].objective, results[2].objective);
}

TEST(ScenarioCache, DisabledByDefault) {
  static std::atomic<int> calls{0};
  calls = 0;
  SolverRegistry registry;
  registry.add_fn("counting", [](const ParamMap&, util::Rng&, util::Rng&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return TrialResult{};
  });
  ScenarioSpec spec;
  spec.solver = "counting";
  spec.trials = 2;
  const SweepRunner runner;  // default options: no cache
  runner.run(registry, {spec});
  runner.run(registry, {spec});
  EXPECT_EQ(calls.load(), 4);
}

// ---------------------------------------------------------------------------
// Reference cache

TEST(ReferenceCache, ComputesOncePerKey) {
  clear_reference_cache();
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return 42.0;
  };
  EXPECT_DOUBLE_EQ(cached_reference("engine_test.key", compute), 42.0);
  EXPECT_DOUBLE_EQ(cached_reference("engine_test.key", compute), 42.0);
  EXPECT_EQ(computed, 1);
  const auto stats = reference_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  clear_reference_cache();
}

TEST(ReferenceCache, ConcurrentFirstCallersComputeOnce) {
  // compute blocks until all eight callers have arrived, so a cache that
  // ran compute for every concurrent miss would run it eight times.
  constexpr int kThreads = 8;
  clear_reference_cache();
  std::atomic<int> arrived{0};
  std::atomic<int> computed{0};
  const auto compute = [&] {
    computed.fetch_add(1);
    while (arrived.load() < kThreads) std::this_thread::yield();
    return 7.5;
  };
  std::vector<double> values(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      values[static_cast<std::size_t>(t)] =
          cached_reference("engine_test.race", compute);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computed.load(), 1);
  for (double value : values) EXPECT_DOUBLE_EQ(value, 7.5);
  const auto stats = reference_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1));
  clear_reference_cache();
}

TEST(ReferenceCache, ThrowingComputeReleasesWaitersAndLeavesNoEntry) {
  clear_reference_cache();
  // The first caller's compute throws only once a second caller is waiting
  // on its in-flight entry (that wait is counted as a hit).
  const auto failing = []() -> double {
    while (reference_cache_stats().hits < 1) std::this_thread::yield();
    throw std::runtime_error("reference failed");
  };
  bool owner_threw = false;
  std::thread owner([&] {
    try {
      cached_reference("engine_test.throw", failing);
    } catch (const std::runtime_error&) {
      owner_threw = true;
    }
  });
  while (reference_cache_stats().misses < 1) std::this_thread::yield();
  EXPECT_THROW(cached_reference("engine_test.throw", [] { return 1.0; }),
               std::runtime_error);
  owner.join();
  EXPECT_TRUE(owner_threw);

  int computed = 0;
  EXPECT_DOUBLE_EQ(cached_reference("engine_test.throw",
                                    [&] {
                                      ++computed;
                                      return 3.0;
                                    }),
                   3.0);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(reference_cache_stats().misses, 2u);
  clear_reference_cache();
}

TEST(ReferenceCache, ComputeOutlivingClearKeepsNewerEntry) {
  for (const bool throws : {false, true}) {
    clear_reference_cache();
    std::atomic<bool> release{false};
    std::thread stale([&] {
      const auto compute = [&] {
        while (!release.load()) std::this_thread::yield();
        if (throws) throw std::runtime_error("stale compute failed");
        return 1.0;
      };
      if (throws) {
        EXPECT_THROW(cached_reference("engine_test.clear", compute),
                     std::runtime_error);
      } else {
        EXPECT_DOUBLE_EQ(cached_reference("engine_test.clear", compute), 1.0);
      }
    });
    while (reference_cache_stats().misses < 1) std::this_thread::yield();
    clear_reference_cache();
    EXPECT_DOUBLE_EQ(cached_reference("engine_test.clear", [] { return 2.0; }),
                     2.0);
    release.store(true);
    stale.join();
    int computed = 0;
    EXPECT_DOUBLE_EQ(cached_reference("engine_test.clear",
                                      [&] {
                                        ++computed;
                                        return 9.0;
                                      }),
                     2.0)
        << (throws ? "throwing" : "finishing") << " stale compute";
    EXPECT_EQ(computed, 0);
  }
  clear_reference_cache();
}

// ---------------------------------------------------------------------------
// Algo-param instance sharing through the runner

TEST(SweepRunner, AlgoParamSweepsShareInstances) {
  SolverRegistry registry;
  // objective = the first instance-stream draw: identical across eps
  // scenarios iff the instance streams are identical.
  registry.add_fn("probe", [](const ParamMap&, util::Rng& instance_rng,
                              util::Rng&) {
    TrialResult out;
    out.objective = instance_rng.uniform_double();
    return out;
  });
  SweepPlan plan;
  plan.solvers = {"probe"};
  plan.axes = {{"eps", {0.5, 0.25, 0.125}}};
  plan.algo_params = {"eps"};
  plan.trials = 6;
  const SweepRunner runner;
  const auto results = runner.run(registry, plan);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].objective.sum(), results[1].objective.sum());
  EXPECT_EQ(results[0].objective.sum(), results[2].objective.sum());
  EXPECT_GT(results[0].objective.sum(), 0.0);

  // Without the algo_params declaration the instances differ.
  plan.algo_params.clear();
  const auto separate = runner.run(registry, plan);
  EXPECT_NE(separate[0].objective.sum(), separate[1].objective.sum());
}

}  // namespace
}  // namespace ps::engine
