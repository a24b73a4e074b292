// The tail-statistics battery: the shared percentile definition against a
// brute-force sorted-sample oracle (sizes 1..1000, ties, negatives, a single
// repeated value), sample retention end-to-end through SweepRunner / the
// cache store / Session (`--tails`), bit-identity of every percentile
// column across thread-pool sizes and across a 3-shard cache-file merge,
// and the guarantee that with retention off the CSV schema — including the
// committed bench/golden files — is byte-identical to pre-tails builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/registry.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"
#include "engine/session.hpp"
#include "engine/sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ps::engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "percentile_test_" + name;
}

/// Independent brute-force oracle: sort a copy, take the exact order
/// statistic at floor(q * n), clamped to the last element. Deliberately
/// re-implements the definition rather than calling the library.
double oracle_percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  auto index =
      static_cast<std::size_t>(std::floor(q * static_cast<double>(n)));
  if (index >= n) index = n - 1;
  return samples[index];
}

const double kQuantiles[] = {0.0,  0.01, 0.05, 0.25, 0.5,
                             0.75, 0.9,  0.95, 0.99, 1.0};

// --- the percentile definition vs the oracle ------------------------------

TEST(Percentile, MatchesBruteForceOracleOnRandomSets) {
  util::Rng rng(20260808);
  for (std::size_t n : {1u, 2u, 3u, 10u, 1000u}) {
    for (int rep = 0; rep < 8; ++rep) {
      util::Accumulator acc(/*keep_samples=*/true);
      std::vector<double> samples;
      samples.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Mixed population: negatives, and coarse rounding so ties occur.
        double value = rng.uniform_double(-100.0, 100.0);
        if (rng.uniform_double() < 0.5) value = std::round(value);
        samples.push_back(value);
        acc.add(value);
      }
      for (double q : kQuantiles) {
        EXPECT_EQ(acc.percentile(q), oracle_percentile(samples, q))
            << "n=" << n << " rep=" << rep << " q=" << q;
      }
    }
  }
}

TEST(Percentile, SingleRepeatedValueAndExtremes) {
  util::Accumulator repeated(/*keep_samples=*/true);
  for (int i = 0; i < 17; ++i) repeated.add(-3.25);
  for (double q : kQuantiles) EXPECT_EQ(repeated.percentile(q), -3.25);

  util::Accumulator one(/*keep_samples=*/true);
  one.add(42.0);
  for (double q : kQuantiles) EXPECT_EQ(one.percentile(q), 42.0);

  // p0 is the minimum, p100 the maximum, exactly.
  util::Accumulator pair(/*keep_samples=*/true);
  pair.add(5.0);
  pair.add(-5.0);
  EXPECT_EQ(pair.percentile(0.0), -5.0);
  EXPECT_EQ(pair.percentile(1.0), 5.0);
  EXPECT_EQ(pair.percentile(0.5), 5.0);  // floor(0.5 * 2) = index 1
}

TEST(Percentile, IsAlwaysAnObservedSample) {
  util::Rng rng(7);
  util::Accumulator acc(/*keep_samples=*/true);
  std::vector<double> samples;
  for (int i = 0; i < 101; ++i) {
    const double value = rng.uniform_double(-5e5, 5e5);
    samples.push_back(value);
    acc.add(value);
  }
  for (double q : kQuantiles) {
    const double p = acc.percentile(q);
    EXPECT_NE(std::find(samples.begin(), samples.end(), p), samples.end())
        << "percentile " << q << " returned a value never observed";
  }
}

TEST(Percentile, InsertionOrderDoesNotMatter) {
  const std::vector<double> samples = {3, -1, 3, 0, 7, -1, 3, 12, -8, 0};
  util::Accumulator forward(/*keep_samples=*/true);
  util::Accumulator backward(/*keep_samples=*/true);
  for (double v : samples) forward.add(v);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    backward.add(*it);
  }
  for (double q : kQuantiles) {
    EXPECT_EQ(forward.percentile(q), backward.percentile(q));
  }
  EXPECT_EQ(forward.sorted_samples(), backward.sorted_samples());
}

// --- retention through the sweep runner -----------------------------------

SweepPlan tails_plan() {
  SweepPlan plan;
  plan.solvers = {"powerdown.break_even", "powerdown.never"};
  plan.base_params = {{"alpha", 2.0}, {"gaps", 50.0}};
  plan.axes = {{"dist", {0, 1, 3}}};
  plan.trials = 25;
  plan.seed = 4242;
  return plan;
}

TEST(TailsSweep, PercentileColumnsBitIdenticalAcrossThreadCounts) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  SweepOptions serial;
  serial.num_threads = 1;
  serial.keep_samples = true;
  SweepOptions pooled = serial;
  pooled.num_threads = 4;

  const auto a = SweepRunner(serial).run(registry, tails_plan());
  const auto b = SweepRunner(pooled).run(registry, tails_plan());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].objective.samples_kept());
    for (double q : kQuantiles) {
      EXPECT_EQ(a[i].objective.percentile(q), b[i].objective.percentile(q));
    }
    EXPECT_EQ(a[i].ratio.sorted_samples(), b[i].ratio.sorted_samples());
    EXPECT_EQ(a[i].cost.sorted_samples(), b[i].cost.sorted_samples());
  }
  EXPECT_EQ(results_csv_text(a), results_csv_text(b));
  EXPECT_NE(results_csv_text(a).find("objective_p99"), std::string::npos);
}

TEST(TailsSweep, StreamingStatisticsUnchangedByRetention) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  SweepOptions tails;
  tails.keep_samples = true;
  const auto with = SweepRunner(tails).run(registry, tails_plan());
  const auto without = SweepRunner().run(registry, tails_plan());
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].objective.mean(), without[i].objective.mean());
    EXPECT_EQ(with[i].objective.variance(), without[i].objective.variance());
    EXPECT_EQ(with[i].ratio.sum(), without[i].ratio.sum());
    EXPECT_FALSE(without[i].objective.samples_kept());
  }
}

TEST(TailsSweep, OffByDefaultEmitsNoPercentileColumns) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  const auto results = SweepRunner().run(registry, tails_plan());
  const std::string csv = results_csv_text(results);
  EXPECT_EQ(csv.find("_p50"), std::string::npos);
  EXPECT_EQ(csv.find("_p95"), std::string::npos);
  EXPECT_EQ(csv.find("ratio_min"), std::string::npos);
}

// --- the --tails e2e bar: 1 thread == 4 threads == 3-shard merge ----------

RunConfig e8_tails_config(int trials) {
  RunConfig config;
  config.preset = "e8";  // secretary family: Algorithm 2 on graph cuts
  config.trials = trials;
  config.tails = true;
  config.use_cache = false;
  return config;
}

TEST(TailsSession, SecretaryPresetByteIdenticalAcrossThreadsAndShardMerge) {
  const std::string dir = temp_path("e8/");
  ASSERT_TRUE(ensure_directory(dir).ok());

  // Reference: one thread.
  const std::string csv_1t = dir + "t1.csv";
  const std::string report_1t = dir + "report-t1";
  {
    RunConfig config = e8_tails_config(/*trials=*/3);
    config.num_threads = 1;
    Session session(std::move(config));
    session.add_sink(std::make_unique<CsvSink>(csv_1t));
    session.add_sink(std::make_unique<SvgReportSink>(report_1t));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }
  const std::string reference_csv = read_file(csv_1t);
  ASSERT_NE(reference_csv.find("objective_p99"), std::string::npos);
  const std::string reference_svg = read_file(report_1t + "/e8-sweep1.svg");
  // The report carries the band ribbons (one polygon per series; e8's
  // PlotHint names p25–p75).
  ASSERT_NE(reference_svg.find("<polygon"), std::string::npos);

  // Four threads.
  const std::string csv_4t = dir + "t4.csv";
  const std::string report_4t = dir + "report-t4";
  {
    RunConfig config = e8_tails_config(/*trials=*/3);
    config.num_threads = 4;
    Session session(std::move(config));
    session.add_sink(std::make_unique<CsvSink>(csv_4t));
    session.add_sink(std::make_unique<SvgReportSink>(report_4t));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }
  EXPECT_EQ(read_file(csv_4t), reference_csv);
  EXPECT_EQ(read_file(report_4t + "/e8-sweep1.svg"), reference_svg);

  // Three shard legs persisting v2 caches, then a tails merge.
  std::vector<std::string> cache_files;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    RunConfig config = e8_tails_config(/*trials=*/3);
    config.shard_index = shard;
    config.shard_count = 3;
    config.cache_file = dir + "s" + std::to_string(shard) + ".cache";
    cache_files.push_back(config.cache_file);
    Session session(std::move(config));
    session.add_sink(std::make_unique<CacheFileSink>());
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(
        read_file(cache_files.back()).rfind(kScenarioCacheFormatHeader, 0),
        0u);
  }
  const std::string merged_csv = dir + "merged.csv";
  const std::string report_merged = dir + "report-merged";
  {
    RunConfig config = e8_tails_config(/*trials=*/3);
    config.merge_files = cache_files;
    Session session(std::move(config));
    session.add_sink(std::make_unique<CsvSink>(merged_csv));
    session.add_sink(std::make_unique<SvgReportSink>(report_merged));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }
  EXPECT_EQ(read_file(merged_csv), reference_csv);
  EXPECT_EQ(read_file(report_merged + "/e8-sweep1.svg"), reference_svg);
}

TEST(TailsSession, MergeOfSampleLessCacheFailsLoudly) {
  const std::string dir = temp_path("plainmerge/");
  ASSERT_TRUE(ensure_directory(dir).ok());
  const std::string cache_file = dir + "plain.cache";
  {
    // A streaming-era shard: same preset, tails off.
    RunConfig config;
    config.preset = "e8";
    config.trials = 2;
    config.use_cache = false;
    config.cache_file = cache_file;
    Session session(std::move(config));
    session.add_sink(std::make_unique<CacheFileSink>());
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }
  RunConfig config = e8_tails_config(/*trials=*/2);
  config.merge_files = {cache_file};
  Session session(std::move(config));
  const Status status = session.run();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--tails"), std::string::npos);
}

// --- capped retention: the --tails-cap reservoir --------------------------

TEST(TailsCap, ReservoirIsDeterministicAndBounded) {
  util::Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.uniform_double(0, 1));

  util::Accumulator a(/*keep_samples=*/true);
  util::Accumulator b(/*keep_samples=*/true);
  util::Accumulator full(/*keep_samples=*/true);
  a.set_reservoir(16, /*seed=*/0xfeedULL);
  b.set_reservoir(16, /*seed=*/0xfeedULL);
  for (double v : values) {
    a.add(v);
    b.add(v);
    full.add(v);
  }
  // Same seed, same stream: the retained subsets are identical — and capped.
  EXPECT_EQ(a.sorted_samples(), b.sorted_samples());
  EXPECT_EQ(a.sorted_samples().size(), 16u);
  // Streaming statistics see every reading, not just the survivors.
  EXPECT_EQ(a.mean(), full.mean());
  EXPECT_EQ(a.variance(), full.variance());
  EXPECT_EQ(a.count(), full.count());
  // Every survivor was actually observed.
  const auto& all = full.sorted_samples();
  for (double v : a.sorted_samples()) {
    EXPECT_NE(std::find(all.begin(), all.end(), v), all.end());
  }
  // A different seed retains a different subset (200 choose 16 leaves no
  // realistic collision odds).
  util::Accumulator c(/*keep_samples=*/true);
  c.set_reservoir(16, /*seed=*/0xbeefULL);
  for (double v : values) c.add(v);
  EXPECT_NE(a.sorted_samples(), c.sorted_samples());
}

TEST(TailsCap, CapAboveCountRetainsEverything) {
  util::Accumulator acc(/*keep_samples=*/true);
  acc.set_reservoir(64, /*seed=*/1);
  for (int i = 0; i < 10; ++i) acc.add(i);
  EXPECT_EQ(acc.sorted_samples().size(), 10u);
  EXPECT_EQ(acc.percentile(0.0), 0.0);
  EXPECT_EQ(acc.percentile(1.0), 9.0);
}

TEST(TailsCap, SweepRetentionCappedThreadInvariantAndSeededPerScenario) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  SweepOptions serial;
  serial.num_threads = 1;
  serial.keep_samples = true;
  serial.tails_cap = 5;
  SweepOptions pooled = serial;
  pooled.num_threads = 4;

  const auto a = SweepRunner(serial).run(registry, tails_plan());
  const auto b = SweepRunner(pooled).run(registry, tails_plan());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(a[i].objective.sorted_samples().size(), 5u);
    EXPECT_EQ(a[i].objective.sorted_samples(), b[i].objective.sorted_samples());
    EXPECT_EQ(a[i].ratio.sorted_samples(), b[i].ratio.sorted_samples());
  }
  EXPECT_EQ(results_csv_text(a), results_csv_text(b));

  // The reservoir keyed off the scenario really dropped readings — the
  // capped percentiles differ from exact retention somewhere in the sweep
  // (trials=25 against cap 5).
  SweepOptions exact;
  exact.num_threads = 1;
  exact.keep_samples = true;
  const auto uncapped = SweepRunner(exact).run(registry, tails_plan());
  EXPECT_NE(results_csv_text(a), results_csv_text(uncapped));
  // But the streaming columns (means, variances) are untouched by the cap.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objective.mean(), uncapped[i].objective.mean());
    EXPECT_EQ(a[i].objective.variance(), uncapped[i].objective.variance());
  }
}

TEST(TailsCap, CappedCacheRoundTripsThroughSaveAndMerge) {
  const std::string dir = temp_path("cap_roundtrip/");
  ASSERT_TRUE(ensure_directory(dir).ok());

  auto capped_config = [] {
    RunConfig config = e8_tails_config(/*trials=*/10);
    config.tails_cap = 4;
    return config;
  };

  const std::string direct_csv = dir + "direct.csv";
  {
    Session session(capped_config());
    session.add_sink(std::make_unique<CsvSink>(direct_csv));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }

  const std::string cache_file = dir + "capped.cache";
  {
    RunConfig config = capped_config();
    config.cache_file = cache_file;
    Session session(std::move(config));
    session.add_sink(std::make_unique<CacheFileSink>());
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }
  const std::string merged_csv = dir + "merged.csv";
  {
    RunConfig config = capped_config();
    config.merge_files = {cache_file};
    Session session(std::move(config));
    session.add_sink(std::make_unique<CsvSink>(merged_csv));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }
  EXPECT_EQ(read_file(merged_csv), read_file(direct_csv));
}

// --- tail-aware pass rules (BenchPreset::pass_rules) ----------------------

TEST(TailPassRules, SecretaryMedianRuleEvaluatesAndPasses) {
  // e8 carries `ratio_p50 >= 0.0169` (the 1/8e² guarantee is in
  // expectation, so the median — not the minimum — must clear the floor).
  std::ostringstream table;
  RunConfig config = e8_tails_config(/*trials=*/3);
  config.num_threads = 1;
  Session session(std::move(config));
  session.add_sink(std::make_unique<TableSink>(table));
  const Status status = session.run();
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_NE(table.str().find("tail check ratio_p50 >= 0.0169: OK"),
            std::string::npos)
      << table.str();
}

TEST(TailPassRules, SkippedEntirelyWithoutTails) {
  // Tails off: no percentile columns exist, so the rules must not run
  // (and certainly must not fail the sweep).
  std::ostringstream table;
  RunConfig config;
  config.preset = "e8";
  config.trials = 2;
  config.use_cache = false;
  Session session(std::move(config));
  session.add_sink(std::make_unique<TableSink>(table));
  const Status status = session.run();
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(table.str().find("tail check"), std::string::npos);
}

TEST(TailsCap, RequiresTails) {
  RunConfig config;
  config.preset = "e8";
  config.trials = 2;
  config.tails_cap = 4;  // no tails: retention is off, the cap is an error
  Session session(std::move(config));
  const Status status = session.run();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--tails"), std::string::npos);
}

// --- the committed goldens are untouched with retention off ---------------

TEST(TailsGolden, BenchGoldenCsvsByteIdenticalWithoutTails) {
  // bench/golden/README.md: each file is `powersched sweep --preset <name>
  // --trials 2 --threads 2 --csv` — rerun exactly that through the Session
  // (tails off) and require the committed bytes.
  for (const char* name : {"e1", "e3", "e4", "e5", "e8"}) {
    RunConfig config;
    config.preset = name;
    config.trials = 2;
    config.num_threads = 2;
    const std::string csv = temp_path(std::string("golden_") + name + ".csv");
    Session session(std::move(config));
    session.add_sink(std::make_unique<CsvSink>(csv));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
    const std::string golden = std::string(POWERSCHED_SOURCE_DIR) +
                               "/bench/golden/" + name + ".csv";
    EXPECT_EQ(read_file(csv), read_file(golden))
        << "tails-off CSV drifted from bench/golden/" << name << ".csv";
    std::remove(csv.c_str());
  }
}

}  // namespace
}  // namespace ps::engine
