// Tests for sweep sharding and the persistent scenario cache: the shard
// partition property over every preset's dry expansion, byte-identical
// merge of independently-run shards (the multi-process CI contract),
// cache-store round-trip fidelity, version/schema rejection, stale-entry
// non-reuse, and the unwritable-CSV exit paths.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/bench_presets.hpp"
#include "engine/cache_store.hpp"
#include "engine/registry.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"
#include "engine/session.hpp"
#include "engine/sweep_runner.hpp"

namespace ps::engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// A cheap, fully deterministic plan used by the run-level tests: 6
/// scenarios, a handful of trials, sub-millisecond solvers.
SweepPlan cheap_plan() {
  SweepPlan plan;
  plan.solvers = {"powerdown.break_even", "powerdown.never"};
  plan.base_params = {{"alpha", 2.0}, {"gaps", 50.0}};
  plan.axes = {{"dist", {0, 1, 3}}};
  plan.trials = 4;
  plan.seed = 777;
  return plan;
}

void expect_results_bit_identical(const ScenarioResult& a,
                                  const ScenarioResult& b) {
  EXPECT_EQ(scenario_cache_key(a.spec), scenario_cache_key(b.spec));
  EXPECT_EQ(a.trials_run, b.trials_run);
  EXPECT_EQ(a.infeasible, b.infeasible);
  const auto expect_acc = [](const util::Accumulator& x,
                             const util::Accumulator& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.mean(), y.mean());
    EXPECT_EQ(x.variance(), y.variance());
    EXPECT_EQ(x.min(), y.min());
    EXPECT_EQ(x.max(), y.max());
    EXPECT_EQ(x.sum(), y.sum());
  };
  expect_acc(a.objective, b.objective);
  expect_acc(a.ratio, b.ratio);
  expect_acc(a.cost, b.cost);
  expect_acc(a.oracle_calls, b.oracle_calls);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, acc] : a.metrics) {
    const auto it = b.metrics.find(name);
    ASSERT_NE(it, b.metrics.end()) << name;
    expect_acc(acc, it->second);
  }
}

// --- shard partition property ---------------------------------------------

TEST(Shard, PartitionIsExactForEveryPresetDryExpansion) {
  for (const auto& preset : bench_presets()) {
    for (const auto& preset_sweep : preset.sweeps) {
      const auto full = preset_sweep.plan.expand();
      for (std::size_t count : {1u, 2u, 3u, 7u}) {
        std::vector<std::vector<ScenarioSpec>> shards;
        std::size_t total = 0;
        for (std::size_t index = 0; index < count; ++index) {
          shards.push_back(preset_sweep.plan.shard(index, count));
          total += shards.back().size();
        }
        ASSERT_EQ(total, full.size()) << preset.name << " N=" << count;
        // Round-robin: full[i] lands at position i/count of shard i%count,
        // so interleaving the shards reconstructs the full plan exactly.
        for (std::size_t i = 0; i < full.size(); ++i) {
          const ScenarioSpec& got = shards[i % count][i / count];
          EXPECT_EQ(scenario_cache_key(got), scenario_cache_key(full[i]))
              << preset.name << " N=" << count << " i=" << i;
        }
      }
    }
  }
}

TEST(Shard, EveryScenarioAppearsExactlyOnceAcrossShards) {
  const auto full = cheap_plan().expand();
  for (std::size_t count : {2u, 3u, 7u}) {
    std::set<std::string> seen;
    for (std::size_t index = 0; index < count; ++index) {
      for (const auto& spec : shard_scenarios(full, index, count)) {
        EXPECT_TRUE(seen.insert(scenario_cache_key(spec)).second)
            << "duplicate across shards: " << spec.label();
      }
    }
    EXPECT_EQ(seen.size(), full.size());
  }
}

// --- cache store round-trip and rejection ---------------------------------

TEST(CacheStore, RoundTripIsBitIdentical) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  ScenarioCache cache;
  SweepOptions options;
  options.use_cache = true;
  options.cache = &cache;
  const SweepRunner runner(options);
  const auto results = runner.run(registry, cheap_plan());
  ASSERT_EQ(cache.size(), results.size());

  const std::string path = temp_path("roundtrip.cache");
  ASSERT_TRUE(ScenarioCacheStore(path).save(cache));

  ScenarioCache loaded;
  ASSERT_TRUE(ScenarioCacheStore(path).load(loaded));
  ASSERT_EQ(loaded.size(), cache.size());
  for (const auto& [key, result] : cache.snapshot()) {
    const auto entry = loaded.peek(key);
    ASSERT_NE(entry, nullptr) << key;
    expect_results_bit_identical(*entry, *result);
    // Wall time persists through the store too (it is part of the result
    // even though deterministic CSVs exclude it).
    EXPECT_EQ(entry->wall_ms.count(), result->wall_ms.count());
    EXPECT_EQ(entry->wall_ms.sum(), result->wall_ms.sum());
  }
  std::remove(path.c_str());
}

TEST(CacheStore, RoundTripsSubnormalValues) {
  // glibc strtod flags subnormals with ERANGE even though the parsed value
  // is exact; the loader must accept them — the store itself emits them.
  ScenarioResult result;
  result.spec.solver = "powerdown.never";
  result.spec.trials = 1;
  result.trials_run = 1;
  const double subnormal = 5e-321;
  result.objective.add(subnormal);
  result.metrics.emplace("tiny", util::Accumulator(/*keep_samples=*/false))
      .first->second.add(subnormal);

  ScenarioCache cache;
  cache.insert(scenario_cache_key(result.spec),
               std::make_shared<ScenarioResult>(result));
  const std::string path = temp_path("subnormal.cache");
  ASSERT_TRUE(ScenarioCacheStore(path).save(cache));

  ScenarioCache loaded;
  ASSERT_TRUE(ScenarioCacheStore(path).load(loaded));
  const auto entry = loaded.peek(scenario_cache_key(result.spec));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->objective.mean(), subnormal);
  EXPECT_EQ(entry->metrics.at("tiny").sum(), subnormal);
  std::remove(path.c_str());
}

TEST(CacheStore, MissingFileLoadsAsEmptySuccess) {
  ScenarioCache cache;
  EXPECT_TRUE(
      ScenarioCacheStore(temp_path("does_not_exist.cache")).load(cache));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheStore, RejectsVersionMismatch) {
  const std::string path = temp_path("wrong_version.cache");
  {
    std::ofstream out(path);
    out << "powersched-scenario-cache v999\n";
  }
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(path).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStore, RejectsForeignAndMalformedFiles) {
  const std::string garbage = temp_path("garbage.cache");
  {
    std::ofstream out(garbage);
    out << "solver,params,trials\npower.greedy,jobs=3,20\n";
  }
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(garbage).load(cache));
  std::remove(garbage.c_str());

  const std::string truncated = temp_path("truncated.cache");
  {
    std::ofstream out(truncated);
    out << kScenarioCacheFormatHeader << "\n";
    out << "scenario power.greedy\ntrials 5\nseed 1\n";  // no 'end'
  }
  EXPECT_FALSE(ScenarioCacheStore(truncated).load(cache));
  std::remove(truncated.c_str());

  const std::string unknown_keyword = temp_path("unknown_keyword.cache");
  {
    std::ofstream out(unknown_keyword);
    out << kScenarioCacheFormatHeader << "\n";
    out << "scenario power.greedy\nfuture_field 7\nend\n";
  }
  EXPECT_FALSE(ScenarioCacheStore(unknown_keyword).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(unknown_keyword.c_str());
}

TEST(CacheStore, StaleEntryWithDifferentTrialsIsNotReused) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  const std::string path = temp_path("stale_trials.cache");

  SweepPlan plan = cheap_plan();
  plan.trials = 3;
  {
    ScenarioCache cache;
    SweepOptions options;
    options.use_cache = true;
    options.cache = &cache;
    SweepRunner(options).run(registry, plan);
    ASSERT_TRUE(ScenarioCacheStore(path).save(cache));
  }

  // Same scenarios but a different trial count: every lookup must miss —
  // a 3-trial aggregate must never stand in for a 5-trial one.
  plan.trials = 5;
  ScenarioCache cache;
  ASSERT_TRUE(ScenarioCacheStore(path).load(cache));
  EXPECT_GT(cache.size(), 0u);
  SweepOptions options;
  options.use_cache = true;
  options.cache = &cache;
  const auto results = SweepRunner(options).run(registry, plan);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, plan.expand().size());
  for (const auto& result : results) EXPECT_EQ(result.trials_run, 5u);
  std::remove(path.c_str());
}

// --- multi-shard run + merge == unsharded run -----------------------------

TEST(ShardMerge, MergedAggregatesBitIdenticalToUnshardedForManyShardCounts) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  const SweepPlan plan = cheap_plan();
  const auto full = plan.expand();
  const auto reference = SweepRunner().run(registry, full);
  const std::string csv_ref = temp_path("merge_ref.csv");
  ASSERT_TRUE(write_results_csv(reference, csv_ref));

  for (std::size_t count : {1u, 2u, 3u, 7u}) {
    // Each shard runs in its own cache — standing in for a separate
    // process — and persists to its own file.
    std::vector<std::string> files;
    for (std::size_t index = 0; index < count; ++index) {
      ScenarioCache shard_cache;
      SweepOptions options;
      options.use_cache = true;
      options.cache = &shard_cache;
      SweepRunner(options).run(registry, plan.shard(index, count));
      const std::string file =
          temp_path("merge_shard" + std::to_string(count) + "_" +
                    std::to_string(index) + ".cache");
      ASSERT_TRUE(ScenarioCacheStore(file).save(shard_cache));
      files.push_back(file);
    }

    ScenarioCache merged_cache;
    ASSERT_TRUE(ScenarioCacheStore::merge_into(files, merged_cache));
    std::vector<ScenarioResult> merged;
    ASSERT_TRUE(merge_scenario_results(full, merged_cache, merged));
    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      expect_results_bit_identical(merged[i], reference[i]);
    }

    const std::string csv_merged =
        temp_path("merge_out" + std::to_string(count) + ".csv");
    ASSERT_TRUE(write_results_csv(merged, csv_merged));
    EXPECT_EQ(read_file(csv_merged), read_file(csv_ref)) << "N=" << count;
    std::remove(csv_merged.c_str());
    for (const auto& file : files) std::remove(file.c_str());
  }
  std::remove(csv_ref.c_str());
}

TEST(ShardMerge, MergeFailsWhenAShardIsMissing) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  const SweepPlan plan = cheap_plan();

  ScenarioCache cache;
  SweepOptions options;
  options.use_cache = true;
  options.cache = &cache;
  SweepRunner(options).run(registry, plan.shard(0, 2));  // shard 1 never ran

  std::vector<ScenarioResult> merged;
  EXPECT_FALSE(merge_scenario_results(plan.expand(), cache, merged));

  // merge_into refuses nonexistent files outright.
  ScenarioCache other;
  EXPECT_FALSE(ScenarioCacheStore::merge_into(
      {temp_path("no_such_shard.cache")}, other));
}

// --- unwritable output paths exit loudly ----------------------------------

/// A path that cannot be created for any user (root included): a regular
/// file as a path component yields ENOTDIR. The read-only-directory variant
/// below additionally covers the plain EACCES case when not running as
/// root (root bypasses permission bits, so asserting there would be vacuous).
class UnwritableDir {
 public:
  UnwritableDir() {
    blocker_file_ = temp_path("ps_blocker_file");
    std::ofstream(blocker_file_) << "not a directory\n";
    readonly_dir_ = temp_path("ps_readonly_dir");
    ::mkdir(readonly_dir_.c_str(), 0500);
  }
  ~UnwritableDir() {
    std::remove(blocker_file_.c_str());
    ::chmod(readonly_dir_.c_str(), 0700);
    ::rmdir(readonly_dir_.c_str());
  }
  std::string enotdir_path() const { return blocker_file_ + "/out.csv"; }
  std::string readonly_path() const { return readonly_dir_ + "/out.csv"; }

 private:
  std::string blocker_file_;
  std::string readonly_dir_;
};

TEST(UnwritableCsv, WriteResultsCsvReturnsFalse) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  const auto results = SweepRunner().run(registry, cheap_plan());
  const UnwritableDir unwritable;
  EXPECT_FALSE(write_results_csv(results, unwritable.enotdir_path()));
  if (::geteuid() != 0) {
    EXPECT_FALSE(write_results_csv(results, unwritable.readonly_path()));
  }
}

TEST(UnwritableCsv, SessionFailsOnUnwritableCsvAndCache) {
  const UnwritableDir unwritable;
  // One-trial e15 through a Session; a CacheFileSink joins when the config
  // names a cache file, a CsvSink when `csv_path` is set.
  const auto run_e15 = [](const std::string& cache_file,
                          const std::string& csv_path) {
    RunConfig config;
    config.preset = "e15";
    config.trials = 1;
    config.cache_file = cache_file;
    Session session(std::move(config));
    if (!cache_file.empty()) {
      session.add_sink(std::make_unique<CacheFileSink>());
    }
    if (!csv_path.empty()) {
      session.add_sink(std::make_unique<CsvSink>(csv_path));
    }
    return session.run();
  };

  EXPECT_EQ(run_e15("", unwritable.enotdir_path()).code(),
            Status::Code::kRuntime);
  EXPECT_EQ(run_e15(unwritable.enotdir_path(), "").code(),
            Status::Code::kRuntime);
  if (::geteuid() != 0) {
    EXPECT_EQ(run_e15("", unwritable.readonly_path()).code(),
              Status::Code::kRuntime);
  }
}

TEST(UnwritableCsv, CacheStoreSaveReturnsFalse) {
  const UnwritableDir unwritable;
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(unwritable.enotdir_path()).save(cache));
  if (::geteuid() != 0) {
    EXPECT_FALSE(ScenarioCacheStore(unwritable.readonly_path()).save(cache));
  }
}

// --- cache-store v2: retained samples, fail-closed loads ------------------

/// Runs cheap_plan with sample retention into a fresh cache and saves it to
/// `path` — a genuine v2 file with sample blocks, the base for mutation
/// tests.
void write_tails_cache(const std::string& path) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  ScenarioCache cache;
  SweepOptions options;
  options.use_cache = true;
  options.cache = &cache;
  options.keep_samples = true;
  SweepRunner(options).run(registry, cheap_plan());
  ASSERT_TRUE(ScenarioCacheStore(path).save(cache));
}

/// Replaces the first occurrence of `from` with `to` in the file at `path`;
/// fails the test when `from` is absent (the mutation would be a no-op).
void mutate_file(const std::string& path, const std::string& from,
                 const std::string& to) {
  std::string text = read_file(path);
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos)
      << "mutation target '" << from << "' not found in " << path;
  text.replace(pos, from.size(), to);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(CacheStoreV2, SampleRoundTripIsBitIdenticalIncludingPercentiles) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  ScenarioCache cache;
  SweepOptions options;
  options.use_cache = true;
  options.cache = &cache;
  options.keep_samples = true;
  const auto results = SweepRunner(options).run(registry, cheap_plan());

  const std::string path = temp_path("tails_roundtrip.cache");
  ASSERT_TRUE(ScenarioCacheStore(path).save(cache));
  EXPECT_NE(read_file(path).find("\nsamples objective "), std::string::npos);

  ScenarioCache loaded;
  ASSERT_TRUE(ScenarioCacheStore(path).load(loaded));
  ASSERT_EQ(loaded.size(), cache.size());
  for (const auto& result : results) {
    const auto entry = loaded.peek(scenario_cache_key(result.spec));
    ASSERT_NE(entry, nullptr);
    expect_results_bit_identical(*entry, result);
    ASSERT_TRUE(entry->objective.samples_kept());
    for (double q : {0.05, 0.5, 0.95, 0.99}) {
      EXPECT_EQ(entry->objective.percentile(q), result.objective.percentile(q));
      EXPECT_EQ(entry->cost.percentile(q), result.cost.percentile(q));
    }
    EXPECT_EQ(entry->objective.sorted_samples(),
              result.objective.sorted_samples());
    // wall_ms never persists samples — it stays streaming-only on load.
    EXPECT_FALSE(entry->wall_ms.samples_kept());
  }
  std::remove(path.c_str());
}

TEST(CacheStoreV2, SavedThenLoadedThenSavedFileIsByteIdentical) {
  const std::string path = temp_path("tails_stable.cache");
  write_tails_cache(path);
  const std::string first = read_file(path);

  ScenarioCache loaded;
  ASSERT_TRUE(ScenarioCacheStore(path).load(loaded));
  const std::string resaved = temp_path("tails_stable2.cache");
  ASSERT_TRUE(ScenarioCacheStore(resaved).save(loaded));
  EXPECT_EQ(read_file(resaved), first);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(CacheStoreV2, V1HeaderFailsClosed) {
  // A genuine v1 file: v1 header, two-field aggregate line. This build
  // reads only v2 and must refuse it with the regenerate message.
  const std::string path = temp_path("v1_header.cache");
  {
    std::ofstream out(path, std::ios::binary);
    out << "powersched-scenario-cache v1\n"
        << "scenario powerdown.never\ntrials 1\nseed 1\naggregate 1 0\n"
        << "end\n";
  }
  ScenarioCache cache;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(ScenarioCacheStore(path).load(cache));
  const std::string diagnostic = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(diagnostic.find("version mismatch"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("regenerate the cache file"), std::string::npos)
      << diagnostic;
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStoreV2, V2HeaderWithV1BodyFailsClosed) {
  const std::string path = temp_path("v2_header_v1_body.cache");
  write_tails_cache(path);
  // Strip the samples flag from the first aggregate line: a v1-shaped body
  // under the v2 header must fail, not load half-understood.
  std::string text = read_file(path);
  const std::size_t pos = text.find("\naggregate ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = text.find('\n', pos + 1);
  ASSERT_EQ(text.compare(eol - 2, 2, " 1"), 0);
  text.erase(eol - 2, 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(path).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStoreV2, TruncatedSampleBlockFailsClosed) {
  const std::string path = temp_path("truncated_samples.cache");
  write_tails_cache(path);
  // Drop the last value of the first objective sample block: the declared
  // count no longer matches the values present.
  std::string text = read_file(path);
  const std::size_t pos = text.find("\nsamples objective ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = text.find('\n', pos + 1);
  const std::size_t last_space = text.rfind(' ', eol);
  ASSERT_GT(last_space, pos);
  text.erase(last_space, eol - last_space);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(path).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStoreV2, FewerSamplesThanCountedIsACappedSubsetAndLoads) {
  const std::string path = temp_path("capped_subset.cache");
  write_tails_cache(path);
  // cheap_plan runs 4 trials, all feasible, so every objective block is
  // "samples objective 4 ...". Declare 3 and drop one value: the block is
  // self-consistent and smaller than the accumulator state's count — the
  // legal shape a `--tails-cap` reservoir persists, so it must load.
  std::string text = read_file(path);
  const std::size_t pos = text.find("\nsamples objective 4 ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::strlen("\nsamples objective 4 "),
               "\nsamples objective 3 ");
  const std::size_t eol = text.find('\n', pos + 1);
  const std::size_t last_space = text.rfind(' ', eol);
  text.erase(last_space, eol - last_space);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ScenarioCache cache;
  EXPECT_TRUE(ScenarioCacheStore(path).load(cache));
  EXPECT_GT(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStoreV2, MoreSamplesThanCountedFailsClosed) {
  const std::string path = temp_path("excess_samples.cache");
  write_tails_cache(path);
  // The reverse direction stays fail-closed: a block claiming more retained
  // samples than the accumulator ever counted is corrupt, never a subset.
  // Declare 5 and duplicate the last value (keeps the block sorted and
  // self-consistent).
  std::string text = read_file(path);
  const std::size_t pos = text.find("\nsamples objective 4 ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::strlen("\nsamples objective 4 "),
               "\nsamples objective 5 ");
  const std::size_t eol = text.find('\n', pos + 1);
  const std::size_t last_space = text.rfind(' ', eol);
  const std::string last_value = text.substr(last_space, eol - last_space);
  text.insert(eol, last_value);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(path).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStoreV2, GarbageSamplesFailClosed) {
  const std::string path = temp_path("garbage_samples.cache");
  write_tails_cache(path);
  mutate_file(path, "\nsamples objective 4 ", "\nsamples objective 4 bogus ");
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(path).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStoreV2, SampleBlockWithoutDeclaredFlagFailsClosed) {
  const std::string path = temp_path("undeclared_samples.cache");
  write_tails_cache(path);
  // Flip the first entry's samples flag off while leaving its sample
  // blocks in place: blocks an entry never declared must be rejected.
  // (cheap_plan: 4 trials, none infeasible, so the aggregate line is fixed.)
  mutate_file(path, "aggregate 4 0 1\n", "aggregate 4 0 0\n");
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(path).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheStoreV2, UnknownSampleNameAndMissingBlockFailClosed) {
  const std::string unknown = temp_path("unknown_sample_name.cache");
  write_tails_cache(unknown);
  mutate_file(unknown, "\nsamples objective ", "\nsamples wall_ms ");
  ScenarioCache cache;
  EXPECT_FALSE(ScenarioCacheStore(unknown).load(cache));
  std::remove(unknown.c_str());

  const std::string missing = temp_path("missing_sample_block.cache");
  write_tails_cache(missing);
  // Rename one block to another legal core name: 'objective' now has no
  // block (missing) and 'cost' has two (duplicate) — either way, loud.
  mutate_file(missing, "\nsamples objective ", "\nsamples cost ");
  EXPECT_FALSE(ScenarioCacheStore(missing).load(cache));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(missing.c_str());
}

TEST(CacheStoreV2, NumbersNoSaveWritesFailClosedNamingFileAndLine) {
  // Each mutation turns one token of a genuine file into something the
  // saver never writes: a negative count (strtoull used to wrap -1 to
  // 2^64-1), trailing garbage, a '+' sign, hex, or a decimal that rounds to
  // zero. The load must fail and name the file and the mutated line.
  const std::pair<const char*, const char*> mutations[] = {
      {"\naggregate 4 0 1\n", "\naggregate -1 0 1\n"},
      {"\naggregate 4 0 1\n", "\naggregate 4 -1 1\n"},
      {"\nseed 777\n", "\nseed -777\n"},
      {"\nsamples objective 4 ", "\nsamples objective -4 "},
      {"\nacc objective 4 ", "\nacc objective -4 "},
      {"\ntrials 4\n", "\ntrials 5abc\n"},
      {"\ntrials 4\n", "\ntrials +4\n"},
      {"\ntrials 4\n", "\ntrials -4\n"},
      {"\nparam alpha 2\n", "\nparam alpha +2\n"},
      {"\nparam alpha 2\n", "\nparam alpha 0x10\n"},
      {"\nseed 777\n", "\nseed 0x10\n"},
      {"\nparam gaps 50\n", "\nparam gaps 1e-400\n"},
      {"\nacc oracle_calls 4 0 ", "\nacc oracle_calls 4 1e-400 "},
  };
  for (const auto& [from, to] : mutations) {
    const std::string path = temp_path("bad_number.cache");
    write_tails_cache(path);
    const std::string text = read_file(path);
    const std::size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    // `from` starts with the newline that ends the previous line.
    const std::size_t line_no =
        std::count(text.begin(), text.begin() + pos + 1, '\n') + 1;
    mutate_file(path, from, to);

    ScenarioCache cache;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(ScenarioCacheStore(path).load(cache)) << to;
    const std::string diagnostic = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(diagnostic.find("cache load: " + path + ":" +
                              std::to_string(line_no) + ": "),
              std::string::npos)
        << to << " -> " << diagnostic;
    EXPECT_EQ(cache.size(), 0u) << to;
    std::remove(path.c_str());
  }
}

TEST(CacheStoreV2, CommittedFixtureReloadsAndResavesByteForByte) {
  // tests/data/tails_cache_v2.cache was written by the strtod/%.17g build
  // that preceded the charconv codec (`sweep --preset e3 --tails
  // --trials 3` then `--preset e15 --tails --tails-cap 3 --trials 4` into
  // one file), so it pins the on-disk format across codec changes.
  const std::string fixture =
      std::string(POWERSCHED_SOURCE_DIR) + "/tests/data/tails_cache_v2.cache";
  const std::string original = read_file(fixture);
  ASSERT_FALSE(original.empty()) << fixture;

  ScenarioCache cache;
  ASSERT_TRUE(ScenarioCacheStore(fixture).load(cache));
  EXPECT_EQ(cache.size(), 16u);
  const std::string resaved = temp_path("fixture_resaved.cache");
  ASSERT_TRUE(ScenarioCacheStore(resaved).save(cache));
  EXPECT_EQ(read_file(resaved), original);
  std::remove(resaved.c_str());
}

TEST(CacheStoreV2, SampleLessCacheEntryIsRecomputedUnderTails) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  const SweepPlan plan = cheap_plan();
  ScenarioCache cache;
  SweepOptions streaming;
  streaming.use_cache = true;
  streaming.cache = &cache;
  SweepRunner(streaming).run(registry, plan);
  ASSERT_GT(cache.size(), 0u);

  // A --tails run over the streaming-era cache must not serve sample-less
  // entries: every scenario recomputes, and the refreshed entries carry
  // samples with unchanged aggregates.
  SweepOptions tails = streaming;
  tails.keep_samples = true;
  const auto results = SweepRunner(tails).run(registry, plan);
  for (const auto& result : results) {
    ASSERT_TRUE(result.objective.samples_kept());
    const auto entry = cache.peek(scenario_cache_key(result.spec));
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->objective.samples_kept());
    expect_results_bit_identical(*entry, result);
  }
}

}  // namespace
}  // namespace ps::engine
