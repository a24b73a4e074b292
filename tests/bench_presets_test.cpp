// Tests for the bench preset catalogue: every preset resolves, every plan
// references only registered solvers and expands to runnable scenarios, a
// representative preset runs end-to-end to a non-empty CSV, and a repeated
// preset run is served from the scenario cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "engine/bench_presets.hpp"
#include "engine/registry.hpp"
#include "engine/result_sink.hpp"
#include "engine/session.hpp"
#include "engine/sweep_runner.hpp"

namespace ps::engine {
namespace {

TEST(BenchPresets, CatalogueCoversEveryBench) {
  const auto& presets = bench_presets();
  std::set<std::string> names;
  for (const auto& preset : presets) names.insert(preset.name);
  EXPECT_EQ(names.size(), presets.size()) << "duplicate preset names";
  // One preset per bench family: e1..e16, a1..a4, p_micro, p_greedy.
  for (int i = 1; i <= 16; ++i) {
    EXPECT_EQ(names.count(std::string("e") + std::to_string(i)), 1u) << i;
  }
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(names.count(std::string("a") + std::to_string(i)), 1u) << i;
  }
  EXPECT_EQ(names.count("p_micro"), 1u);
  EXPECT_EQ(names.count("p_greedy"), 1u);
  EXPECT_EQ(presets.size(), 22u);
}

TEST(BenchPresets, EveryPlanUsesRegisteredSolversAndExpands) {
  const SolverRegistry registry = SolverRegistry::with_builtins();
  for (const auto& preset : bench_presets()) {
    EXPECT_FALSE(preset.title.empty()) << preset.name;
    EXPECT_FALSE(preset.pass_criterion.empty()) << preset.name;
    ASSERT_FALSE(preset.sweeps.empty()) << preset.name;
    for (const auto& sweep : preset.sweeps) {
      EXPECT_FALSE(sweep.caption.empty()) << preset.name;
      ASSERT_FALSE(sweep.plan.solvers.empty()) << preset.name;
      for (const auto& solver : sweep.plan.solvers) {
        EXPECT_TRUE(registry.contains(solver))
            << preset.name << " references unknown solver " << solver;
      }
      EXPECT_GT(sweep.plan.trials, 0) << preset.name;
      EXPECT_FALSE(sweep.plan.expand().empty()) << preset.name;
      // Declared algo params must exist somewhere in the grid, else the
      // declaration is dead (typo guard).
      for (const auto& name : sweep.plan.algo_params) {
        bool found = sweep.plan.base_params.has(name);
        for (const auto& axis : sweep.plan.axes) found |= axis.name == name;
        EXPECT_TRUE(found)
            << preset.name << " algo param " << name << " not in the plan";
      }
    }
  }
}

TEST(BenchPresets, FindAndJoinedNames) {
  EXPECT_NE(find_bench_preset("e13"), nullptr);
  EXPECT_NE(find_bench_preset("p_micro"), nullptr);
  EXPECT_EQ(find_bench_preset("e99"), nullptr);
  const std::string joined = preset_names_joined();
  EXPECT_NE(joined.find("e13"), std::string::npos);
  EXPECT_NE(joined.find("a4"), std::string::npos);
}

TEST(BenchPresets, PresetRunsEndToEndToCsvAndSecondRunHitsCache) {
  const BenchPreset* preset = find_bench_preset("e15");
  ASSERT_NE(preset, nullptr);
  const std::string path = ::testing::TempDir() + "preset_e15.csv";
  const auto run_e15 = [&path] {
    RunConfig config;
    config.preset = "e15";
    config.trials = 1;
    Session session(std::move(config));
    session.add_sink(std::make_unique<CsvSink>(path));
    return session.run();
  };

  const auto before = ScenarioCache::global().stats();
  ASSERT_TRUE(run_e15().ok());
  const auto after_first = ScenarioCache::global().stats();
  // Second invocation with identical parameters: every scenario is served
  // from the scenario cache.
  ASSERT_TRUE(run_e15().ok());
  const auto after_second = ScenarioCache::global().stats();
  std::size_t scenarios = 0;
  for (const auto& sweep : preset->sweeps) {
    scenarios += sweep.plan.expand().size();
  }
  EXPECT_EQ(after_first.misses - before.misses, scenarios);
  EXPECT_EQ(after_second.hits - after_first.hits, scenarios);
  EXPECT_EQ(after_second.misses, after_first.misses);

  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  // Header plus one row per scenario, no NaNs.
  EXPECT_GT(text.str().size(), 0u);
  EXPECT_EQ(text.str().find("nan"), std::string::npos);
  std::size_t lines = 0;
  for (char c : text.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, scenarios + 1);
}

}  // namespace
}  // namespace ps::engine
