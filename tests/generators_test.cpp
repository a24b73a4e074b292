// Tests for the workload generators, the Set Cover machinery, and the
// Theorem .1.2 reduction (cost-preserving in both directions).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/budgeted_maximization.hpp"
#include "matching/hopcroft_karp.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/generators.hpp"
#include "scheduling/power_scheduler.hpp"
#include "util/rng.hpp"

namespace ps::scheduling {
namespace {

TEST(Generators, RandomInstanceShape) {
  util::Rng rng(401);
  RandomInstanceParams params;
  params.num_jobs = 10;
  params.num_processors = 3;
  params.horizon = 15;
  const auto instance = random_instance(params, rng);
  EXPECT_EQ(instance.num_jobs(), 10);
  EXPECT_EQ(instance.num_processors(), 3);
  EXPECT_EQ(instance.horizon(), 15);
  for (const auto& job : instance.jobs()) {
    EXPECT_FALSE(job.allowed.empty());
    // No duplicate admissible pairs.
    auto pairs = job.allowed;
    std::sort(pairs.begin(), pairs.end(), [](const SlotRef& a, const SlotRef& b) {
      return std::pair(a.processor, a.time) < std::pair(b.processor, b.time);
    });
    EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  }
}

TEST(Generators, FeasibleInstanceIsFeasible) {
  util::Rng rng(403);
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstanceParams params;
    params.num_jobs = 12;
    params.num_processors = 2;
    params.horizon = 10;
    const auto instance = random_feasible_instance(params, rng);
    const auto matching =
        matching::hopcroft_karp(instance.build_slot_job_graph());
    EXPECT_EQ(matching.size, instance.num_jobs()) << "trial " << trial;
  }
}

TEST(Generators, FeasibleInstanceRejectsImpossibleShapes) {
  util::Rng rng(404);
  const auto params_of = [](int jobs, int processors, int horizon) {
    RandomInstanceParams params;
    params.num_jobs = jobs;
    params.num_processors = processors;
    params.horizon = horizon;
    return params;
  };
  // More jobs than distinct slots: planting cannot succeed.
  EXPECT_THROW(random_feasible_instance(params_of(50, 1, 2), rng),
               std::invalid_argument);
  EXPECT_THROW(random_feasible_instance(params_of(-1, 2, 4), rng),
               std::invalid_argument);
  EXPECT_THROW(random_feasible_instance(params_of(1, 0, 4), rng),
               std::invalid_argument);
  EXPECT_THROW(random_feasible_instance(params_of(1, 2, 0), rng),
               std::invalid_argument);
  EXPECT_THROW(random_feasible_instance(params_of(1, -2, -4), rng),
               std::invalid_argument);
  // The boundary jobs == processors * horizon is feasible.
  const auto full = random_feasible_instance(params_of(2, 1, 2), rng);
  EXPECT_EQ(full.num_jobs(), 2);
}

TEST(Generators, ValueRangeRespected) {
  util::Rng rng(407);
  RandomInstanceParams params;
  params.num_jobs = 20;
  params.min_value = 2.0;
  params.max_value = 7.0;
  const auto instance = random_instance(params, rng);
  for (const auto& job : instance.jobs()) {
    EXPECT_GE(job.value, 2.0);
    EXPECT_LE(job.value, 7.0);
  }
}

TEST(SetCover, RandomInstanceIsCoverable) {
  util::Rng rng(409);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sc = random_set_cover(12, 6, 4, rng);
    EXPECT_NE(exact_min_set_cover(sc), -1);
  }
}

TEST(SetCover, ExactSolverKnownInstances) {
  SetCoverInstance sc;
  sc.num_elements = 4;
  sc.sets = {{0, 1}, {2, 3}, {0, 1, 2, 3}, {1}};
  EXPECT_EQ(exact_min_set_cover(sc), 1);
  sc.sets = {{0, 1}, {2}, {3}};
  EXPECT_EQ(exact_min_set_cover(sc), 3);
  sc.sets = {{0, 1}, {2}};
  EXPECT_EQ(exact_min_set_cover(sc), -1);
}

TEST(SetCover, BadShapesThrowInsteadOfAsserting) {
  util::Rng rng(421);
  // set_size > elements would read past the element sample.
  EXPECT_THROW((void)random_set_cover(10, 10, 20, rng), std::invalid_argument);
  EXPECT_THROW((void)random_set_cover(10, 10, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)random_set_cover(10, 0, 3, rng), std::invalid_argument);
  EXPECT_THROW((void)random_set_cover(0, 3, 1, rng), std::invalid_argument);
  EXPECT_NO_THROW((void)random_set_cover(1, 1, 1, rng));

  // 2^25 subsets, or elements past a 64-bit mask.
  SetCoverInstance sc;
  sc.num_elements = 1;
  sc.sets.assign(kMaxExactCoverSets, std::vector<int>{0});
  EXPECT_EQ(exact_min_set_cover(sc), 1);
  sc.sets.push_back({0});
  EXPECT_THROW((void)exact_min_set_cover(sc), std::length_error);
  sc.sets = {{0}};
  sc.num_elements = kMaxExactCoverElements + 1;
  EXPECT_THROW((void)exact_min_set_cover(sc), std::length_error);
  sc.num_elements = kMaxExactCoverElements;
  EXPECT_EQ(exact_min_set_cover(sc), -1);

  for (int k : {-1, 0, kMaxAdversarialK + 1}) {
    EXPECT_THROW((void)adversarial_set_cover(k), std::invalid_argument) << k;
  }
  EXPECT_EQ(adversarial_set_cover(1).num_elements, 2);
  EXPECT_EQ(adversarial_set_cover(kMaxAdversarialK).num_elements, 2046);
}

TEST(SetCoverReduction, SchedulingCostEqualsCoverSize) {
  // Theorem .1.2: with FlatIntervalCostModel(1), OPT(schedule) = OPT(cover).
  util::Rng rng(419);
  for (int trial = 0; trial < 6; ++trial) {
    const auto sc = random_set_cover(6, 5, 3, rng);
    const int opt_cover = exact_min_set_cover(sc);
    ASSERT_GT(opt_cover, 0);

    const auto instance = set_cover_to_scheduling(sc);
    EXPECT_EQ(instance.num_jobs(), 6);
    EXPECT_EQ(instance.num_processors(), 5);
    FlatIntervalCostModel model(1.0);

    // Greedy scheduler: feasible and costs between OPT and H_n * OPT.
    const auto greedy = schedule_all_jobs(instance, model);
    ASSERT_TRUE(greedy.feasible);
    double harmonic = 0.0;
    for (int i = 1; i <= 6; ++i) harmonic += 1.0 / i;
    EXPECT_GE(greedy.schedule.energy_cost, opt_cover - 1e-9);
    EXPECT_LE(greedy.schedule.energy_cost, opt_cover * harmonic + 1.0 + 1e-9);
  }
}

TEST(SetCoverReduction, JobAdmissibilityMirrorsMembership) {
  SetCoverInstance sc;
  sc.num_elements = 3;
  sc.sets = {{0, 2}, {1}};
  const auto instance = set_cover_to_scheduling(sc);
  // Job 0 only on processor 0.
  for (const auto& ref : instance.job(0).allowed) {
    EXPECT_EQ(ref.processor, 0);
  }
  for (const auto& ref : instance.job(1).allowed) {
    EXPECT_EQ(ref.processor, 1);
  }
  EXPECT_EQ(instance.job(0).allowed.size(), 3u);  // all times on P0
}

TEST(Prices, SinusoidalShape) {
  const auto prices = sinusoidal_prices(24, 1.0, 2.0, 24);
  EXPECT_EQ(prices.size(), 24u);
  for (double p : prices) {
    EXPECT_GE(p, 1.0 - 1e-9);
    EXPECT_LE(p, 3.0 + 1e-9);
  }
  const double lo = *std::min_element(prices.begin(), prices.end());
  const double hi = *std::max_element(prices.begin(), prices.end());
  EXPECT_GT(hi - lo, 1.5);  // actually oscillates
}

TEST(EnergyMarket, InstanceUsesAllProcessors) {
  util::Rng rng(421);
  const auto instance =
      energy_market_instance(8, 3, 24, 6, 1.0, 4.0, rng);
  EXPECT_EQ(instance.num_processors(), 3);
  for (const auto& job : instance.jobs()) {
    // Each job's window exists on every processor.
    std::vector<int> per_processor(3, 0);
    for (const auto& ref : job.allowed) {
      ++per_processor[static_cast<std::size_t>(ref.processor)];
    }
    EXPECT_EQ(per_processor[0], per_processor[1]);
    EXPECT_EQ(per_processor[1], per_processor[2]);
    EXPECT_GT(per_processor[0], 0);
  }
}

TEST(EnergyMarket, SchedulerAvoidsPeakPrices) {
  // One job, window covering cheap and expensive slots: the scheduler must
  // run it in the cheap slot.
  std::vector<Job> jobs(1);
  for (int t = 0; t < 6; ++t) jobs[0].allowed.push_back({0, t});
  SchedulingInstance instance(1, 6, std::move(jobs));
  TimeVaryingCostModel model(0.5, {9.0, 9.0, 0.1, 9.0, 9.0, 9.0});
  const auto result = schedule_all_jobs(instance, model);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.assignment[0], instance.slot_index(0, 2));
}

TEST(AgreeableToInstance, WindowBecomesSlots) {
  std::vector<AgreeableJob> jobs{{1, 4, 2.5}};
  const auto instance = agreeable_to_instance(jobs, 6);
  EXPECT_EQ(instance.num_jobs(), 1);
  EXPECT_EQ(instance.job(0).allowed.size(), 3u);
  EXPECT_DOUBLE_EQ(instance.job(0).value, 2.5);
  for (const auto& ref : instance.job(0).allowed) {
    EXPECT_EQ(ref.processor, 0);
    EXPECT_GE(ref.time, 1);
    EXPECT_LT(ref.time, 4);
  }
}

}  // namespace
}  // namespace ps::scheduling
