// Differential test of the table-driven exact optimum (SlotSubsetCost plus
// bitmask matching) against the straightforward enumerator it replaced,
// kept here as the oracle: per mask, bucket the slots by processor, run
// min_cost_cover per processor, and check feasibility with Hopcroft–Karp or
// the weighted-matching utility. Both must pick the same slot subset, so
// the schedules — assignment, intervals and every double — are identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "matching/hopcroft_karp.hpp"
#include "matching/matching_oracle.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/budget_scheduler.hpp"
#include "scheduling/cost_model.hpp"
#include "util/rng.hpp"

namespace ps::scheduling {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the per-mask enumeration, verbatim in behaviour.

std::vector<int> oracle_useful_slots(const SchedulingInstance& instance) {
  std::vector<char> useful(static_cast<std::size_t>(instance.num_slots()), 0);
  for (const auto& job : instance.jobs()) {
    for (const auto& ref : job.allowed) {
      useful[static_cast<std::size_t>(instance.slot_index(ref))] = 1;
    }
  }
  std::vector<int> useful_slots;
  for (int s = 0; s < instance.num_slots(); ++s) {
    if (useful[static_cast<std::size_t>(s)]) useful_slots.push_back(s);
  }
  return useful_slots;
}

double oracle_mask_cost(const SchedulingInstance& instance,
                        const CostModel& cost_model,
                        const std::vector<int>& useful_slots,
                        std::uint32_t mask, double best_cost) {
  std::vector<std::vector<int>> required(
      static_cast<std::size_t>(instance.num_processors()));
  for (std::size_t b = 0; b < useful_slots.size(); ++b) {
    if (!((mask >> b) & 1u)) continue;
    const SlotRef ref = instance.slot_of(useful_slots[b]);
    required[static_cast<std::size_t>(ref.processor)].push_back(ref.time);
  }
  double cost = 0.0;
  for (int p = 0; p < instance.num_processors() && cost < best_cost; ++p) {
    double c = 0.0;
    min_cost_cover(p, required[static_cast<std::size_t>(p)],
                   instance.horizon(), cost_model, &c);
    cost += c;
  }
  return cost;
}

submodular::ItemSet oracle_slots(const SchedulingInstance& instance,
                                 const std::vector<int>& useful_slots,
                                 std::uint32_t mask) {
  submodular::ItemSet slots(instance.num_slots());
  for (std::size_t b = 0; b < useful_slots.size(); ++b) {
    if ((mask >> b) & 1u) slots.insert(useful_slots[b]);
  }
  return slots;
}

template <typename FeasibleFn, typename AssignFn>
std::optional<Schedule> oracle_brute_force(const SchedulingInstance& instance,
                                           const CostModel& cost_model,
                                           FeasibleFn&& feasible,
                                           AssignFn&& assign) {
  const auto useful_slots = oracle_useful_slots(instance);
  const int u = static_cast<int>(useful_slots.size());
  double best_cost = kInfiniteCost;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 0; mask < (1u << u); ++mask) {
    const double cost =
        oracle_mask_cost(instance, cost_model, useful_slots, mask, best_cost);
    if (cost >= best_cost || !std::isfinite(cost)) continue;
    if (!feasible(oracle_slots(instance, useful_slots, mask))) continue;
    best_cost = cost;
    best_mask = mask;
  }
  if (!std::isfinite(best_cost)) return std::nullopt;

  Schedule schedule;
  schedule.assignment = assign(oracle_slots(instance, useful_slots, best_mask));
  std::vector<std::vector<int>> required(
      static_cast<std::size_t>(instance.num_processors()));
  for (int j = 0; j < instance.num_jobs(); ++j) {
    const int slot = schedule.assignment[static_cast<std::size_t>(j)];
    if (slot < 0) continue;
    const SlotRef ref = instance.slot_of(slot);
    required[static_cast<std::size_t>(ref.processor)].push_back(ref.time);
  }
  for (int p = 0; p < instance.num_processors(); ++p) {
    auto& times = required[static_cast<std::size_t>(p)];
    std::sort(times.begin(), times.end());
    double c = 0.0;
    auto cover = min_cost_cover(p, times, instance.horizon(), cost_model, &c);
    schedule.energy_cost += c;
    for (auto& iv : cover) schedule.intervals.push_back(iv);
  }
  return schedule;
}

std::optional<Schedule> oracle_all_jobs(const SchedulingInstance& instance,
                                        const CostModel& cost_model) {
  const auto graph = instance.build_slot_job_graph();
  const int n = instance.num_jobs();
  return oracle_brute_force(
      instance, cost_model,
      [&](const submodular::ItemSet& slots) {
        return matching::hopcroft_karp(graph, slots).size == n;
      },
      [&](const submodular::ItemSet& slots) {
        const auto matching = matching::hopcroft_karp(graph, slots);
        return std::vector<int>(matching.match_y.begin(),
                                matching.match_y.begin() + n);
      });
}

std::optional<Schedule> oracle_value(const SchedulingInstance& instance,
                                     const CostModel& cost_model, double z) {
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  matching::WeightedMatchingUtilityFunction utility(graph, values);
  return oracle_brute_force(
      instance, cost_model,
      [&](const submodular::ItemSet& slots) {
        return utility.value(slots) >= z - 1e-9;
      },
      [&](const submodular::ItemSet& slots) {
        matching::WeightedMatchingOracle oracle(graph, values);
        slots.for_each([&](int s) { oracle.add_x(s); });
        return oracle.match_y();
      });
}

double oracle_budget(const SchedulingInstance& instance,
                     const CostModel& cost_model, double energy_budget) {
  const auto useful_slots = oracle_useful_slots(instance);
  const int u = static_cast<int>(useful_slots.size());
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  matching::WeightedMatchingUtilityFunction utility(graph, values);
  double best = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << u); ++mask) {
    const double cost = oracle_mask_cost(instance, cost_model, useful_slots,
                                         mask, kInfiniteCost);
    if (cost > energy_budget + 1e-9 || !std::isfinite(cost)) continue;
    best = std::max(best, utility.value(oracle_slots(instance, useful_slots,
                                                     mask)));
  }
  return best;
}

// ---------------------------------------------------------------------------
// Seeded instances over every cost-model family.

/// Random multi-slot instance with at most `max_useful` useful slots: a
/// pool of slots is drawn first and every job picks 1-4 of them. `crowd`
/// gives every job the same two slots, so three or more jobs cannot all be
/// scheduled.
SchedulingInstance random_small_instance(int processors, int horizon,
                                         int max_useful, bool crowd,
                                         util::Rng& rng) {
  const int total = processors * horizon;
  const int pool_size = rng.uniform_int(2, std::min(max_useful, total));
  const std::vector<int> pool = rng.sample_without_replacement(total, pool_size);
  std::vector<Job> jobs(static_cast<std::size_t>(rng.uniform_int(1, 6)));
  for (auto& job : jobs) {
    const int picks = crowd ? 2 : rng.uniform_int(1, 4);
    for (int k = 0; k < picks; ++k) {
      const int slot = pool[static_cast<std::size_t>(
          crowd ? k : rng.uniform_int(0, pool_size - 1))];
      job.allowed.push_back(SlotRef{slot / horizon, slot % horizon});
    }
    job.value = rng.uniform_double(1.0, 5.0);
  }
  return SchedulingInstance(processors, horizon, std::move(jobs));
}

/// One of the cost-model families, picked by `kind`; `base` keeps the
/// decorated model of the unavailability case alive.
std::unique_ptr<CostModel> make_cost_model(int kind, int processors,
                                           int horizon, util::Rng& rng,
                                           std::unique_ptr<CostModel>* base) {
  const double alpha = rng.uniform_double(0.25, 3.0);
  std::vector<double> rates(static_cast<std::size_t>(processors));
  for (auto& r : rates) r = rng.uniform_double(0.5, 2.0);
  switch (kind) {
    case 0:
      return std::make_unique<RestartCostModel>(alpha);
    case 1:
      return std::make_unique<RestartCostModel>(alpha, rates);
    case 2: {
      std::vector<double> prices(static_cast<std::size_t>(horizon));
      for (auto& p : prices) p = rng.uniform_double(0.1, 2.0);
      return std::make_unique<TimeVaryingCostModel>(alpha, prices, rates);
    }
    case 3:
      return std::make_unique<FlatIntervalCostModel>(alpha);
    default: {
      // Infinite-cost intervals: a few slots are unavailable.
      *base = std::make_unique<RestartCostModel>(alpha);
      std::vector<UnavailabilityCostModel::Outage> outages;
      for (int k = 0; k < 3; ++k) {
        outages.push_back({rng.uniform_int(0, processors - 1),
                           rng.uniform_int(0, horizon - 1)});
      }
      return std::make_unique<UnavailabilityCostModel>(**base, processors,
                                                       horizon, outages);
    }
  }
}

void expect_identical(const std::optional<Schedule>& expected,
                      const std::optional<Schedule>& actual,
                      const char* what, int seed) {
  ASSERT_EQ(expected.has_value(), actual.has_value()) << what << " " << seed;
  if (!expected) return;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected->energy_cost),
            std::bit_cast<std::uint64_t>(actual->energy_cost))
      << what << " " << seed << ": " << expected->energy_cost << " vs "
      << actual->energy_cost;
  EXPECT_EQ(expected->assignment, actual->assignment) << what << " " << seed;
  EXPECT_EQ(expected->intervals, actual->intervals) << what << " " << seed;
}

TEST(BruteForce, TableKernelMatchesPerMaskEnumerator) {
  int seed = 0;
  int feasible = 0;
  int infeasible = 0;
  for (int processors = 1; processors <= 3; ++processors) {
    for (int horizon = 4; horizon <= 8; ++horizon) {
      for (int rep = 0; rep < 20; ++rep, ++seed) {
        util::Rng rng(0xB00F + static_cast<std::uint64_t>(seed));
        const auto instance = random_small_instance(
            processors, horizon, /*max_useful=*/14, /*crowd=*/rep % 7 == 6,
            rng);
        std::unique_ptr<CostModel> base;
        const auto model =
            make_cost_model(rep % 5, processors, horizon, rng, &base);

        const auto expected = oracle_all_jobs(instance, *model);
        expect_identical(expected,
                         brute_force_min_cost_all_jobs(instance, *model),
                         "all_jobs", seed);
        (expected ? feasible : infeasible) += 1;

        const double z =
            rng.uniform_double(0.2, 1.2) * instance.total_value();
        expect_identical(oracle_value(instance, *model, z),
                         brute_force_min_cost_value(instance, *model, z),
                         "value", seed);

        const double budget = rng.uniform_double(0.0, 12.0);
        EXPECT_EQ(oracle_budget(instance, *model, budget),
                  brute_force_max_value_with_energy_budget(instance, *model,
                                                           budget))
            << "budget " << seed;
      }
    }
  }
  EXPECT_EQ(seed, 300);
  // Both outcomes are exercised, not just the feasible one.
  EXPECT_GT(feasible, 50);
  EXPECT_GT(infeasible, 10);
}

TEST(BruteForce, CountUsefulSlotsCountsDistinctAdmissibleSlots) {
  const SchedulingInstance instance(
      2, 4,
      {Job{{{0, 1}, {1, 3}}, 1.0}, Job{{{0, 1}, {0, 2}}, 1.0}, Job{{}, 1.0}});
  EXPECT_EQ(count_useful_slots(instance), 3);
  const RestartCostModel model(1.0);
  const SlotSubsetCost subsets(instance, model);
  EXPECT_EQ(subsets.slots(), (std::vector<int>{1, 2, 7}));
  EXPECT_EQ(subsets.mask_limit(), 8u);
  // Slots 1 and 2 on processor 0: one interval [1,3) at α + 2.
  EXPECT_EQ(subsets.cost(0b011), 3.0);
  // Plus slot 7 = (1, 3) on processor 1: [3,4) at α + 1.
  EXPECT_EQ(subsets.cost(0b111), 5.0);
}

TEST(BruteForce, MoreUsefulSlotsThanTheCapThrowsAtOnce) {
  // 3 processors x 8 slots; one job admits 23 of the 24.
  std::vector<SlotRef> allowed;
  for (int p = 0; p < 3; ++p) {
    for (int t = 0; t < 8; ++t) {
      if (p * 8 + t != 23) allowed.push_back({p, t});
    }
  }
  const SchedulingInstance instance(3, 8, {Job{allowed, 1.0}});
  ASSERT_EQ(count_useful_slots(instance), kMaxBruteForceSlots + 1);
  const RestartCostModel model(1.0);

  const auto start = std::chrono::steady_clock::now();
  try {
    (void)brute_force_min_cost_all_jobs(instance, model);
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("23 useful slots"), std::string::npos) << message;
    EXPECT_NE(message.find("cap of 22"), std::string::npos) << message;
  }
  EXPECT_THROW((void)brute_force_min_cost_value(instance, model, 1.0),
               std::length_error);
  EXPECT_THROW(
      (void)brute_force_max_value_with_energy_budget(instance, model, 5.0),
      std::length_error);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

}  // namespace
}  // namespace ps::scheduling
