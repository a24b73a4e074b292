#include "scheduling/baselines.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "matching/hopcroft_karp.hpp"
#include "matching/matching_oracle.hpp"

namespace ps::scheduling {
namespace {

/// Maximum matching over every slot; the assignment both baselines start
/// from. Returns nullopt when not all jobs can be scheduled.
std::optional<std::vector<int>> full_assignment(
    const SchedulingInstance& instance) {
  const auto graph = instance.build_slot_job_graph();
  const auto matching = matching::hopcroft_karp(graph);
  if (matching.size != instance.num_jobs()) return std::nullopt;
  return matching.match_y;
}

/// flags[s] = 1 when some job admits slot s: only those ever need to be
/// awake.
std::vector<char> useful_slot_flags(const SchedulingInstance& instance) {
  std::vector<char> useful(static_cast<std::size_t>(instance.num_slots()), 0);
  for (const auto& job : instance.jobs()) {
    for (const auto& ref : job.allowed) {
      useful[static_cast<std::size_t>(instance.slot_index(ref))] = 1;
    }
  }
  return useful;
}

}  // namespace

std::optional<Schedule> schedule_always_on(const SchedulingInstance& instance,
                                           const CostModel& cost_model) {
  auto assignment = full_assignment(instance);
  if (!assignment) return std::nullopt;

  std::vector<char> processor_used(
      static_cast<std::size_t>(instance.num_processors()), 0);
  for (int slot : *assignment) {
    processor_used[static_cast<std::size_t>(instance.slot_of(slot).processor)] =
        1;
  }

  Schedule schedule;
  schedule.assignment = std::move(*assignment);
  for (int p = 0; p < instance.num_processors(); ++p) {
    if (!processor_used[static_cast<std::size_t>(p)]) continue;
    const double c = cost_model.cost(p, 0, instance.horizon());
    if (!std::isfinite(c)) return std::nullopt;
    schedule.intervals.push_back(AwakeInterval{p, 0, instance.horizon()});
    schedule.energy_cost += c;
  }
  return schedule;
}

std::optional<Schedule> schedule_per_job_naive(
    const SchedulingInstance& instance, const CostModel& cost_model) {
  auto assignment = full_assignment(instance);
  if (!assignment) return std::nullopt;

  Schedule schedule;
  schedule.assignment = std::move(*assignment);
  for (int slot : schedule.assignment) {
    const SlotRef ref = instance.slot_of(slot);
    const double c = cost_model.cost(ref.processor, ref.time, ref.time + 1);
    if (!std::isfinite(c)) return std::nullopt;
    schedule.intervals.push_back(
        AwakeInterval{ref.processor, ref.time, ref.time + 1});
    schedule.energy_cost += c;
  }
  return schedule;
}

int count_useful_slots(const SchedulingInstance& instance) {
  const auto flags = useful_slot_flags(instance);
  return static_cast<int>(std::count(flags.begin(), flags.end(), 1));
}

SlotSubsetCost::SlotSubsetCost(const SchedulingInstance& instance,
                               const CostModel& cost_model)
    : num_slots_(instance.num_slots()) {
  const auto useful = useful_slot_flags(instance);
  const auto u = std::count(useful.begin(), useful.end(), 1);
  if (u > kMaxBruteForceSlots) {
    throw std::length_error(
        "exact optimum: instance has " + std::to_string(u) +
        " useful slots, above the brute-force cap of " +
        std::to_string(kMaxBruteForceSlots));
  }
  // Ascending global index is processor-major: each processor's useful
  // slots are one contiguous run of mask bits.
  std::vector<std::vector<int>> owned(
      static_cast<std::size_t>(instance.num_processors()));
  for (int s = 0; s < num_slots_; ++s) {
    if (!useful[static_cast<std::size_t>(s)]) continue;
    slots_.push_back(s);
    const SlotRef ref = instance.slot_of(s);
    owned[static_cast<std::size_t>(ref.processor)].push_back(ref.time);
  }

  processors_.resize(owned.size());
  std::vector<PricedSpan> spans;
  std::vector<std::size_t> picks;
  CoverRuns runs;
  int shift = 0;
  for (int p = 0; p < instance.num_processors(); ++p) {
    const auto& mine = owned[static_cast<std::size_t>(p)];
    Processor& proc = processors_[static_cast<std::size_t>(p)];
    const std::size_t w = mine.size();
    const std::uint32_t width = 1u << w;
    proc.shift = shift;
    proc.width_mask = width - 1;
    proc.table.resize(width);
    // A subset's runs are runs of the processor's useful times, so the
    // spans of those times, kept as a w x w table, serve every subset.
    spans.assign(w * w, PricedSpan{});
    CheapestSpanRows rows(p, mine, instance.horizon(), cost_model);
    for (std::size_t j = 0; j < w; ++j) {
      const auto& row = rows.row(j);
      std::copy(row.begin() + static_cast<std::ptrdiff_t>(j), row.end(),
                spans.begin() + static_cast<std::ptrdiff_t>(j * w + j));
    }
    for (std::uint32_t sub = 0; sub < width; ++sub) {
      picks.clear();
      for (std::size_t b = 0; b < w; ++b) {
        if ((sub >> b) & 1u) picks.push_back(b);
      }
      proc.table[sub] = cover_runs(
          picks.size(),
          [&](std::size_t j, std::size_t i) -> const PricedSpan& {
            return spans[picks[j] * w + picks[i]];
          },
          runs);
    }
    shift += static_cast<int>(mine.size());
  }
}

submodular::ItemSet SlotSubsetCost::item_set(std::uint32_t mask) const {
  submodular::ItemSet set(num_slots_);
  for (std::size_t b = 0; b < slots_.size(); ++b) {
    if ((mask >> b) & 1u) set.insert(slots_[b]);
  }
  return set;
}

namespace {

/// Minimum-cost search shared by the two exact solvers: the cheapest mask
/// (ascending order, first strict minimum) that `feasible` accepts, then the
/// schedule `assign` builds on it, priced by min_cost_cover per processor.
template <typename FeasibleFn, typename AssignFn>
std::optional<Schedule> brute_force_impl(const SchedulingInstance& instance,
                                         const CostModel& cost_model,
                                         const SlotSubsetCost& subsets,
                                         FeasibleFn&& feasible,
                                         AssignFn&& assign) {
  double best_cost = kInfiniteCost;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 0; mask < subsets.mask_limit(); ++mask) {
    // Cost first (cheap), then feasibility, keeping the running minimum.
    const double cost = subsets.cost(mask, best_cost);
    if (cost >= best_cost || !std::isfinite(cost)) continue;
    if (!feasible(mask)) continue;
    best_cost = cost;
    best_mask = mask;
  }
  if (!std::isfinite(best_cost)) return std::nullopt;

  Schedule schedule;
  schedule.assignment = assign(subsets.item_set(best_mask));
  cover_assigned_slots(instance, cost_model, &schedule);
  return schedule;
}

/// "Does some matching saturate every job using only the slots of a mask?"
/// by Kuhn's augmenting paths over per-job bitmasks of admissible useful
/// slots. Allocation-free per query; a job that finds no augmenting path
/// proves the maximum matching is smaller than n.
class SaturatesAllJobs {
 public:
  SaturatesAllJobs(const SchedulingInstance& instance,
                   const SlotSubsetCost& subsets)
      : adjacency_(static_cast<std::size_t>(instance.num_jobs()), 0) {
    std::vector<int> bit_of(static_cast<std::size_t>(instance.num_slots()), -1);
    for (std::size_t b = 0; b < subsets.slots().size(); ++b) {
      bit_of[static_cast<std::size_t>(subsets.slots()[b])] = static_cast<int>(b);
    }
    for (int j = 0; j < instance.num_jobs(); ++j) {
      for (const auto& ref : instance.job(j).allowed) {
        adjacency_[static_cast<std::size_t>(j)] |=
            1u << bit_of[static_cast<std::size_t>(instance.slot_index(ref))];
      }
    }
  }

  bool operator()(std::uint32_t mask) const {
    const int n = static_cast<int>(adjacency_.size());
    if (std::popcount(mask) < n) return false;
    std::array<int, 32> owner;  // owner[b] = job matched to slot bit b
    owner.fill(-1);
    for (int j = 0; j < n; ++j) {
      std::uint32_t visited = 0;
      if (!augment(j, mask, visited, owner)) return false;
    }
    return true;
  }

 private:
  bool augment(int job, std::uint32_t mask, std::uint32_t& visited,
               std::array<int, 32>& owner) const {
    const std::uint32_t reachable =
        adjacency_[static_cast<std::size_t>(job)] & mask;
    for (std::uint32_t open = reachable & ~visited; open != 0;
         open = reachable & ~visited) {
      const int b = std::countr_zero(open);
      visited |= 1u << b;
      const int holder = owner[static_cast<std::size_t>(b)];
      if (holder < 0 || augment(holder, mask, visited, owner)) {
        owner[static_cast<std::size_t>(b)] = job;
        return true;
      }
    }
    return false;
  }

  std::vector<std::uint32_t> adjacency_;  // bit b = useful slot b admissible
};

}  // namespace

std::optional<Schedule> brute_force_min_cost_all_jobs(
    const SchedulingInstance& instance, const CostModel& cost_model) {
  const SlotSubsetCost subsets(instance, cost_model);
  const auto graph = instance.build_slot_job_graph();
  return brute_force_impl(
      instance, cost_model, subsets, SaturatesAllJobs(instance, subsets),
      [&](const submodular::ItemSet& slots) {
        return matching::hopcroft_karp(graph, slots).match_y;
      });
}

std::optional<Schedule> brute_force_min_cost_value(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double value_target_z) {
  const SlotSubsetCost subsets(instance, cost_model);
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  matching::WeightedMatchingUtilityFunction utility(graph, values);
  return brute_force_impl(
      instance, cost_model, subsets,
      [&](std::uint32_t mask) {
        return utility.value(subsets.item_set(mask)) >= value_target_z - 1e-9;
      },
      [&](const submodular::ItemSet& slots) {
        matching::WeightedMatchingOracle oracle(graph, values);
        slots.for_each([&](int s) { oracle.add_x(s); });
        return oracle.match_y();
      });
}

}  // namespace ps::scheduling
