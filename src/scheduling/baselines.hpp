// Comparator schedulers: two practical baselines and an exact brute-force
// optimum for small instances (the denominator of every approximation-ratio
// experiment).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "scheduling/schedule.hpp"
#include "submodular/item_set.hpp"

namespace ps::scheduling {

/// "Leave everything on": assign jobs by a maximum matching over all slots,
/// then keep every processor that hosts at least one job awake for the whole
/// horizon. Feasible whenever anything is; typically pays for a lot of idle
/// time. Returns nullopt when not all jobs can be scheduled at all.
std::optional<Schedule> schedule_always_on(const SchedulingInstance& instance,
                                           const CostModel& cost_model);

/// "Wake up per job": assign jobs by a maximum matching over all slots, then
/// open one singleton interval per used slot — the "immediately sleep again"
/// policy whose waste is the restart cost α per job (the 1+α regime the
/// paper contrasts with). Returns nullopt when not all jobs fit.
std::optional<Schedule> schedule_per_job_naive(
    const SchedulingInstance& instance, const CostModel& cost_model);

/// Useful-slot ceiling of every exact slot-subset enumeration: masks are
/// uint32_t, and SlotSubsetCost's tables hold at most 2^22 doubles (32 MiB).
inline constexpr int kMaxBruteForceSlots = 22;

/// Number of distinct slots admissible for at least one job — the set the
/// exact solvers enumerate subsets of.
int count_useful_slots(const SchedulingInstance& instance);

/// The exact interval-cover cost of every subset of an instance's useful
/// slots, in table form. Bit b of a mask stands for the b-th useful slot in
/// ascending global index, which is processor-major order, so each
/// processor p owns one contiguous run of w_p bits. Its cover cost depends
/// on those bits alone, so the constructor prices each processor's 2^{w_p}
/// subsets once with min_cost_cover, and cost(mask) is then P table lookups.
/// Memory is 2^{w_p} doubles per processor: at most 32 MiB at the cap.
class SlotSubsetCost {
 public:
  /// Throws std::length_error, naming the count and the cap, when the
  /// instance has more than kMaxBruteForceSlots useful slots; no table is
  /// allocated then. `cost_model` is only used during construction.
  SlotSubsetCost(const SchedulingInstance& instance,
                 const CostModel& cost_model);

  /// 2^u for u useful slots: masks range over [0, mask_limit()).
  std::uint32_t mask_limit() const { return 1u << slots_.size(); }
  /// Global slot index of each mask bit, ascending.
  const std::vector<int>& slots() const { return slots_; }

  /// Minimum cover cost of the slots in `mask`: the per-processor table
  /// entries summed in processor order, adding no further processor once
  /// the partial sum reaches `stop_at` (kInfiniteCost when uncoverable).
  double cost(std::uint32_t mask, double stop_at = kInfiniteCost) const {
    double total = 0.0;
    for (std::size_t p = 0; p < processors_.size() && total < stop_at; ++p) {
      const Processor& proc = processors_[p];
      total += proc.table[(mask >> proc.shift) & proc.width_mask];
    }
    return total;
  }

  /// The slots of `mask` as a set over all instance slots.
  submodular::ItemSet item_set(std::uint32_t mask) const;

 private:
  struct Processor {
    int shift = 0;
    std::uint32_t width_mask = 0;
    std::vector<double> table;  // table[sub] = cover cost of subset sub
  };

  int num_slots_ = 0;
  std::vector<int> slots_;
  std::vector<Processor> processors_;
};

/// Exact minimum-cost schedule of ALL jobs: the cheapest useful-slot subset
/// (SlotSubsetCost, masks in ascending order, first strict minimum kept)
/// on which a matching saturates every job, checked by augmenting paths
/// over per-job slot bitmasks. The schedule is Hopcroft–Karp plus
/// min_cost_cover on that subset. Throws std::length_error past
/// kMaxBruteForceSlots useful slots. Returns nullopt if infeasible.
std::optional<Schedule> brute_force_min_cost_all_jobs(
    const SchedulingInstance& instance, const CostModel& cost_model);

/// Exact minimum-cost schedule of value >= Z (prize-collecting optimum).
/// Same enumeration, with a max-weight matching as the predicate; throws
/// past the cap, nullopt if no subset reaches Z.
std::optional<Schedule> brute_force_min_cost_value(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double value_target_z);

}  // namespace ps::scheduling
