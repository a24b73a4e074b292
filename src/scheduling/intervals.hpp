// Awake intervals and candidate generation: each candidate of the Lemma
// 2.1.2 framework is "a pair of a machine and a time interval" contributing
// that machine's slots over the interval, priced by the cost model.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "core/budgeted_maximization.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/instance.hpp"

namespace ps::scheduling {

/// One awake interval [start, end) on a processor.
struct AwakeInterval {
  int processor = 0;
  int start = 0;
  int end = 0;  // exclusive

  int length() const { return end - start; }
  bool contains(int time) const { return start <= time && time < end; }
  std::string to_string() const;
  bool operator==(const AwakeInterval&) const = default;
};

/// Global slot indices covered by the interval.
std::vector<int> slots_of(const AwakeInterval& interval,
                          const SchedulingInstance& instance);

/// A priced candidate: the interval together with its CandidateSet encoding
/// for the greedy (items = covered slot indices, cost = model cost, id =
/// index into the pool).
struct IntervalPool {
  std::vector<AwakeInterval> intervals;
  std::vector<core::CandidateSet> candidates;

  const AwakeInterval& interval_for_id(int id) const {
    return intervals[static_cast<std::size_t>(id)];
  }
};

struct IntervalGenerationOptions {
  /// Cap on interval length (0 = horizon). The full pool has
  /// p · T·(T+1)/2 intervals; capping trades optimality for pool size.
  int max_length = 0;
  /// Generate only the p whole-horizon intervals [0, horizon) — the natural
  /// pool for the Theorem .1.2 Set-Cover regime, where interval cost is flat
  /// and waking a processor twice is never useful.
  bool only_full_horizon = false;
  /// Intervals with infinite or non-positive cost are always dropped.
  bool drop_infinite = true;
};

/// Enumerates every interval on every processor (subject to options) and
/// prices it. This realizes the paper's "explicitly given in the input"
/// candidate collection.
IntervalPool generate_interval_pool(const SchedulingInstance& instance,
                                    const CostModel& cost_model,
                                    const IntervalGenerationOptions& options =
                                        {});

/// Removes candidates dominated by another candidate: same processor,
/// covering interval (superset of slots), and cost no higher. Dominated
/// candidates can never be part of a unique optimum, and greedy never
/// benefits from them, so pruning preserves the output while shrinking the
/// pool (dramatic under flat costs, a no-op under strictly length-increasing
/// ones). Interval ids remain valid; returns the number removed.
std::size_t prune_dominated_candidates(IntervalPool* pool);

/// Total cost of a set of intervals under the model.
double total_cost(const std::vector<AwakeInterval>& intervals,
                  const CostModel& cost_model);

/// An interval [start, end) on a known processor, with its cost.
struct PricedSpan {
  double cost = kInfiniteCost;
  int start = 0;
  int end = 0;
};

/// The cheapest interval on one processor covering each run of sorted
/// times: span (j, i) is the [s, e) of least cost with s <= times[j] and
/// e > times[i], ties broken towards the smallest s, then the smallest e.
/// One sweep over the starts produces the rows j in ascending order, in at
/// most T(T+1)/2 cost() calls for horizon T, holding one row at a time:
/// for each start s, a downward fold over e keeps the row minimum (`<=`,
/// so ties move to the smaller e), offered at each e = times[i] + 1 to a
/// running minimum over s (strict `<`, so ties keep the smaller s); row j
/// is that running minimum once s reaches times[j].
class CheapestSpanRows {
 public:
  /// `times` sorted, within [0, horizon); it and `cost_model` must outlive
  /// this object.
  CheapestSpanRows(int processor, const std::vector<int>& times, int horizon,
                   const CostModel& cost_model);

  /// Row j: entry i >= j is span (j, i), with cost kInfiniteCost when no
  /// finite one exists. j must not decrease from one call to the next; the
  /// row is valid until the next call.
  const std::vector<PricedSpan>& row(std::size_t j);

 private:
  int processor_;
  const std::vector<int>& times_;
  int horizon_;
  const CostModel& cost_model_;
  int next_start_ = 0;
  std::size_t first_ = 0;  // first index with times_[first_] >= next_start_
  std::vector<PricedSpan> best_;
};

/// Scratch and result of cover_runs: cost[i] is the cheapest cover of the
/// first i times, split[i] where its last run starts and last[i] the
/// interval covering that run.
struct CoverRuns {
  std::vector<double> cost;
  std::vector<std::size_t> split;
  std::vector<PricedSpan> last;
};

/// The consecutive-group DP behind min_cost_cover, over m sorted times: an
/// interval covers a consecutive run of them, so an optimal cover
/// partitions them into runs. `span(j, i)` returns the cheapest interval
/// covering times j..i as a `const PricedSpan&`; it is called with j
/// ascending, so spans can come from CheapestSpanRows one row at a time.
/// Each cost[i] takes the first strictly cheaper candidate in ascending j.
/// Returns the cost of covering all m (kInfiniteCost if none is finite).
template <typename SpanFn>
double cover_runs(std::size_t m, SpanFn&& span, CoverRuns& out) {
  out.cost.assign(m + 1, kInfiniteCost);
  out.split.assign(m + 1, 0);
  out.last.assign(m + 1, PricedSpan{});
  out.cost[0] = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    if (!std::isfinite(out.cost[j])) continue;
    for (std::size_t i = j; i < m; ++i) {
      const PricedSpan& candidate = span(j, i);
      if (out.cost[j] + candidate.cost < out.cost[i + 1]) {
        out.cost[i + 1] = out.cost[j] + candidate.cost;
        out.split[i + 1] = j;
        out.last[i + 1] = candidate;
      }
    }
  }
  return out.cost[m];
}

/// Minimum-cost collection of intervals on one processor covering all of
/// `required_times` (sorted, within [0, horizon)): cover_runs over
/// CheapestSpanRows, in O(m) memory for m required times. Exact for every
/// cost model.
/// Returns the chosen intervals; total cost in *cost (kInfiniteCost if no
/// finite cover exists).
std::vector<AwakeInterval> min_cost_cover(int processor,
                                          const std::vector<int>& required_times,
                                          int horizon,
                                          const CostModel& cost_model,
                                          double* cost);

}  // namespace ps::scheduling
