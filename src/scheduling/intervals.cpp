#include "scheduling/intervals.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace ps::scheduling {

std::string AwakeInterval::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "P%d[%d,%d)", processor, start, end);
  return buf;
}

std::vector<int> slots_of(const AwakeInterval& interval,
                          const SchedulingInstance& instance) {
  std::vector<int> slots;
  slots.reserve(static_cast<std::size_t>(interval.length()));
  for (int t = interval.start; t < interval.end; ++t) {
    slots.push_back(instance.slot_index(interval.processor, t));
  }
  return slots;
}

IntervalPool generate_interval_pool(const SchedulingInstance& instance,
                                    const CostModel& cost_model,
                                    const IntervalGenerationOptions& options) {
  const int horizon = instance.horizon();
  const int max_len =
      options.max_length > 0 ? std::min(options.max_length, horizon) : horizon;

  IntervalPool pool;
  for (int p = 0; p < instance.num_processors(); ++p) {
    for (int start = 0; start < horizon; ++start) {
      if (options.only_full_horizon && start != 0) break;
      const int min_end = options.only_full_horizon ? horizon : start + 1;
      for (int end = min_end; end <= std::min(start + max_len, horizon);
           ++end) {
        const double c = cost_model.cost(p, start, end);
        if (options.drop_infinite && (!std::isfinite(c) || c <= 0.0)) continue;
        const AwakeInterval interval{p, start, end};
        const int id = static_cast<int>(pool.intervals.size());
        pool.candidates.push_back(
            core::CandidateSet{slots_of(interval, instance), c, id});
        pool.intervals.push_back(interval);
      }
    }
  }
  return pool;
}

std::size_t prune_dominated_candidates(IntervalPool* pool) {
  assert(pool != nullptr);
  const auto& intervals = pool->intervals;
  auto dominates = [&](const core::CandidateSet& a,
                       const core::CandidateSet& b) {
    // Does candidate a dominate candidate b?
    const AwakeInterval& ia = intervals[static_cast<std::size_t>(a.id)];
    const AwakeInterval& ib = intervals[static_cast<std::size_t>(b.id)];
    if (ia.processor != ib.processor) return false;
    if (ia.start > ib.start || ia.end < ib.end) return false;
    if (a.cost > b.cost) return false;
    // Break exact ties (same span, same cost) by id so only one survives.
    if (ia.start == ib.start && ia.end == ib.end && a.cost == b.cost) {
      return a.id < b.id;
    }
    return true;
  };

  std::vector<core::CandidateSet> kept;
  kept.reserve(pool->candidates.size());
  for (const auto& cand : pool->candidates) {
    bool dominated = false;
    for (const auto& other : pool->candidates) {
      if (other.id != cand.id && dominates(other, cand)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(cand);
  }
  const std::size_t removed = pool->candidates.size() - kept.size();
  pool->candidates = std::move(kept);
  return removed;
}

double total_cost(const std::vector<AwakeInterval>& intervals,
                  const CostModel& cost_model) {
  double total = 0.0;
  for (const auto& iv : intervals) {
    total += cost_model.cost(iv.processor, iv.start, iv.end);
  }
  return total;
}

CheapestSpanRows::CheapestSpanRows(int processor,
                                   const std::vector<int>& times, int horizon,
                                   const CostModel& cost_model)
    : processor_(processor),
      times_(times),
      horizon_(horizon),
      cost_model_(cost_model),
      best_(times.size()) {
  assert(std::is_sorted(times.begin(), times.end()));
}

const std::vector<PricedSpan>& CheapestSpanRows::row(std::size_t j) {
  assert(j < times_.size());
  const std::size_t m = times_.size();
  for (; next_start_ <= times_[j]; ++next_start_) {
    const int s = next_start_;
    while (times_[first_] < s) ++first_;
    PricedSpan fold;  // cheapest [s, e) over the ends folded so far
    std::size_t i = m;  // offers go to best_[i-1], descending
    for (int e = horizon_; e > times_[first_]; --e) {
      const double c = cost_model_.cost(processor_, s, e);
      if (c <= fold.cost) fold = PricedSpan{c, s, e};
      for (; i > first_ && times_[i - 1] + 1 == e; --i) {
        if (fold.cost < best_[i - 1].cost) best_[i - 1] = fold;
      }
    }
  }
  return best_;
}

std::vector<AwakeInterval> min_cost_cover(int processor,
                                          const std::vector<int>& required_times,
                                          int horizon,
                                          const CostModel& cost_model,
                                          double* cost) {
  assert(cost != nullptr);
  CheapestSpanRows rows(processor, required_times, horizon, cost_model);
  CoverRuns runs;
  *cost = cover_runs(
      required_times.size(),
      [&](std::size_t j, std::size_t i) -> const PricedSpan& {
        return rows.row(j)[i];
      },
      runs);

  std::vector<AwakeInterval> result;
  if (!std::isfinite(*cost)) return result;
  for (std::size_t i = required_times.size(); i > 0; i = runs.split[i]) {
    const PricedSpan& span = runs.last[i];
    result.push_back(AwakeInterval{processor, span.start, span.end});
  }
  std::reverse(result.begin(), result.end());
  return result;
}

}  // namespace ps::scheduling
