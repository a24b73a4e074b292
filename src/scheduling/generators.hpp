// Workload generators: the synthetic testbed substituting for the paper's
// (absent) empirical setup. Each generator exercises one of the regimes the
// theory quantifies over — random multi-interval instances, Set-Cover-hard
// instances (Theorem .1.2), energy-market price curves (Chapter 1's
// motivation 2), and agreeable one-interval instances for the DP comparator.
#pragma once

#include <vector>

#include "scheduling/gap_dp.hpp"
#include "scheduling/instance.hpp"
#include "util/rng.hpp"

namespace ps::scheduling {

struct RandomInstanceParams {
  int num_jobs = 8;
  int num_processors = 2;
  int horizon = 12;
  /// Number of (processor, window) opportunities per job.
  int windows_per_job = 2;
  /// Length of each window in slots.
  int window_length = 3;
  /// Job values drawn uniformly from [min_value, max_value].
  double min_value = 1.0;
  double max_value = 1.0;
};

/// Multi-interval instance: each job gets `windows_per_job` random windows on
/// random processors; its admissible pairs are all slots inside them.
/// The generator guarantees every job has at least one admissible slot.
SchedulingInstance random_instance(const RandomInstanceParams& params,
                                   util::Rng& rng);

/// Random instance that is guaranteed schedulable: first plants a feasible
/// assignment (distinct slots), then adds windows around the planted slots.
/// Throws std::invalid_argument unless processors > 0, horizon > 0 and
/// 0 <= jobs <= processors * horizon.
SchedulingInstance random_feasible_instance(const RandomInstanceParams& params,
                                            util::Rng& rng);

// ---------------------------------------------------------------------------
// Set Cover (Theorem .1.2 hardness regime)

struct SetCoverInstance {
  int num_elements = 0;
  std::vector<std::vector<int>> sets;
};

/// Random instance in which every element is covered by at least one set.
/// Throws std::invalid_argument unless sets >= 1 and
/// 1 <= set_size <= elements.
SetCoverInstance random_set_cover(int num_elements, int num_sets,
                                  int set_size, util::Rng& rng);

/// Caps of exact_min_set_cover: 2^sets subsets, elements as 64-bit masks.
inline constexpr int kMaxExactCoverSets = 24;
inline constexpr int kMaxExactCoverElements = 64;

/// Exact minimum number of sets covering everything (brute force over set
/// subsets). Throws std::length_error past kMaxExactCoverSets sets or
/// kMaxExactCoverElements elements. Returns -1 if uncoverable.
int exact_min_set_cover(const SetCoverInstance& instance);

/// Largest k adversarial_set_cover accepts. Its n = 2·(2^k − 1) elements
/// become 2n² slot refs in the scheduling reduction, so each step of k
/// quadruples the pipeline's memory: k = 10 (n = 2046) takes about 120 MB.
inline constexpr int kMaxAdversarialK = 10;

/// The classic greedy-lower-bound construction: 2·(2^k - 1) elements in two
/// rows, split column-wise into blocks of sizes 2^{k-1}, ..., 1. The two row
/// sets cover everything (OPT = 2), but greedy is baited into the k block
/// sets, realizing the Θ(log n) gap the Set-Cover hardness (Theorem .1.2)
/// transfers to scheduling. Throws std::invalid_argument unless
/// 1 <= k <= kMaxAdversarialK.
SetCoverInstance adversarial_set_cover(int k);

/// The Theorem .1.2 reduction: one processor per set, one job per element,
/// job j admissible on processor i (at every time) iff element j ∈ S_i,
/// horizon = num_elements. Pair with FlatIntervalCostModel(1.0): a schedule
/// of cost c exists iff a set cover of size c does.
SchedulingInstance set_cover_to_scheduling(const SetCoverInstance& instance);

// ---------------------------------------------------------------------------
// Energy market (time-varying prices)

/// Day/night price curve: base + amplitude·(1 + sin)/2 over the horizon with
/// the given period. All prices strictly positive for base > 0.
std::vector<double> sinusoidal_prices(int horizon, double base,
                                      double amplitude, int period);

/// Deadline-style workload for the market regime: each job has one window of
/// `window_length` slots on every processor (identical machines), values in
/// [min_value, max_value].
SchedulingInstance energy_market_instance(int num_jobs, int num_processors,
                                          int horizon, int window_length,
                                          double min_value, double max_value,
                                          util::Rng& rng);

// ---------------------------------------------------------------------------
// Agreeable one-interval instances (gap-DP comparator regime)

/// Random agreeable jobs: sorted random releases with windows extended so
/// deadlines are also non-decreasing; guaranteed feasible on one processor
/// when slack permits (windows at least `min_window` long, horizon large
/// enough is the caller's concern).
std::vector<AgreeableJob> random_agreeable_jobs(int num_jobs, int horizon,
                                                int min_window, int max_window,
                                                double min_value,
                                                double max_value,
                                                util::Rng& rng);

/// Lifts agreeable one-processor jobs into a SchedulingInstance (processor 0,
/// admissible slots = the window).
SchedulingInstance agreeable_to_instance(const std::vector<AgreeableJob>& jobs,
                                         int horizon);

}  // namespace ps::scheduling
