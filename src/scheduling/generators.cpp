#include "scheduling/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace ps::scheduling {
namespace {

double draw_value(double lo, double hi, util::Rng& rng) {
  return lo >= hi ? lo : rng.uniform_double(lo, hi);
}

void add_window(Job* job, int processor, int start, int length, int horizon) {
  for (int t = std::max(0, start); t < std::min(horizon, start + length);
       ++t) {
    const SlotRef ref{processor, t};
    if (std::find(job->allowed.begin(), job->allowed.end(), ref) ==
        job->allowed.end()) {
      job->allowed.push_back(ref);
    }
  }
}

}  // namespace

SchedulingInstance random_instance(const RandomInstanceParams& params,
                                   util::Rng& rng) {
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  for (int j = 0; j < params.num_jobs; ++j) {
    Job job;
    job.value = draw_value(params.min_value, params.max_value, rng);
    while (job.allowed.empty()) {
      for (int w = 0; w < params.windows_per_job; ++w) {
        const int p = rng.uniform_int(0, params.num_processors - 1);
        const int start = rng.uniform_int(0, params.horizon - 1);
        add_window(&job, p, start, params.window_length, params.horizon);
      }
    }
    jobs.push_back(std::move(job));
  }
  return SchedulingInstance(params.num_processors, params.horizon,
                            std::move(jobs));
}

SchedulingInstance random_feasible_instance(const RandomInstanceParams& params,
                                            util::Rng& rng) {
  // Request parameters reach this from the CLI and the serve daemon, so a
  // bad shape throws (a runtime error at those boundaries) rather than
  // asserting: planting needs one distinct slot per job.
  if (params.num_processors <= 0 || params.horizon <= 0 ||
      params.num_jobs < 0 ||
      static_cast<long long>(params.num_jobs) >
          static_cast<long long>(params.num_processors) * params.horizon) {
    throw std::invalid_argument(
        "random_feasible_instance: need processors > 0, horizon > 0 and 0 "
        "<= jobs <= processors*horizon (one distinct slot per job); got "
        "jobs=" + std::to_string(params.num_jobs) +
        ", processors=" + std::to_string(params.num_processors) +
        ", horizon=" + std::to_string(params.horizon));
  }
  // Plant distinct slots, one per job, then grow windows around them.
  const auto planted = rng.sample_without_replacement(
      params.num_processors * params.horizon, params.num_jobs);

  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  for (int j = 0; j < params.num_jobs; ++j) {
    Job job;
    job.value = draw_value(params.min_value, params.max_value, rng);
    const int slot = planted[static_cast<std::size_t>(j)];
    const int p = slot / params.horizon;
    const int t = slot % params.horizon;
    // Window around the planted slot, plus extra random windows.
    const int offset = rng.uniform_int(0, params.window_length - 1);
    add_window(&job, p, t - offset, params.window_length, params.horizon);
    const SlotRef planted_ref{p, t};
    if (std::find(job.allowed.begin(), job.allowed.end(), planted_ref) ==
        job.allowed.end()) {
      job.allowed.push_back(planted_ref);
    }
    for (int w = 1; w < params.windows_per_job; ++w) {
      const int wp = rng.uniform_int(0, params.num_processors - 1);
      const int ws = rng.uniform_int(0, params.horizon - 1);
      add_window(&job, wp, ws, params.window_length, params.horizon);
    }
    jobs.push_back(std::move(job));
  }
  return SchedulingInstance(params.num_processors, params.horizon,
                            std::move(jobs));
}

SetCoverInstance random_set_cover(int num_elements, int num_sets, int set_size,
                                  util::Rng& rng) {
  // Reachable from request parameters: a bad shape throws, like
  // random_feasible_instance.
  if (num_sets < 1 || set_size < 1 || set_size > num_elements) {
    throw std::invalid_argument(
        "random_set_cover: need sets >= 1 and 1 <= set_size <= elements; "
        "got elements=" + std::to_string(num_elements) +
        ", sets=" + std::to_string(num_sets) +
        ", set_size=" + std::to_string(set_size));
  }
  SetCoverInstance instance;
  instance.num_elements = num_elements;
  instance.sets.reserve(static_cast<std::size_t>(num_sets));
  for (int s = 0; s < num_sets; ++s) {
    instance.sets.push_back(
        rng.sample_without_replacement(num_elements, set_size));
  }
  // Guarantee coverability: sprinkle uncovered elements into random sets.
  std::vector<char> covered(static_cast<std::size_t>(num_elements), 0);
  for (const auto& set : instance.sets) {
    for (int e : set) covered[static_cast<std::size_t>(e)] = 1;
  }
  for (int e = 0; e < num_elements; ++e) {
    if (!covered[static_cast<std::size_t>(e)]) {
      instance.sets[static_cast<std::size_t>(
                        rng.uniform_int(0, num_sets - 1))]
          .push_back(e);
    }
  }
  return instance;
}

int exact_min_set_cover(const SetCoverInstance& instance) {
  const int m = static_cast<int>(instance.sets.size());
  if (m > kMaxExactCoverSets || instance.num_elements > kMaxExactCoverElements) {
    throw std::length_error(
        "exact_min_set_cover: " + std::to_string(m) + " sets and " +
        std::to_string(instance.num_elements) +
        " elements, above the brute-force caps of " +
        std::to_string(kMaxExactCoverSets) + " sets and " +
        std::to_string(kMaxExactCoverElements) + " elements");
  }
  std::vector<std::uint64_t> masks(static_cast<std::size_t>(m), 0);
  for (int s = 0; s < m; ++s) {
    for (int e : instance.sets[static_cast<std::size_t>(s)]) {
      masks[static_cast<std::size_t>(s)] |= 1ULL << e;
    }
  }
  const std::uint64_t all =
      instance.num_elements == 64 ? ~0ULL
                                  : (1ULL << instance.num_elements) - 1;
  int best = -1;
  const std::uint32_t limit = 1u << m;
  for (std::uint32_t pick = 0; pick < limit; ++pick) {
    const int count = __builtin_popcount(pick);
    if (best != -1 && count >= best) continue;
    std::uint64_t covered = 0;
    for (int s = 0; s < m; ++s) {
      if ((pick >> s) & 1u) covered |= masks[static_cast<std::size_t>(s)];
    }
    if (covered == all) best = count;
  }
  return best;
}

SetCoverInstance adversarial_set_cover(int k) {
  if (k < 1 || k > kMaxAdversarialK) {
    throw std::invalid_argument(
        "adversarial_set_cover: need 1 <= k <= " +
        std::to_string(kMaxAdversarialK) + "; got k=" + std::to_string(k));
  }
  const int half = (1 << k) - 1;  // elements per row
  SetCoverInstance instance;
  instance.num_elements = 2 * half;
  // Element ids: row 0 = [0, half), row 1 = [half, 2·half); columns indexed
  // left to right, blocks of size 2^{k-1}, 2^{k-2}, ..., 1.
  std::vector<int> row0(static_cast<std::size_t>(half));
  std::vector<int> row1(static_cast<std::size_t>(half));
  for (int c = 0; c < half; ++c) {
    row0[static_cast<std::size_t>(c)] = c;
    row1[static_cast<std::size_t>(c)] = half + c;
  }
  instance.sets.push_back(row0);
  instance.sets.push_back(row1);
  int column = 0;
  for (int i = k - 1; i >= 0; --i) {
    std::vector<int> block;
    for (int c = column; c < column + (1 << i); ++c) {
      block.push_back(c);
      block.push_back(half + c);
    }
    column += 1 << i;
    instance.sets.push_back(std::move(block));
  }
  return instance;
}

SchedulingInstance set_cover_to_scheduling(const SetCoverInstance& instance) {
  const int num_processors = static_cast<int>(instance.sets.size());
  const int horizon = std::max(1, instance.num_elements);
  std::vector<Job> jobs(static_cast<std::size_t>(instance.num_elements));
  for (int p = 0; p < num_processors; ++p) {
    for (int e : instance.sets[static_cast<std::size_t>(p)]) {
      for (int t = 0; t < horizon; ++t) {
        jobs[static_cast<std::size_t>(e)].allowed.push_back(SlotRef{p, t});
      }
    }
  }
  return SchedulingInstance(num_processors, horizon, std::move(jobs));
}

std::vector<double> sinusoidal_prices(int horizon, double base,
                                      double amplitude, int period) {
  assert(base > 0.0 && amplitude >= 0.0 && period > 0);
  std::vector<double> prices(static_cast<std::size_t>(horizon));
  for (int t = 0; t < horizon; ++t) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(t) /
                         static_cast<double>(period);
    prices[static_cast<std::size_t>(t)] =
        base + amplitude * (1.0 + std::sin(phase)) / 2.0;
  }
  return prices;
}

SchedulingInstance energy_market_instance(int num_jobs, int num_processors,
                                          int horizon, int window_length,
                                          double min_value, double max_value,
                                          util::Rng& rng) {
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(num_jobs));
  for (int j = 0; j < num_jobs; ++j) {
    Job job;
    job.value = draw_value(min_value, max_value, rng);
    const int start = rng.uniform_int(0, std::max(0, horizon - window_length));
    for (int p = 0; p < num_processors; ++p) {
      add_window(&job, p, start, window_length, horizon);
    }
    jobs.push_back(std::move(job));
  }
  return SchedulingInstance(num_processors, horizon, std::move(jobs));
}

std::vector<AgreeableJob> random_agreeable_jobs(int num_jobs, int horizon,
                                                int min_window, int max_window,
                                                double min_value,
                                                double max_value,
                                                util::Rng& rng) {
  assert(1 <= min_window && min_window <= max_window);
  std::vector<int> releases(static_cast<std::size_t>(num_jobs));
  for (auto& r : releases) r = rng.uniform_int(0, horizon - min_window);
  std::sort(releases.begin(), releases.end());

  std::vector<AgreeableJob> jobs;
  jobs.reserve(static_cast<std::size_t>(num_jobs));
  int min_deadline = 0;  // enforce non-decreasing deadlines
  for (int j = 0; j < num_jobs; ++j) {
    AgreeableJob job;
    job.release = releases[static_cast<std::size_t>(j)];
    const int window = rng.uniform_int(min_window, max_window);
    job.deadline =
        std::max({job.release + min_window, min_deadline,
                  std::min(job.release + window, horizon)});
    job.deadline = std::min(job.deadline, horizon);
    // If clamping to the horizon broke the window, pull the release back.
    if (job.deadline - job.release < min_window) {
      job.release = std::max(0, job.deadline - min_window);
    }
    min_deadline = job.deadline;
    job.value = draw_value(min_value, max_value, rng);
    jobs.push_back(job);
  }
  const bool agreeable = sort_and_check_agreeable(&jobs);
  assert(agreeable);
  (void)agreeable;
  return jobs;
}

SchedulingInstance agreeable_to_instance(const std::vector<AgreeableJob>& jobs,
                                         int horizon) {
  std::vector<Job> converted;
  converted.reserve(jobs.size());
  for (const auto& job : jobs) {
    Job out;
    out.value = job.value;
    for (int t = job.release; t < std::min(job.deadline, horizon); ++t) {
      out.allowed.push_back(SlotRef{0, t});
    }
    converted.push_back(std::move(out));
  }
  return SchedulingInstance(1, horizon, std::move(converted));
}

}  // namespace ps::scheduling
