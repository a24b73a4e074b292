#include "trial_log.hpp"

#include <algorithm>
#include <mutex>

#include "engine/solver.hpp"

namespace perfbench {
namespace {

std::mutex g_buffers_mutex;
thread_local std::vector<TrialSpan>* t_buffer = nullptr;

class TimedSolver final : public ps::engine::Solver {
 public:
  TimedSolver(const ps::engine::Solver& inner, std::uint16_t family)
      : inner_(inner), family_(family) {}

  ps::engine::TrialResult run_trial(const ps::engine::ParamMap& params,
                                    ps::util::Rng& instance_rng,
                                    ps::util::Rng& algo_rng) const override {
    const std::uint64_t start = ps::obs::now_ns();
    ps::engine::TrialResult result =
        inner_.run_trial(params, instance_rng, algo_rng);
    TrialLog::global().record(family_, start, ps::obs::now_ns());
    return result;
  }

 private:
  const ps::engine::Solver& inner_;
  std::uint16_t family_;
};

// Families outside trial_families() (ablation.*, micro.*) are not reported.
constexpr std::uint16_t kUnreported = 0xffff;

std::uint16_t family_index(const std::string& solver) {
  const std::string prefix = solver.substr(0, solver.find('.'));
  const auto& families = trial_families();
  const auto it = std::find(families.begin(), families.end(), prefix);
  return it == families.end()
             ? kUnreported
             : static_cast<std::uint16_t>(it - families.begin());
}

}  // namespace

const std::vector<std::string>& trial_families() {
  static const std::vector<std::string> families = {
      "power",     "core",   "setcover",  "prize",      "secretary", "dp",
      "hiring",    "frontier", "powerdown", "submodular", "budget"};
  return families;
}

TrialLog& TrialLog::global() {
  static TrialLog log;
  return log;
}

void TrialLog::record(std::uint16_t family, std::uint64_t start_ns,
                      std::uint64_t end_ns) {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffers_.push_back(std::make_unique<std::vector<TrialSpan>>());
    t_buffer = buffers_.back().get();
  }
  t_buffer->push_back({family, start_ns, end_ns});
}

std::map<std::size_t, std::vector<TrialSpan>> TrialLog::drain() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::map<std::size_t, std::vector<TrialSpan>> out;
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i]->empty()) continue;
    out[i] = std::move(*buffers_[i]);
    buffers_[i]->clear();
  }
  return out;
}

ps::engine::SolverRegistry timed_registry(
    const ps::engine::SolverRegistry& base) {
  ps::engine::SolverRegistry timed;
  for (const std::string& name : base.names()) {
    timed.add(name, std::make_unique<TimedSolver>(*base.find(name),
                                                  family_index(name)));
  }
  return timed;
}

TrialStats::TrialStats() : family_us(trial_families().size()) {}

void TrialStats::add_trials(
    const std::map<std::size_t, std::vector<TrialSpan>>& spans) {
  for (const auto& [thread, list] : spans) {
    (void)thread;
    for (const TrialSpan& span : list) {
      const double us = static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
      busy_ms += us * 1e-3;
      if (span.family != kUnreported) family_us[span.family].push_back(us);
    }
  }
}

void TrialStats::add_sweep(
    const std::map<std::size_t, std::vector<TrialSpan>>& spans,
    std::uint64_t sweep_start_ns, std::uint64_t sweep_end_ns,
    std::size_t threads) {
  add_trials(spans);
  const double wall_ms =
      static_cast<double>(sweep_end_ns - sweep_start_ns) * 1e-6;
  capacity_ms += wall_ms * static_cast<double>(threads);
  compute_threads = std::max(compute_threads, spans.size());
  double idle_ms = 0.0;
  for (const auto& [thread, list] : spans) {
    (void)thread;
    std::uint64_t last_end = sweep_start_ns;
    for (const TrialSpan& span : list) last_end = std::max(last_end, span.end_ns);
    idle_ms += static_cast<double>(sweep_end_ns - last_end) * 1e-6;
  }
  if (threads > spans.size()) {
    idle_ms += wall_ms * static_cast<double>(threads - spans.size());
  }
  tail_idle_ms += idle_ms / static_cast<double>(std::max<std::size_t>(threads, 1));
}

void TrialStats::report_trials(Outcome& out, std::size_t reps) const {
  const double per_rep = 1.0 / static_cast<double>(std::max<std::size_t>(reps, 1));
  const auto& families = trial_families();
  for (std::size_t f = 0; f < families.size(); ++f) {
    const auto& sample = family_us[f];
    double busy_us = 0.0;
    for (double us : sample) busy_us += us;
    const std::string stem = "trial." + families[f] + ".";
    out.add(stem + "count", static_cast<double>(sample.size()) * per_rep,
            "count");
    out.add(stem + "busy_ms", busy_us * 1e-3 * per_rep, "ms");
    out.add(stem + "p50_us", percentile(sample, 0.50), "us");
    out.add(stem + "p99_us", percentile(sample, 0.99), "us");
  }
}

void TrialStats::report_pool(Outcome& out, std::size_t reps) const {
  const double per_rep = 1.0 / static_cast<double>(std::max<std::size_t>(reps, 1));
  out.add("pool.compute_threads", static_cast<double>(compute_threads),
          "count");
  out.add("pool.busy_ms", busy_ms * per_rep, "ms");
  out.add("pool.utilization", capacity_ms > 0.0 ? busy_ms / capacity_ms : 0.0,
          "ratio");
  out.add("pool.tail_idle_ms", tail_idle_ms * per_rep, "ms");
}

}  // namespace perfbench
