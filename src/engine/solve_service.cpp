#include "engine/solve_service.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "engine/reference_cache.hpp"
#include "obs/time.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/budget_scheduler.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/instance_io.hpp"
#include "scheduling/power_scheduler.hpp"
#include "scheduling/schedule.hpp"

namespace ps::engine {
namespace {

/// Upper bound on generator-request trials: one request is one scenario, and
/// a sweep-sized scenario belongs in a sweep, not a service call the daemon
/// holds a connection open for.
constexpr int kMaxTrials = 1'000'000;

const char* const kInstanceSolverNames[] = {
    "budget.value", "power.always_on", "power.greedy", "power.per_job"};

bool is_instance_solver(const std::string& name) {
  for (const char* key : kInstanceSolverNames) {
    if (name == key) return true;
  }
  return false;
}

std::string instance_solvers_joined() {
  std::string out;
  for (const char* key : kInstanceSolverNames) {
    if (!out.empty()) out += ", ";
    out += key;
  }
  return out;
}

void fill_from_scenario(const ScenarioResult& result, SolveResponse& response) {
  response.trials = static_cast<int>(result.trials_run);
  response.infeasible = result.infeasible;
  if (result.objective.count() > 0) {
    response.has_objective = true;
    response.objective = result.objective.mean();
  }
  if (result.ratio.count() > 0) {
    response.has_ratio = true;
    response.ratio = result.ratio.mean();
  }
  if (result.cost.count() > 0) response.cost = result.cost.mean();
  if (result.oracle_calls.count() > 0) {
    response.oracle_calls = result.oracle_calls.mean();
  }
  for (const auto& [name, acc] : result.metrics) {
    if (acc.count() > 0) response.metrics.emplace_back(name, acc.mean());
  }
}

void append_schedule(const scheduling::Schedule& schedule,
                     const scheduling::SchedulingInstance& instance,
                     SolveResponse& response) {
  response.has_schedule = true;
  for (std::size_t j = 0; j < schedule.assignment.size(); ++j) {
    const int slot = schedule.assignment[j];
    if (slot < 0) continue;
    const auto ref = instance.slot_of(slot);
    response.schedule.push_back(
        {static_cast<int>(j), ref.processor, ref.time});
  }
}

/// The parameters an instance request may carry for `solver` — everything
/// else is rejected, never ignored: a misspelled knob silently falling back
/// to a default is the classic service footgun.
std::vector<std::string> allowed_instance_params(const std::string& solver) {
  if (solver == "budget.value") return {"alpha", "budget"};
  return {"alpha", "vs_opt"};
}

}  // namespace

SolveService::SolveService() : registry_(SolverRegistry::with_builtins()) {}

std::vector<std::string> SolveService::instance_solvers() {
  std::vector<std::string> out;
  for (const char* key : kInstanceSolverNames) out.emplace_back(key);
  return out;
}

Status SolveService::solve(const SolveRequest& request,
                           SolveResponse& response) const {
  response = SolveResponse{};
  response.id = request.id;
  if (request.id.empty()) {
    return Status::usage("solve: request id must be non-empty");
  }
  if (request.solver.empty()) {
    return Status::usage("solve: request must name a solver");
  }
  if (!request.instance_text.empty() && !request.instance_file.empty()) {
    return Status::usage(
        "solve: instance and instance_file are mutually exclusive");
  }
  if (request.trials < 1 || request.trials > kMaxTrials) {
    return Status::usage("solve: trials must be in [1, " +
                         std::to_string(kMaxTrials) + "], got " +
                         std::to_string(request.trials));
  }
  if (request.deadline_ms < 0) {
    return Status::usage("solve: deadline_ms must be >= 0");
  }
  const bool instance_request =
      !request.instance_text.empty() || !request.instance_file.empty();
  const std::uint64_t start_ns = obs::now_ns();
  Status status;
  try {
    status = instance_request ? solve_instance(request, response)
                              : solve_generator(request, response);
  } catch (const std::exception& e) {
    // A kernel refusing its input (e.g. the exact optimum's slot cap) is a
    // failed request, never a dead daemon.
    status = Status::runtime(std::string("solve: ") + e.what());
  }
  if (status.ok()) {
    response.solve_ns = obs::now_ns() - start_ns;
  } else {
    response = SolveResponse{};
    response.id = request.id;
  }
  return status;
}

Status SolveService::solve_generator(const SolveRequest& request,
                                     SolveResponse& response) const {
  if (!registry_.contains(request.solver)) {
    return Status::usage("solve: unknown solver '" + request.solver +
                         "' (registered: " + registry_.names_joined() + ")");
  }
  for (const std::string& name : request.algo_params) {
    if (!request.params.has(name)) {
      return Status::usage("solve: algo param '" + name +
                           "' is not among the request parameters");
    }
  }
  if (request.want_schedule) {
    return Status::usage(
        "solve: schedule extraction requires an explicit instance "
        "(generator requests aggregate over random instances)");
  }

  ScenarioSpec spec;
  spec.solver = request.solver;
  spec.params = request.params;
  spec.trials = request.trials;
  spec.seed = request.seed;
  spec.algo_params = request.algo_params;

  const std::string key = scenario_cache_key(spec);
  std::shared_ptr<const ScenarioResult> result = cache_.find(key);
  if (result == nullptr) {
    auto computed =
        std::make_shared<ScenarioResult>(run_scenario_inline(registry_, spec));
    cache_.insert(key, computed);
    result = std::move(computed);
  }
  fill_from_scenario(*result, response);
  return Status();
}

Status SolveService::solve_instance(const SolveRequest& request,
                                    SolveResponse& response) const {
  if (!is_instance_solver(request.solver)) {
    return Status::usage("solve: solver '" + request.solver +
                         "' does not accept an explicit instance (accepted: " +
                         instance_solvers_joined() + ")");
  }
  if (request.trials != 1) {
    return Status::usage(
        "solve: instance requests are deterministic; trials must be 1, got " +
        std::to_string(request.trials));
  }
  if (!request.algo_params.empty()) {
    return Status::usage(
        "solve: algo_params apply to generator requests only");
  }
  const std::vector<std::string> allowed =
      allowed_instance_params(request.solver);
  for (const auto& [name, value] : request.params.values()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      std::string accepted;
      for (const std::string& a : allowed) {
        if (!accepted.empty()) accepted += ", ";
        accepted += a;
      }
      return Status::usage("solve: parameter '" + name +
                           "' is not accepted by instance requests for '" +
                           request.solver + "' (accepted: " + accepted + ")");
    }
  }
  const double alpha = request.params.get("alpha", 2.0);
  if (!(alpha > 0.0)) {
    return Status::usage("solve: alpha must be > 0 for instance requests " +
                         std::string("(got ") + format_param(alpha) + ")");
  }

  std::string text = request.instance_text;
  if (!request.instance_file.empty()) {
    std::ifstream in(request.instance_file);
    if (!in) {
      return Status::runtime("solve: cannot read instance file '" +
                             request.instance_file + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  std::string parse_error;
  const auto instance = scheduling::parse_instance(text, &parse_error);
  if (!instance) {
    return Status::usage("solve: instance does not parse: " + parse_error);
  }

  const scheduling::RestartCostModel model(alpha);
  response.trials = 1;

  if (request.solver == "budget.value") {
    const double budget = request.params.get("budget", 10.0);
    if (budget < 0.0) {
      return Status::usage("solve: budget must be >= 0 (got " +
                           format_param(budget) + ")");
    }
    const auto result = scheduling::schedule_max_value_with_energy_budget(
        *instance, model, budget);
    const bool feasible =
        scheduling::validate_schedule(result.schedule, *instance, model,
                                      /*require_all_jobs=*/false)
            .ok;
    if (!feasible) {
      response.infeasible = 1;
      return Status();
    }
    response.has_objective = true;
    response.objective = result.value;
    response.cost = result.budget_used;
    const double reference = instance->total_value();
    if (reference > 0.0) {
      response.has_ratio = true;
      response.ratio = result.value / reference;
    }
    response.metrics.emplace_back(
        "jobs_scheduled",
        static_cast<double>(result.schedule.num_scheduled()));
    if (request.want_schedule) {
      append_schedule(result.schedule, *instance, response);
    }
    return Status();
  }

  const bool vs_opt = request.params.get_int("vs_opt", 0) != 0;
  if (vs_opt) {
    // Rejected up front, as a usage error, rather than by the kernel's
    // length_error after the solver has run.
    const int slots = scheduling::count_useful_slots(*instance);
    if (slots > scheduling::kMaxBruteForceSlots) {
      return Status::usage(
          "solve: vs_opt brute force needs <= " +
          std::to_string(scheduling::kMaxBruteForceSlots) +
          " distinct admissible slots; instance has " + std::to_string(slots));
    }
  }

  const scheduling::Schedule* schedule = nullptr;
  scheduling::PowerScheduleResult greedy;
  std::optional<scheduling::Schedule> baseline;
  if (request.solver == "power.greedy") {
    greedy = scheduling::schedule_all_jobs(*instance, model);
    if (greedy.feasible) schedule = &greedy.schedule;
    response.oracle_calls = static_cast<double>(greedy.gain_evaluations);
  } else if (request.solver == "power.always_on") {
    baseline = scheduling::schedule_always_on(*instance, model);
    if (baseline) schedule = &*baseline;
  } else {
    baseline = scheduling::schedule_per_job_naive(*instance, model);
    if (baseline) schedule = &*baseline;
  }
  if (schedule == nullptr) {
    response.infeasible = 1;
    response.oracle_calls = 0.0;
    return Status();
  }

  response.has_objective = true;
  response.objective = schedule->energy_cost;
  response.cost = schedule->energy_cost;
  response.metrics.emplace_back(
      "jobs_scheduled", static_cast<double>(schedule->num_scheduled()));
  if (vs_opt) {
    const double opt_cost = power_opt_reference(*instance, alpha);
    // The solver found a full schedule, so one exists and brute force finds
    // one too; opt_cost < 0 is unreachable here, but stay defensive.
    if (opt_cost > 0.0) {
      response.has_ratio = true;
      response.ratio = schedule->energy_cost / opt_cost;
      response.metrics.emplace_back(
          "bound_2log2n",
          2.0 * std::log2(static_cast<double>(instance->num_jobs()) + 1.0));
    }
  }
  std::sort(response.metrics.begin(), response.metrics.end());
  if (request.want_schedule) {
    append_schedule(*schedule, *instance, response);
  }
  return Status();
}

}  // namespace ps::engine
