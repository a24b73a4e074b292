#include "engine/scenario.hpp"

#include <cmath>

namespace ps::engine {
namespace {

/// FNV-1a over a byte string.
std::uint64_t fnv1a(std::uint64_t h, const char* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

/// splitmix64 finalizer — spreads the low-entropy FNV state over all bits.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// derive_seed in two halves, so that TrialSeeds can hash the first once per
// scenario.

/// The trial-independent half: FNV-1a over "salt|signature".
std::uint64_t seed_prefix(const std::string& salt, const ParamMap& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, salt);
  h = fnv1a(h, "|");
  return fnv1a(h, params.signature());
}

/// The per-trial half: the prefix extended by (base_seed, trial), finalized.
std::uint64_t finish_seed(std::uint64_t prefix, std::uint64_t base_seed,
                          int trial) {
  const std::uint64_t words[2] = {base_seed, static_cast<std::uint64_t>(trial)};
  return mix(fnv1a(prefix, reinterpret_cast<const char*>(words),
                   sizeof(words)));
}

}  // namespace

double ParamMap::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int ParamMap::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return static_cast<int>(std::lround(it->second));
}

std::string ParamMap::signature() const {
  std::string out;
  for (const auto& [name, value] : values_) {
    if (!out.empty()) out += ',';
    out += name;
    out += '=';
    out += format_param(value);
  }
  return out;
}

ParamMap ParamMap::without(const std::vector<std::string>& names) const {
  ParamMap out = *this;
  for (const auto& name : names) out.values_.erase(name);
  return out;
}

std::string ScenarioSpec::label() const {
  return solver + "{" + params.signature() + "}";
}

TrialSeeds ScenarioSpec::trial_seeds() const {
  return TrialSeeds{seed, seed_prefix("", instance_params()),
                    seed_prefix(solver, params)};
}

std::uint64_t TrialSeeds::instance(int trial) const {
  return finish_seed(instance_prefix, base_seed, trial);
}

std::uint64_t TrialSeeds::algo(int trial) const {
  return finish_seed(algo_prefix, base_seed, trial);
}

std::uint64_t derive_seed(std::uint64_t base_seed, const std::string& salt,
                          const ParamMap& params, int trial) {
  return finish_seed(seed_prefix(salt, params), base_seed, trial);
}

std::vector<ScenarioSpec> SweepPlan::expand() const {
  // Cartesian product over the axes, first axis slowest.
  std::vector<ParamMap> grid{base_params};
  for (const auto& axis : axes) {
    std::vector<ParamMap> next;
    next.reserve(grid.size() * axis.values.size());
    for (const auto& point : grid) {
      for (double value : axis.values) {
        ParamMap expanded = point;
        expanded.set(axis.name, value);
        next.push_back(std::move(expanded));
      }
    }
    grid = std::move(next);
  }

  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(grid.size() * solvers.size());
  for (const auto& point : grid) {
    for (const auto& solver : solvers) {
      ScenarioSpec spec;
      spec.solver = solver;
      spec.params = point;
      spec.trials = trials;
      spec.seed = seed;
      spec.algo_params = algo_params;
      scenarios.push_back(std::move(spec));
    }
  }
  return scenarios;
}

std::vector<ScenarioSpec> SweepPlan::shard(std::size_t index,
                                           std::size_t count) const {
  return shard_scenarios(expand(), index, count);
}

std::vector<ScenarioSpec> shard_scenarios(
    const std::vector<ScenarioSpec>& scenarios, std::size_t index,
    std::size_t count) {
  if (count == 0 || index >= count) {
    std::fprintf(stderr, "shard_scenarios: bad shard %zu/%zu\n", index, count);
    std::abort();
  }
  std::vector<ScenarioSpec> out;
  out.reserve(scenarios.size() / count + 1);
  for (std::size_t i = index; i < scenarios.size(); i += count) {
    out.push_back(scenarios[i]);
  }
  return out;
}

}  // namespace ps::engine
