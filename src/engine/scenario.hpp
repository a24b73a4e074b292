// Scenario model for the experiment engine: named numeric parameters, a
// scenario (solver + parameters + trial count + base seed), and a sweep plan
// expanding parameter grids into concrete scenarios.
//
// Every experiment in this library has the same shape — generate instance,
// run solver, collect metrics, aggregate over trials — so the inputs are
// uniform too: a solver key into the SolverRegistry plus a flat bag of
// numeric parameters the solver's generator interprets. Seeds are derived
// per (parameters, trial) so that (a) results are independent of thread
// count and scenario order, and (b) two solvers swept over the same
// generator parameters see the *same* instances, which is what makes
// per-instance ratio comparisons meaningful.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/number_codec.hpp"

namespace ps::engine {

/// Ordered name -> value parameter bag. Doubles cover every generator knob
/// in the library (counts are read back with get_int); the deterministic
/// ordering makes signatures — and therefore derived seeds — stable.
class ParamMap {
 public:
  ParamMap() = default;
  ParamMap(std::initializer_list<std::pair<const std::string, double>> init)
      : values_(init) {}

  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Value of `name`, or `fallback` when absent.
  double get(const std::string& name, double fallback) const;
  int get_int(const std::string& name, int fallback) const;

  const std::map<std::string, double>& values() const { return values_; }

  /// Canonical "a=1.5,b=2" rendering (sorted by name, %.17g values); used in
  /// labels and mixed into derived seeds.
  std::string signature() const;

  /// Copy of this map with every name in `names` removed (absent names are
  /// ignored). Used to strip algorithm-only parameters from the
  /// instance-stream seed signature.
  ParamMap without(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, double> values_;
};

/// The derive_seed values of one scenario's trials. derive_seed hashes
/// "salt|signature" before (base_seed, trial), so each stream's prefix is
/// hashed once here and a trial pays only the rest: no signature rendering
/// or ParamMap copy per trial.
struct TrialSeeds {
  std::uint64_t base_seed = 0;
  std::uint64_t instance_prefix = 0;  // FNV-1a state after "|signature"
  std::uint64_t algo_prefix = 0;      // FNV-1a state after "solver|signature"

  /// Seed of trial `trial`'s instance stream (solver-independent, shared by
  /// every solver swept over the same instance parameters).
  std::uint64_t instance(int trial) const;
  /// Seed of trial `trial`'s algorithm stream (salted with the solver name
  /// and the full parameter bag).
  std::uint64_t algo(int trial) const;
};

/// One cell of a sweep: run `solver` for `trials` independent trials with
/// the given generator/algorithm parameters.
struct ScenarioSpec {
  std::string solver;
  ParamMap params;
  int trials = 20;
  std::uint64_t seed = 20100601;
  /// Parameter names that tune the *algorithm* rather than the instance
  /// generator (an epsilon, a gap budget, a thread count). They are excluded
  /// from the instance-stream seed signature — so sweeping one of them keeps
  /// the drawn instances identical across scenarios, which is what makes
  /// "same instance, different knob" comparisons (bicriteria sweeps,
  /// frontier traces, thread-scaling ablations) meaningful. They still feed
  /// the algorithm stream's seed.
  std::vector<std::string> algo_params;

  /// "solver{a=1,b=2}" — the human-readable scenario key.
  std::string label() const;

  /// The parameters that define the instance stream: `params` minus
  /// `algo_params`.
  ParamMap instance_params() const { return params.without(algo_params); }

  /// The per-trial seeds of both streams; see TrialSeeds.
  TrialSeeds trial_seeds() const;
};

/// Canonical %.17g rendering of a value — the round-trippable format used
/// by parameter signatures and the sweep CSV cells (util/number_codec.hpp).
using util::format_param;

/// Derives a per-trial RNG seed from the base seed, a salt (empty for the
/// instance stream, the solver name for the algorithm stream), the parameter
/// signature, and the trial index. splitmix64-finalized FNV-1a, so nearby
/// trials get decorrelated streams.
std::uint64_t derive_seed(std::uint64_t base_seed, const std::string& salt,
                          const ParamMap& params, int trial);

/// One swept parameter: `name` takes each of `values` in turn.
struct ParamAxis {
  std::string name;
  std::vector<double> values;
};

/// Cartesian sweep description: every solver × every grid point, each run
/// with `trials` trials. Axes may be empty (solver comparison on one
/// setting); solvers must not be.
struct SweepPlan {
  std::vector<std::string> solvers;
  ParamMap base_params;
  std::vector<ParamAxis> axes;
  int trials = 20;
  std::uint64_t seed = 20100601;
  /// Copied into every expanded ScenarioSpec; see ScenarioSpec::algo_params.
  std::vector<std::string> algo_params;

  /// Expands to axes-major, solver-minor order: for each grid point (first
  /// axis slowest), one scenario per solver. The instance stream depends
  /// only on the parameters, so the per-grid-point scenarios are directly
  /// comparable.
  std::vector<ScenarioSpec> expand() const;

  /// Shard `index` of `count` of the expanded grid — see shard_scenarios.
  /// shard(0, 1) is the full expansion.
  std::vector<ScenarioSpec> shard(std::size_t index, std::size_t count) const;
};

/// Deterministic partition of `scenarios` for multi-process fan-out: shard
/// `index` of `count` owns the scenarios at positions congruent to `index`
/// mod `count` (relative order preserved). Round-robin rather than
/// contiguous blocks so every shard gets a balanced mix of grid points —
/// the expensive end of an axis does not land on one shard. The shards are
/// disjoint and their union is exactly the input, so per-shard runs cached
/// by scenario_cache_key merge back into the full plan bit-identically.
/// Aborts when count == 0 or index >= count.
std::vector<ScenarioSpec> shard_scenarios(
    const std::vector<ScenarioSpec>& scenarios, std::size_t index,
    std::size_t count);

}  // namespace ps::engine
