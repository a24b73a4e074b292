// Umbrella header: everything a downstream user needs with one include.
//
//   #include "powersched.hpp"
//
// Sub-library map (see README.md / DESIGN.md):
//   ps::util        — RNG, thread pool, stats, tables
//   ps::submodular  — set functions, verifiers, greedy maximizers
//   ps::matching    — bipartite matching engines and oracles
//   ps::matroid     — matroid independence oracles
//   ps::core        — budgeted submodular maximization (Lemma 2.1.2)
//   ps::scheduling  — power-minimization schedulers and comparators
//   ps::secretary   — online (secretary) algorithms
//   ps::engine      — solver registry, sweep runner, and the Session /
//                     ResultSink front door (ps::Status error type)
//   ps::cli         — the `powersched` multi-command CLI as a library
#pragma once

#include "cli/powersched_cli.hpp"
#include "core/budgeted_maximization.hpp"
#include "engine/bench_presets.hpp"
#include "engine/cache_store.hpp"
#include "engine/registry.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"
#include "engine/session.hpp"
#include "engine/solver.hpp"
#include "engine/sweep_runner.hpp"
#include "matching/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"
#include "matching/matching_oracle.hpp"
#include "matroid/matroid.hpp"
#include "matroid/local_search.hpp"
#include "matroid/verify.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/budget_scheduler.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/gap_dp.hpp"
#include "scheduling/generators.hpp"
#include "scheduling/instance.hpp"
#include "scheduling/instance_io.hpp"
#include "scheduling/intervals.hpp"
#include "scheduling/power_scheduler.hpp"
#include "scheduling/powerdown.hpp"
#include "scheduling/prize_collecting.hpp"
#include "scheduling/processor_selection.hpp"
#include "scheduling/schedule.hpp"
#include "secretary/bottleneck.hpp"
#include "secretary/classic.hpp"
#include "secretary/harness.hpp"
#include "secretary/knapsack_secretary.hpp"
#include "secretary/matroid_secretary.hpp"
#include "secretary/subadditive.hpp"
#include "secretary/submodular_secretary.hpp"
#include "submodular/additive.hpp"
#include "submodular/aggregates.hpp"
#include "submodular/combinators.hpp"
#include "submodular/coverage.hpp"
#include "submodular/cut.hpp"
#include "submodular/facility_location.hpp"
#include "submodular/greedy.hpp"
#include "submodular/hidden_good_set.hpp"
#include "submodular/item_set.hpp"
#include "submodular/set_function.hpp"
#include "submodular/verify.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
