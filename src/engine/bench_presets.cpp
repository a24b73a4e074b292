#include "engine/bench_presets.hpp"

#include <cstdio>
#include <utility>

namespace ps::engine {
namespace {

PresetSweep sweep(std::string caption, SweepPlan plan, PlotHint plot) {
  return PresetSweep{std::move(caption), std::move(plan), std::move(plot)};
}

std::vector<BenchPreset> build_catalogue() {
  std::vector<BenchPreset> out;

  // --- E1 (Theorem 2.2.1): greedy scheduler vs brute-force optimum --------
  {
    SweepPlan plan;
    plan.solvers = {"power.greedy", "power.always_on", "power.per_job"};
    plan.base_params = {{"processors", 2.0}, {"horizon", 8.0},
                        {"windows", 2.0},    {"window_length", 2.0},
                        {"alpha", 0.0},      {"vs_opt", 1.0}};
    plan.axes = {{"jobs", {3, 4, 5, 6, 7, 8}}};
    plan.trials = 20;
    plan.seed = 20100601;
    out.push_back(
        {"e1",
         "schedule-all cost ratio vs exact optimum (O(log n) guarantee)",
         "greedy ratio max <= the m:bound_2log2n column on every row; "
         "always-on and per-job ratios visibly worse.",
         {sweep("E1: schedule-all cost ratio vs exact optimum (p=2, T=8, "
                "restart-cost model)",
                plan,
                PlotHint{.x = "jobs",
                         .y = {"ratio_mean", "m_bound_2log2n"},
                         .series = {"solver"},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "cost / OPT"})}});
  }

  // --- E2 (Lemma 2.1.2): the bicriteria trade-off -------------------------
  {
    SweepPlan plan;
    plan.solvers = {"core.bicriteria"};
    plan.base_params = {{"sets", 15.0},
                        {"elements", 18.0},
                        {"cover", 5.0},
                        {"max_weight", 3.0},
                        {"target_frac", 0.95}};
    plan.axes = {{"eps",
                  {0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125,
                   0.00390625, 0.001953125, 0.0009765625}}};
    plan.algo_params = {"eps"};
    plan.trials = 15;
    plan.seed = 20100602;
    out.push_back(
        {"e2",
         "bicriteria sweep: cost/OPT vs eps on brute-force-solved coverage",
         "m:utility_frac >= 1-eps on every row; ratio max stays below "
         "m:bound_2log2inveps and grows at most linearly down the sweep.",
         {sweep("E2: bicriteria sweep on random weighted-coverage instances "
                "(eps is an algo param: every row sees the same instances)",
                plan,
                PlotHint{.x = "eps",
                         .y = {"ratio_max", "m_bound_2log2inveps"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "cost / OPT"})}});
  }

  // --- E3 (Theorem .1.2): Set-Cover hardness through the pipeline ---------
  {
    SweepPlan random_plan;
    random_plan.solvers = {"setcover.pipeline"};
    random_plan.base_params = {{"set_size", 3.0}};
    random_plan.axes = {{"elements", {6, 8, 10, 12}}};
    random_plan.trials = 15;
    random_plan.seed = 20100603;

    SweepPlan adversarial_plan;
    adversarial_plan.solvers = {"setcover.adversarial"};
    adversarial_plan.axes = {{"k", {2, 3, 4, 5, 6, 7}}};
    adversarial_plan.trials = 1;
    adversarial_plan.seed = 20100603;
    out.push_back(
        {"e3",
         "Set-Cover hardness: random instances vs H_n, adversarial Θ(log n)",
         "random-instance ratio max <= m:hn_bound; adversarial ratio grows "
         "like k/2, i.e. Θ(log n) is realized.",
         {sweep("E3a: random Set-Cover scheduling instances vs exact cover "
                "optimum (flat interval cost)",
                random_plan,
                PlotHint{.x = "elements",
                         .y = {"ratio_max", "m_hn_bound"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "cover cost / OPT"}),
          sweep("E3b: adversarial family (greedy lower bound) through the "
                "full scheduling pipeline",
                adversarial_plan,
                PlotHint{.x = "k",
                         .y = {"ratio_mean", "m_ln_n"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "greedy / OPT"})}});
  }

  // --- E4 (Theorem 2.3.1): prize-collecting bicriteria --------------------
  {
    SweepPlan plan;
    plan.solvers = {"prize.bicriteria"};
    plan.base_params = {{"jobs", 5.0}, {"alpha", 1.5}, {"zfrac", 0.65},
                        {"max_value", 6.0}};
    plan.axes = {{"eps", {0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625}}};
    plan.algo_params = {"eps"};
    plan.trials = 12;
    plan.seed = 20100604;
    out.push_back(
        {"e4",
         "prize-collecting bicriteria: value >= (1-eps)Z at cost O(B log "
         "1/eps)",
         "m:value_floor_ok = 1 on every row; ratio max below m:bound, "
         "growing logarithmically as eps shrinks.",
         {sweep("E4: prize-collecting bicriteria sweep (p=2, T=6, values in "
                "[1,6], Z = 0.65 * total; same instances on every row)",
                plan,
                PlotHint{.x = "eps",
                         .y = {"ratio_max", "m_bound"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "cost / OPT"})}});
  }

  // --- E5 (Theorem 2.3.3): the exact value floor across spreads -----------
  {
    SweepPlan plan;
    plan.solvers = {"prize.value_floor"};
    plan.base_params = {{"jobs", 5.0}, {"alpha", 1.0}, {"zfrac", 0.7}};
    plan.axes = {{"spread", {1, 10, 100, 1000}}};
    plan.trials = 12;
    plan.seed = 20100605;
    out.push_back(
        {"e5",
         "value-floor scheduler vs exact optimum across value spreads",
         "infeasible = 0 on every row (value >= Z always reached); ratio "
         "max grows only logarithmically with the spread.",
         {sweep("E5: value-floor scheduler vs exact optimum across value "
                "spreads (Z = 0.7 * total)",
                plan,
                PlotHint{.x = "spread",
                         .y = {"ratio_mean", "ratio_max"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "cost / OPT"})}});
  }

  // --- E6 (Section 3.1, Dynkin): the classic 1/e rule ---------------------
  {
    SweepPlan by_n;
    by_n.solvers = {"secretary.classic"};
    by_n.axes = {{"n", {5, 10, 20, 50, 100, 200, 500}}};
    by_n.trials = 20000;
    by_n.seed = 42;

    SweepPlan by_frac;
    by_frac.solvers = {"secretary.classic"};
    by_frac.base_params = {{"n", 100.0}};
    by_frac.axes = {{"observe_frac", {0.1, 0.2, 0.3, 0.368, 0.45, 0.6, 0.8}}};
    by_frac.algo_params = {"observe_frac"};
    by_frac.trials = 20000;
    by_frac.seed = 42;
    out.push_back(
        {"e6",
         "classic secretary: success probability vs n and vs threshold",
         "objective mean converges to 1/e = 0.368 from above as n grows; "
         "the observe_frac sweep is unimodal peaking at the 0.368 row.",
         {sweep("E6a: classic secretary success probability vs n (optimal "
                "threshold)",
                by_n,
                PlotHint{.x = "n",
                         .y = {"objective_mean"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "success probability"}),
          sweep("E6b: success probability vs observation fraction (n=100) — "
                "peaks near 1/e",
                by_frac,
                PlotHint{.x = "observe_frac",
                         .y = {"objective_mean"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "success probability"})}});
  }

  // --- E7 (Theorem 3.1.1, monotone): Algorithm 1 across objectives --------
  {
    SweepPlan plan;
    plan.solvers = {"secretary.submodular"};
    plan.base_params = {{"items", 60.0}, {"elements", 50.0}, {"cover", 5.0},
                        {"max_weight", 2.0}};
    plan.axes = {{"objective", {0, 1, 2}}, {"k", {2, 4, 8, 16}}};
    plan.trials = 300;
    plan.seed = 20100607;
    out.push_back(
        {"e7",
         "monotone submodular secretary across objectives and k",
         "every ratio far above the 1/7e = 0.0526 floor (objective 0 = "
         "coverage, 1 = facility location, 2 = additive); ratios dip "
         "moderately as k grows, never collapse.",
         {sweep("E7: Algorithm 1 (monotone submodular secretary), n=60, "
                "reference = offline lazy greedy",
                plan,
                PlotHint{.x = "k",
                         .y = {"ratio_mean"},
                         .series = {"objective"},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "ratio vs offline greedy"})}});
  }

  // --- E8 (Theorem 3.1.1, non-monotone): Algorithm 2 on graph cuts --------
  {
    SweepPlan plan;
    plan.solvers = {"secretary.nonmonotone", "secretary.nonmonotone_full"};
    plan.base_params = {{"items", 18.0}, {"max_weight", 5.0}};
    plan.axes = {{"density", {0.2, 0.5}}, {"k", {3, 5}}};
    plan.trials = 10;
    plan.seed = 20100608;
    out.push_back(
        {"e8",
         "non-monotone submodular secretary on graph cuts vs exact OPT",
         "secretary.nonmonotone ratio far above the 1/8e^2 = 0.0169 floor "
         "on every row (the half-split sacrifices up to ~2x vs the "
         "full-stream ablation on benign instances).",
         {sweep("E8: Algorithm 2 on random graph cuts, exact OPT by "
                "enumeration (shared via the reference cache)",
                plan,
                // The interquartile band: secretary ratios are heavy-tailed
                // downward, so p5–p95 ribbons would swallow the whole plot.
                PlotHint{.x = "k",
                         .y = {"ratio_mean"},
                         .series = {"solver", "density"},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "ratio vs exact OPT",
                         .band_lo = "p25",
                         .band_hi = "p75"})}});
    // Machine check of the criterion above, evaluated on --tails runs: the
    // median trial of every row must clear the paper's 1/8e^2 floor. (The
    // guarantee is in expectation — individual trials legitimately score 0
    // when the secretary selects nothing, so the low percentiles can't
    // carry a bound.)
    out.back().pass_rules = {{"ratio_p50", PassRule::Op::kGe, 0.0169}};
  }

  // --- E9 (Theorem 3.1.2): the matroid secretary --------------------------
  {
    SweepPlan classes;
    classes.solvers = {"secretary.matroid"};
    classes.base_params = {{"items", 48.0}};
    classes.axes = {{"matroid", {0, 1, 2, 3, 4}}};
    classes.trials = 200;
    classes.seed = 20100609;

    SweepPlan intersection;
    intersection.solvers = {"secretary.matroid_intersection"};
    intersection.base_params = {{"items", 48.0}};
    intersection.axes = {{"l", {1, 2, 3, 4}}};
    intersection.algo_params = {"l"};
    intersection.trials = 200;
    intersection.seed = 20100609;
    out.push_back(
        {"e9",
         "matroid secretary across matroid classes and constraint counts",
         "all ratios positive constants well above the O(1 / l log^2 r) "
         "floor (matroid 0/1 uniform, 2 partition, 3 graphic, 4 "
         "transversal); the l sweep falls no faster than ~1/l.",
         {sweep("E9a: Algorithm 3 across matroid classes (n=48, coverage "
                "objective)",
                classes,
                PlotHint{.x = "matroid",
                         .y = {"ratio_mean"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "competitive ratio"}),
          sweep("E9b: ratio vs number of simultaneous matroid constraints l "
                "(same instances on every row)",
                intersection,
                PlotHint{.x = "l",
                         .y = {"ratio_mean"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "competitive ratio"})}});
  }

  // --- E10 (Theorem 3.1.3): knapsack constraints --------------------------
  {
    SweepPlan multi;
    multi.solvers = {"secretary.multi_knapsack"};
    multi.base_params = {{"items", 50.0}, {"elements", 45.0}};
    multi.axes = {{"l", {1, 2, 4, 8}}};
    multi.trials = 300;
    multi.seed = 20100610;

    SweepPlan single;
    single.solvers = {"secretary.knapsack"};
    single.base_params = {{"items", 50.0}, {"capacity", 1.0}};
    single.trials = 300;
    single.seed = 20100610;
    out.push_back(
        {"e10",
         "submodular secretary under l knapsack constraints",
         "m:feasible_ok = 1 on every row; the l sweep's ratios degrade no "
         "faster than ~1/l; the single-knapsack mixture row hedges the two "
         "adversaries.",
         {sweep("E10a: multi-knapsack submodular secretary vs l (weights "
                "U[0.05,0.5], capacities 1)",
                multi,
                PlotHint{.x = "l",
                         .y = {"ratio_mean", "m_feasible_ok"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "ratio vs offline greedy"}),
          sweep("E10b: single-knapsack coin-flip mixture (the paper's "
                "hedge)",
                single,
                PlotHint{.x = "capacity",
                         .y = {"ratio_mean"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "competitive ratio"})}});
  }

  // --- E11 (Theorem 3.5.1): the subadditive secretary ---------------------
  {
    SweepPlan mixture;
    mixture.solvers = {"secretary.subadditive"};
    mixture.base_params = {{"lambda", 2.0}};
    mixture.axes = {{"root", {4, 6, 8, 10, 12}}};
    mixture.trials = 500;
    mixture.seed = 20100611;

    SweepPlan attack;
    attack.solvers = {"secretary.oracle_attack"};
    attack.base_params = {{"lambda", 8.0}, {"query_factor", 20.0}};
    attack.axes = {{"root", {10, 14, 20}}};
    attack.trials = 5;
    attack.seed = 20100612;
    out.push_back(
        {"e11",
         "subadditive secretary: O(sqrt n) mixture + value-oracle hardness",
         "mixture inverse ratio (1 / ratio mean) grows no faster than "
         "m:sqrt_n; the attack's m:found_opt stays 0 while polynomially "
         "many queries flat-line at value 1.",
         {sweep("E11a: subadditive mixture algorithm on hidden-good-set "
                "instances (n = root^2, k = root)",
                mixture,
                PlotHint{.x = "root",
                         .y = {"ratio_mean"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "value / OPT"}),
          sweep("E11b: value-oracle attack on the hard function — random "
                "queries learn nothing",
                attack,
                PlotHint{.x = "root",
                         .y = {"m_found_opt"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "P[attack found OPT]"})}});
  }

  // --- E12 (Theorem 3.6.1): the bottleneck secretary ----------------------
  {
    SweepPlan plan;
    plan.solvers = {"secretary.bottleneck"};
    plan.base_params = {{"n", 60.0}};
    plan.axes = {{"k", {2, 3, 4, 5, 6}}};
    plan.trials = 5000;
    plan.seed = 20100612;
    out.push_back(
        {"e12",
         "bottleneck (min-aggregate) secretary: P[hired the k best] vs k",
         "objective mean (the success probability) >= m:floor_exp2k on "
         "every row; m:min_over_opt stays a healthy constant fraction.",
         {sweep("E12: bottleneck secretary (n=60, values 1..60)", plan,
                PlotHint{.x = "k",
                         .y = {"objective_mean", "m_floor_exp2k"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "P[hired the k best]"})}});
  }

  // --- E13 (Appendix .2): the exact DPs on agreeable instances ------------
  {
    SweepPlan vs_dp;
    vs_dp.solvers = {"dp.agreeable"};
    vs_dp.base_params = {{"horizon", 30.0}};
    vs_dp.axes = {{"alpha", {0.5, 2.0, 8.0}}, {"jobs", {6, 12}}};
    vs_dp.trials = 12;
    vs_dp.seed = 20100613;

    SweepPlan frontier;
    frontier.solvers = {"dp.gap_frontier"};
    frontier.base_params = {{"jobs", 14.0}, {"horizon", 40.0},
                            {"max_value", 5.0}};
    frontier.axes = {{"gap_budget", {0, 1, 2, 3, 5, 8, 13}}};
    frontier.algo_params = {"gap_budget"};
    frontier.trials = 1;
    frontier.seed = 20100614;
    out.push_back(
        {"e13",
         "greedy vs exact DP optimum; the value-vs-gap-budget frontier",
         "greedy/DP ratio max under m:bound_2log2n everywhere (near 1 for "
         "small alpha); the frontier's objective is non-decreasing and "
         "saturating in gap_budget.",
         {sweep("E13a: greedy vs exact DP optimum on agreeable instances "
                "(1 processor, T=30)",
                vs_dp,
                PlotHint{.x = "jobs",
                         .y = {"ratio_max"},
                         .series = {"alpha"},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "greedy / DP optimum"}),
          sweep("E13b: Theorem .2.1 frontier — max value vs gap budget "
                "(same instance on every row)",
                frontier,
                PlotHint{.x = "gap_budget",
                         .y = {"objective_mean", "m_gaps_used"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "max value / gaps used"})}});
  }

  // --- E14 (Chapter 1): online processor hiring ---------------------------
  {
    SweepPlan plan;
    plan.solvers = {"hiring.online", "hiring.naive"};
    plan.axes = {{"processors", {8, 16, 24}}, {"k", {2, 4, 8}}};
    plan.trials = 150;
    plan.seed = 20100618;
    out.push_back(
        {"e14",
         "online processor hiring (Algorithm 1) vs hire-the-first-k",
         "hiring.online ratio a healthy constant on every row, clearly "
         "above hiring.naive when k is small relative to the pool.",
         {sweep("E14: online processor hiring (jobs = 2x processors, T=6, "
                "reference = offline greedy, shared per trial)",
                plan,
                PlotHint{.x = "k",
                         .y = {"ratio_mean"},
                         .series = {"solver", "processors"},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "value / offline greedy"})}});
  }

  // --- E15 (Section 2.3 dual view): frontier consistency ------------------
  {
    SweepPlan plan;
    plan.solvers = {"frontier.primal_dual"};
    plan.base_params = {{"jobs", 16.0}};
    plan.axes = {{"zfrac", {0.2, 0.35, 0.5, 0.65, 0.8, 0.95}}};
    plan.algo_params = {"zfrac"};
    plan.trials = 1;
    plan.seed = 20100619;
    out.push_back(
        {"e15",
         "primal (min energy s.t. value>=Z) vs dual (max value s.t. "
         "energy<=E) frontier consistency",
         "m:dual_recovers = 1 on every feasible row — the dual recovers >= "
         "90% of the primal value at the primal's own energy.",
         {sweep("E15: primal/dual frontier consistency (n=16, p=2, T=14; "
                "same instance on every row)",
                plan,
                PlotHint{.x = "zfrac",
                         .y = {"m_primal_value", "m_dual_recovers"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "primal value / dual recovery"})}});
  }

  // --- E16 (prior-work substrate): online power-down ----------------------
  {
    SweepPlan plan;
    plan.solvers = {"powerdown.break_even", "powerdown.randomized",
                    "powerdown.eager", "powerdown.never"};
    plan.base_params = {{"alpha", 2.0}, {"gaps", 20000.0}};
    // dist: 0 = exponential (mean alpha), 1 = short gaps (0.2*alpha),
    //       2 = long gaps (5*alpha), 3 = adversarial (gap = alpha+).
    plan.axes = {{"dist", {0, 1, 2, 3}}};
    plan.trials = 10;
    plan.seed = 20100621;
    out.push_back(
        {"e16",
         "online power-down competitive ratios across gap distributions",
         "break-even ratio <= 2 everywhere and exactly 2 on the adversarial "
         "row (dist=3); randomized ~1.582 there (e/(e-1)); eager explodes "
         "on short gaps, never-sleep on long gaps.",
         {sweep("E16: online power-down competitive ratios (cost / offline "
                "optimum, alpha=2)",
                plan,
                PlotHint{.x = "dist",
                         .y = {"ratio_mean"},
                         .series = {"solver"},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "competitive ratio"})}});
  }

  // --- A1-A4: the ablations ------------------------------------------------
  {
    SweepPlan plan;
    plan.solvers = {"ablation.lazy_vs_plain"};
    plan.axes = {{"items", {50, 100, 200, 400, 800}}};
    plan.trials = 3;
    plan.seed = 20100615;
    out.push_back(
        {"a1",
         "lazy (CELF) vs plain candidate evaluation in the Lemma 2.1.2 "
         "greedy",
         "m:same_output = 1 on every row; m:evals_saved grows with the "
         "pool (the ratio column is the fraction of evals lazy makes).",
         {sweep("A1: lazy vs plain greedy on weighted coverage (target = "
                "90% of total coverage)",
                plan,
                PlotHint{.x = "items",
                         .y = {"m_plain_evals", "m_lazy_evals"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "oracle evaluations"})},
         0,
         true});
  }
  {
    SweepPlan plan;
    plan.solvers = {"ablation.incremental_matching"};
    plan.axes = {{"jobs", {8, 12, 16, 24, 32}}};
    plan.trials = 3;
    plan.seed = 20100616;
    out.push_back(
        {"a2",
         "incremental matching oracle vs stateless recompute in the power "
         "scheduler",
         "ratio = 1 on every row (identical costs); m:speedup >= 1 and "
         "growing with size.",
         {sweep("A2: incremental matching oracle vs stateless recompute "
                "(p=3, restart cost 2, plain greedy)",
                plan,
                PlotHint{.x = "jobs",
                         .y = {"m_speedup"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "stateless / incremental time"})},
         1,
         true});
  }
  {
    SweepPlan plan;
    plan.solvers = {"ablation.parallel_greedy"};
    plan.base_params = {{"jobs", 40.0}};
    plan.axes = {{"threads", {1, 2, 4, 8}}};
    plan.algo_params = {"threads"};
    plan.trials = 3;
    plan.seed = 20100617;
    out.push_back(
        {"a3",
         "thread scaling of the non-lazy candidate evaluation sweep",
         "identical objective on every row (thread count never changes "
         "picks); m:sweep_ms drops as threads grow, speedup > 1 by 4 "
         "threads.",
         {sweep("A3: parallel candidate evaluation (plain greedy sweep; "
                "same instance on every row)",
                plan,
                PlotHint{.x = "threads",
                         .y = {"m_sweep_ms"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "candidate sweep wall ms"})},
         1,
         true});
  }
  {
    SweepPlan plan;
    plan.solvers = {"ablation.candidate_pruning"};
    plan.axes = {{"cost_model", {0, 1, 2}}};
    plan.trials = 3;
    plan.seed = 20100620;
    out.push_back(
        {"a4",
         "dominated-candidate pruning of the interval pool across cost "
         "models",
         "ratio <= 1 on every row (pruning never worsens the greedy cost); "
         "m:removed: restart (0) ~0, market (1) substantial, flat (2) "
         "~everything.",
         {sweep("A4: dominated-candidate pruning (n=20, p=3, T=24; "
                "cost_model 0 restart, 1 market, 2 flat)",
                plan,
                PlotHint{.x = "cost_model",
                         .y = {"m_pool_before", "m_pool_after"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "candidate pool size"})},
         0,
         true});
  }

  // --- P1-P3: primitive throughput micro-sweeps ---------------------------
  {
    SweepPlan matching;
    matching.solvers = {"micro.hopcroft_karp", "micro.incremental_fill",
                        "micro.weighted_fill"};
    matching.axes = {{"n", {64, 256, 1024}}};
    matching.trials = 5;
    matching.seed = 1;

    SweepPlan oracle;
    oracle.solvers = {"micro.coverage_eval"};
    oracle.base_params = {{"reps", 200.0}};
    oracle.axes = {{"n", {64, 512}}};
    oracle.trials = 5;
    oracle.seed = 1;

    SweepPlan greedy;
    greedy.solvers = {"micro.lazy_greedy"};
    greedy.axes = {{"n", {128, 512}}};
    greedy.trials = 5;
    greedy.seed = 1;

    SweepPlan sched;
    sched.solvers = {"micro.power_sched"};
    sched.axes = {{"jobs", {8, 16, 32}}};
    sched.trials = 5;
    sched.seed = 1;
    out.push_back(
        {"p_micro",
         "throughput of the primitives every experiment leans on",
         "wall ms grows near-linearly in n for the matching fills; "
         "objectives are bit-stable across runs (determinism check).",
         {sweep("P1: matching primitives (Hopcroft-Karp, incremental fill, "
                "weighted fill)",
                matching,
                PlotHint{.x = "n",
                         .y = {"wall_ms_mean"},
                         .series = {"solver"},
                         .log_x = true,
                         .log_y = true,
                         .y_label = "wall ms per trial"}),
          sweep("P2: coverage-oracle evaluation (200 evals per trial)",
                oracle,
                PlotHint{.x = "n",
                         .y = {"wall_ms_mean"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "wall ms per trial"}),
          sweep("P2b: lazy greedy end-to-end", greedy,
                PlotHint{.x = "n",
                         .y = {"wall_ms_mean"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "wall ms per trial"}),
          sweep("P3: full greedy scheduler", sched,
                PlotHint{.x = "jobs",
                         .y = {"wall_ms_mean"},
                         .series = {},
                         .log_x = false,
                         .log_y = false,
                         .y_label = "wall ms per trial"})},
         1,
         true});
  }

  // --- P4-P5: greedy oracle hot-path kernels ------------------------------
  {
    SweepPlan coverage;
    coverage.solvers = {"micro.greedy_coverage"};
    coverage.axes = {{"n", {128, 512}}};
    coverage.trials = 5;
    coverage.seed = 1;

    SweepPlan facility;
    facility.solvers = {"micro.greedy_facility"};
    facility.axes = {{"n", {64, 256}}};
    facility.trials = 5;
    facility.seed = 1;

    out.push_back(
        {"p_greedy",
         "end-to-end greedy kernels over the incremental marginal-gain "
         "oracles",
         "objectives are bit-stable across runs (determinism check); wall ms "
         "tracks the incremental-oracle cost, not |S| * oracle rebuilds.",
         {sweep("P4: plain greedy on weighted coverage (k = n/8)", coverage,
                PlotHint{.x = "n",
                         .y = {"wall_ms_mean"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "wall ms per trial"}),
          sweep("P5: lazy greedy on facility location (k = n/8)", facility,
                PlotHint{.x = "n",
                         .y = {"wall_ms_mean"},
                         .series = {},
                         .log_x = true,
                         .log_y = false,
                         .y_label = "wall ms per trial"})},
         1,
         true});
  }

  return out;
}

}  // namespace

const std::vector<BenchPreset>& bench_presets() {
  static const std::vector<BenchPreset> catalogue = build_catalogue();
  return catalogue;
}

const BenchPreset* find_bench_preset(const std::string& name) {
  for (const auto& preset : bench_presets()) {
    if (preset.name == name) return &preset;
  }
  return nullptr;
}

std::string preset_names_joined() {
  std::string out;
  for (const auto& preset : bench_presets()) {
    if (!out.empty()) out += ", ";
    out += preset.name;
  }
  return out;
}

namespace {

/// %g rendering for the catalogue document — 0.0078125 and 20000 both stay
/// readable; the exact %.17g form is reserved for the CSV cells.
std::string doc_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

bool is_algo_param(const SweepPlan& plan, const std::string& name) {
  for (const auto& algo : plan.algo_params) {
    if (algo == name) return true;
  }
  return false;
}

/// "jobs ∈ {3, 4, 5}; fixed alpha=2, eps=0.5 (algo)" — the grid column of
/// the catalogue table.
std::string plan_grid_text(const SweepPlan& plan) {
  std::string out;
  for (const auto& axis : plan.axes) {
    if (!out.empty()) out += "; ";
    out += axis.name + " ∈ {";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i) out += ", ";
      out += doc_number(axis.values[i]);
    }
    out += "}";
    if (is_algo_param(plan, axis.name)) out += " (algo)";
  }
  if (!plan.base_params.values().empty()) {
    if (!out.empty()) out += "; ";
    out += "fixed ";
    bool first = true;
    for (const auto& [name, value] : plan.base_params.values()) {
      if (!first) out += ", ";
      first = false;
      out += name + "=" + doc_number(value);
      if (is_algo_param(plan, name)) out += " (algo)";
    }
  }
  return out.empty() ? std::string("—") : out;
}

/// "`ratio_mean`, `m_bound_2log2n` vs `jobs` by solver (log x)".
std::string plot_hint_text(const PlotHint& hint) {
  std::string out;
  for (std::size_t i = 0; i < hint.y.size(); ++i) {
    if (i) out += ", ";
    out += "`" + hint.y[i] + "`";
  }
  out += " vs `" + hint.x + "`";
  if (!hint.series.empty()) {
    out += " by ";
    for (std::size_t i = 0; i < hint.series.size(); ++i) {
      if (i) out += ", ";
      out += "`" + hint.series[i] + "`";
    }
  }
  if (hint.log_x && hint.log_y) {
    out += " (log x, log y)";
  } else if (hint.log_x) {
    out += " (log x)";
  } else if (hint.log_y) {
    out += " (log y)";
  }
  if (hint.band_lo != "p5" || hint.band_hi != "p95") {
    if (hint.band_lo.empty() || hint.band_hi.empty()) {
      out += " (no band)";
    } else {
      out += " (band " + hint.band_lo + "–" + hint.band_hi + ")";
    }
  }
  return out;
}

/// Markdown-table cell: pipes would split the cell, so escape them.
std::string md_cell(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    if (ch == '|') out += "\\|";
    else out += ch;
  }
  return out;
}

}  // namespace

std::string preset_catalogue_markdown() {
  std::string out;
  out +=
      "# Bench preset catalogue\n"
      "\n"
      "<!-- GENERATED FILE — do not edit by hand. The source of truth is\n"
      "     src/engine/bench_presets.cpp; regenerate with\n"
      "       ./build/powersched list-presets --markdown > "
      "docs/presets.md\n"
      "     CI fails when this file drifts from the code. -->\n"
      "\n"
      "Every experiment is a preset: `powersched sweep --preset <name>` "
      "runs it,\n`--csv` writes its aggregated union-of-columns CSV (see "
      "[csv-schema.md](csv-schema.md)),\nand `powersched report --preset "
      "<name> --csv <file>` renders the figures the\npreset declares below "
      "(the *figure* column is the per-sweep `PlotHint`).\nParameters marked "
      "*(algo)* tune the algorithm rather than the instance\ngenerator: "
      "sweeping one replays identical instances across the axis.\n";
  for (const auto& preset : bench_presets()) {
    out += "\n## `" + preset.name + "` — " + preset.title + "\n\n";
    out += "**Pass criterion:** " + preset.pass_criterion + "\n\n";
    if (!preset.pass_rules.empty()) {
      out += "**Tail checks** (evaluated on `--tails` runs): ";
      for (std::size_t i = 0; i < preset.pass_rules.size(); ++i) {
        const PassRule& rule = preset.pass_rules[i];
        if (i) out += ", ";
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g", rule.bound);
        out += "`" + rule.column +
               (rule.op == PassRule::Op::kGe ? "` ≥ " : "` ≤ ") + bound;
      }
      out += "\n\n";
    }
    out += "**Defaults:** threads = ";
    out += preset.default_threads == 0
               ? std::string("hardware concurrency")
               : std::to_string(preset.default_threads);
    out += preset.timing ? "; wall-time columns on.\n" :
                           "; wall-time columns off.\n";
    out += "\n| sweep | solvers | grid | trials | seed | figure |\n";
    out += "|---|---|---|---|---|---|\n";
    for (const auto& preset_sweep : preset.sweeps) {
      const SweepPlan& plan = preset_sweep.plan;
      std::string solvers;
      for (std::size_t i = 0; i < plan.solvers.size(); ++i) {
        if (i) solvers += ", ";
        solvers += "`" + plan.solvers[i] + "`";
      }
      out += "| " + md_cell(preset_sweep.caption) + " | " + solvers + " | " +
             md_cell(plan_grid_text(plan)) + " | " +
             std::to_string(plan.trials) + " | " + std::to_string(plan.seed) +
             " | " + md_cell(plot_hint_text(preset_sweep.plot)) + " |\n";
    }
  }
  return out;
}

}  // namespace ps::engine
