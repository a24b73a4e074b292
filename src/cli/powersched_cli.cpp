#include "cli/powersched_cli.hpp"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dispatch/dispatcher.hpp"
#include "engine/bench_presets.hpp"
#include "engine/perf_baseline.hpp"
#include "engine/registry.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"
#include "engine/session.hpp"
#include "engine/solve_service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/csv_table.hpp"
#include "report/report_builder.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/status.hpp"

// The default --source-root of `powersched dispatch`: the tree this binary
// was built from (set on the library target by CMake). Out-of-tree
// deployments pass --source-root explicitly.
#ifndef POWERSCHED_SOURCE_DIR
#define POWERSCHED_SOURCE_DIR "."
#endif

namespace ps::cli {
namespace {

// ---------------------------------------------------------------------------
// Command + option declarations: the single source the parser, the usage
// strings, `powersched help`, and the generated docs/cli.md all read from.

struct OptionSpec {
  const char* name;        // "--csv"
  const char* value_name;  // "PATH"; nullptr = boolean flag
  const char* help;
  bool hidden = false;     // legacy alias: parsed, but undocumented
};

struct CommandSpec {
  const char* name;
  const char* summary;
  /// Longer description for help/docs (one paragraph, may be "").
  const char* description;
  std::vector<const char*> synopsis;  // lines after "usage: powersched "
  std::vector<OptionSpec> options;
  const char* positionals_name = nullptr;  // e.g. "CACHE-FILE..."
  const char* positionals_help = nullptr;
};

// Options shared verbatim between `sweep` and `merge` (one parser, one
// document) — the plan-identity and output surface.
#define PS_PLAN_OPTIONS                                                      \
  {"--preset", "NAME",                                                       \
   "bench preset to run (e1..e16, a1..a4, p_micro); mutually exclusive "     \
   "with the ad-hoc plan flags"},                                            \
  {"--solvers", "A,B,C", "ad-hoc plan: registered solver keys to sweep"},    \
  {"--grid", "NAME=V1,V2,...",                                               \
   "ad-hoc plan: add a swept parameter axis (repeatable)"},                  \
  {"--param", "NAME=VALUE",                                                  \
   "ad-hoc plan: fix a parameter for every scenario (repeatable)"},          \
  {"--algo-param", "NAME",                                                   \
   "mark a parameter as algorithm-only: excluded from the instance-stream "  \
   "seed, so sweeping it replays identical instances (repeatable)"},         \
  {"--trials", "N", "trials per scenario (0 < N; default: the plan's own)"}, \
  {"--seed", "S", "base seed (default: the plan's own)"}

#define PS_OUTPUT_OPTIONS                                                   \
  {"--csv", "PATH", "write the aggregated union-of-columns results CSV"},   \
  {"--report", "DIR",                                                       \
   "also render the preset's Markdown + SVG figure report into DIR "        \
   "(byte-identical to `powersched report` over the --csv file)"},          \
  {"--timing", nullptr,                                                     \
   "include the (non-deterministic) wall-time columns"},                    \
  {"--tails", nullptr,                                                      \
   "retain per-trial samples: exact p50/p95/p99 percentile columns in "     \
   "tables/CSV, percentile bands in figures, and sample-carrying (v2) "     \
   "cache entries; merge mode requires shards run with --tails"},           \
  {"--tails-cap", "N",                                                      \
   "with --tails: retain at most N samples per scenario statistic via a "   \
   "deterministic seeded reservoir (bounded memory for huge trial "         \
   "counts); percentiles become order statistics of the retained subset "   \
   "(default 0 = exact retention)"}

// Observability surface shared by every command that runs real work. All
// three only ever write to stderr or their own side files, so primary
// output (stdout tables, CSV, SVG) stays byte-identical with them on.
#define PS_OBS_OPTIONS                                                      \
  {"--metrics", nullptr,                                                    \
   "collect engine metrics and print the snapshot (counters, gauges, "      \
   "latency histograms) to stderr at exit"},                                \
  {"--metrics-json", "FILE",                                                \
   "collect engine metrics and write the snapshot as JSON to FILE at "      \
   "exit (see docs/observability.md for the schema)"},                      \
  {"--trace", "FILE",                                                       \
   "record phase/trial spans and write Chrome trace_event JSON to FILE "    \
   "(open in chrome://tracing or https://ui.perfetto.dev)"}

const std::vector<CommandSpec>& commands() {
  static const std::vector<CommandSpec> specs = {
      {"sweep",
       "run a bench preset or an ad-hoc solver sweep",
       "Runs every scenario of the selected plan — a preset from the "
       "catalogue or an ad-hoc solvers × grid sweep — fanned across a "
       "thread pool, and streams the aggregated results into the "
       "configured sinks (tables on stdout, CSV, cache file, figure "
       "report). All emitted statistics except wall time are bit-identical "
       "for any --threads value, and a --shard/--cache-file run merges "
       "back into the unsharded output byte-for-byte (see `merge`).",
       {"sweep --preset NAME [--trials N] [--seed S] [--threads K] "
        "[--csv PATH] [--report DIR] [--timing] [--tails] [--no-cache]",
        "sweep --solvers A,B,C [--grid NAME=V1,V2]... [--param NAME=V]... "
        "[--algo-param NAME]... [common options]",
        "sweep ... [--shard I/N] [--cache-file PATH]"},
       {PS_PLAN_OPTIONS,
        {"--threads", "K",
         "worker threads; 0 = hardware concurrency, 1 = serial (default: "
         "the preset's own, or 0)"},
        PS_OUTPUT_OPTIONS,
        {"--no-cache", nullptr,
         "disable the per-scenario result cache for preset runs"},
        {"--shard", "I/N",
         "run only shard I of N (0-based) of the expanded scenario grid — "
         "round-robin partition, union of shards = the full plan"},
        {"--cache-file", "PATH",
         "persistent scenario cache: load before the run (skipping "
         "already-computed scenarios), save after (write-to-temp + rename)"},
        {"--progress", nullptr,
         "live stderr progress line (scenarios done/total, trials/s, ETA), "
         "at most one update per second; auto-disabled when stderr is not "
         "a terminal"},
        PS_OBS_OPTIONS,
        // Legacy powersched_sweep aliases; the dedicated commands are the
        // documented surface.
        {"--merge", "F1,F2,...", "deprecated: use `powersched merge`",
         /*hidden=*/true},
        {"--list", nullptr, "deprecated: use `powersched list-solvers`",
         /*hidden=*/true},
        {"--list-presets", nullptr,
         "deprecated: use `powersched list-presets`", /*hidden=*/true},
        {"--markdown", nullptr, "deprecated: use `powersched list-presets "
         "--markdown`", /*hidden=*/true}}},

      {"merge",
       "assemble per-shard cache files into the full plan's results",
       "Runs no trials: loads the named per-shard scenario cache files, "
       "assembles the full plan from them, and emits the byte-identical "
       "tables/CSV/report a single unsharded `sweep` would have produced. "
       "The plan-identity flags (--preset or the ad-hoc plan, --trials, "
       "--seed) must match the sharded runs, since they are part of the "
       "scenario cache key. Fails (exit 1) when the files do not cover the "
       "plan. --cache-file additionally persists the merged union.",
       {"merge --preset NAME [--trials N] [--seed S] CACHE-FILE... "
        "[--csv PATH] [--report DIR]",
        "merge --solvers A,B,C [plan flags]... --inputs F1,F2,... "
        "[--csv PATH]"},
       {PS_PLAN_OPTIONS,
        {"--inputs", "F1,F2,...",
         "the per-shard cache files (alternative to positionals)"},
        PS_OUTPUT_OPTIONS,
        {"--cache-file", "PATH", "also save the merged cache union to PATH"},
        PS_OBS_OPTIONS},
       "CACHE-FILE...",
       "per-shard scenario cache files to merge"},

      {"dispatch",
       "fan a plan across shard workers, retry failures, merge — one "
       "command",
       "The fleet front door over the proven --shard/--merge mechanics: "
       "expands the plan once, runs each shard as its own engine Session "
       "on a worker pool (every shard writing its scenario-cache v2 file "
       "into --artifacts under a deterministic name), retries failed "
       "shards with exponential backoff, and finishes with an in-process "
       "merge whose tables/CSV/report are byte-identical to a single "
       "unsharded `sweep`. A manifest next to the artifacts records the "
       "source-revision fingerprint (an order-independent content hash of "
       "the solver/engine sources) and the plan signature; when both match "
       "on a rerun, the shard artifacts are reused and zero trials "
       "execute. Any solver edit changes the fingerprint and forces "
       "recomputation.",
       {"dispatch --preset NAME --shards N [--workers K] [--artifacts DIR] "
        "[--attempts A] [--csv PATH] [--report DIR] [--tails]",
        "dispatch --solvers A,B,C [--grid NAME=V1,V2]... [plan flags]... "
        "--shards N [common options]",
        "dispatch --print-fingerprint"},
       {PS_PLAN_OPTIONS,
        {"--shards", "N",
         "shard count: how many per-shard Sessions the plan splits into "
         "(round-robin over the expanded grid; default 1)"},
        {"--workers", "K",
         "concurrent shard runs (each with its own --threads pool); 0 = "
         "min(shards, hardware concurrency) (default 0)"},
        {"--artifacts", "DIR",
         "artifact directory for shard caches + manifest (default "
         "dispatch-artifacts); reruns against the same DIR reuse matching "
         "shards"},
        {"--attempts", "A",
         "attempts per shard including the first; backoff doubles from "
         "--backoff-ms between attempts (default 3)"},
        {"--backoff-ms", "MS",
         "initial retry backoff in milliseconds (default 100)"},
        {"--no-reuse", nullptr,
         "ignore any existing manifest and recompute every shard (the "
         "artifacts and manifest are still refreshed)"},
        {"--source-root", "DIR",
         "source tree to fingerprint (default: this build's own source "
         "directory)"},
        {"--print-fingerprint", nullptr,
         "print the 16-hex source fingerprint and exit (runs nothing)"},
        {"--threads", "K",
         "worker threads inside each shard Session; 0 = hardware "
         "concurrency (default: the preset's own, or 0)"},
        PS_OUTPUT_OPTIONS,
        {"--no-cache", nullptr,
         "disable the per-scenario result cache for preset runs"},
        {"--progress", nullptr,
         "live stderr progress line over shard completions; auto-disabled "
         "when stderr is not a terminal"},
        PS_OBS_OPTIONS,
        {"--debug-fail-shards", "I,J,...",
         "test hook: fail the first attempt of these shard indices before "
         "any trial runs, exercising the retry path", /*hidden=*/true}}},

      {"report",
       "render a preset's aggregated CSV into Markdown + SVG figures",
       "The figure-reproduction step: draws each sweep of the preset the "
       "way its PlotHint declares, embedding one deterministic SVG per "
       "sweep in a Markdown page under --out. The output is a pure "
       "function of the CSV bytes, so a `merge`d multi-shard CSV renders "
       "byte-identically to an unsharded one.",
       {"report --preset NAME (--csv PATH | --csv-dir DIR) [--out DIR]",
        "report --all --csv-dir DIR [--out DIR]"},
       {{"--preset", "NAME", "preset whose CSV to render"},
        {"--csv", "PATH", "the preset's aggregated CSV"},
        {"--csv-dir", "DIR", "instead of --csv: read DIR/<preset>.csv"},
        {"--all", nullptr,
         "render every preset whose CSV exists in --csv-dir"},
        {"--out", "DIR", "output directory (default docs/reports)"},
        PS_OBS_OPTIONS}},

      {"bench",
       "measure solver-kernel ns/op baselines; compare two snapshots",
       "Times the hot solver kernels of the selected presets — one kernel "
       "per distinct solver, serial, warmup repetitions discarded, ns/op "
       "as the median over timed repetitions — and writes a "
       "schema-versioned BENCH_<rev>.json snapshot. With --compare, runs "
       "nothing: diffs two snapshot files entry-by-entry and exits 1 when "
       "any kernel's new/old ns_per_op ratio exceeds --threshold. CI "
       "compares every build against the committed baseline under "
       "bench/baselines/.",
       {"bench [--presets A,B,...] [--trials N] [--reps R] [--warmup W] "
        "[--rev NAME] [--out FILE]",
        "bench --compare OLD.json NEW.json [--threshold X]"},
       {{"--presets", "A,B,...",
         "presets to measure (default: p_micro,a1,a2,a3,a4)"},
        {"--trials", "N",
         "trials per timed repetition — the inner loop (default 32)"},
        {"--reps", "R",
         "timed repetitions; ns/op is their median (default 5)"},
        {"--warmup", "W", "discarded warmup repetitions (default 1)"},
        {"--rev", "NAME",
         "revision label stamped into the snapshot (default 'dev'; CI "
         "passes the git short hash)"},
        {"--out", "FILE", "snapshot path (default BENCH_<rev>.json)"},
        {"--compare", nullptr,
         "compare mode: diff the two positional snapshot files instead of "
         "measuring"},
        {"--threshold", "X",
         "--compare regression bound: fail (exit 1) when new/old ns_per_op "
         "> X for any kernel (default 2.0)"},
        {"--verbose", nullptr,
         "print each kernel measurement to stderr as it completes"},
        PS_OBS_OPTIONS},
       "[OLD NEW]",
       "the two snapshot files --compare diffs (old baseline first)"},

      {"solve",
       "answer one scheduling request via the SolveService request path",
       "The one-shot twin of `powersched serve`: builds a single "
       "\"powersched-serve v1\" request from the flags, answers it in "
       "process through the same ps::engine::SolveService the daemon uses, "
       "and prints the response line to stdout. Generator requests (no "
       "--instance) aggregate over the engine's deterministic instance "
       "streams and are bit-identical to the corresponding sweep scenario; "
       "--instance requests run one of the scheduling solvers "
       "(power.greedy, power.always_on, power.per_job, budget.value) on an "
       "explicit `powersched-instance v1` file. Output is byte-stable "
       "unless --timing adds the solve_ns field.",
       {"solve --solver NAME [--param NAME=VALUE]... [--trials N] "
        "[--seed S]",
        "solve --solver NAME --instance FILE [--param NAME=VALUE]... "
        "[--want-schedule]"},
       {{"--solver", "NAME",
         "registered solver key to run (see `list-solvers`); with "
         "--instance one of the scheduling solvers"},
        {"--param", "NAME=VALUE",
         "request parameter (repeatable); with --instance only alpha, "
         "vs_opt (power.*) or alpha, budget (budget.value) are accepted"},
        {"--algo-param", "NAME",
         "mark a parameter as algorithm-only (generator requests; see "
         "`sweep`)"},
        {"--trials", "N",
         "trials to aggregate (generator requests; default 1)"},
        {"--seed", "S",
         "base seed of the deterministic instance/algorithm streams "
         "(default 20100601)"},
        {"--instance", "FILE",
         "explicit instance in the `powersched-instance v1` text format"},
        {"--id", "ID", "request id echoed in the response (default 'cli')"},
        {"--want-schedule", nullptr,
         "include the job -> (processor, time) assignments in the response "
         "(--instance only)"},
        {"--timing", nullptr,
         "include the (non-deterministic) solve_ns field in the response"},
        PS_OBS_OPTIONS}},

      {"serve",
       "run the TCP scheduling daemon (line-delimited JSON requests)",
       "Long-running request/response service: listens on --host:--port, "
       "speaks one \"powersched-serve v1\" JSON request per line "
       "(docs/serve-protocol.md), runs solves on a --threads worker pool "
       "through the same SolveService as `solve`, and answers every "
       "request — malformed lines get usage-class errors, requests past "
       "--queue-limit get explicit `overloaded` errors (backpressure, "
       "never a silent drop), and expired deadlines get `deadline` "
       "errors. SIGTERM/SIGINT drain gracefully: admitted requests finish "
       "and flush their responses before exit. The bound address is "
       "printed to stdout at startup (--port 0 picks an ephemeral port).",
       {"serve [--host H] [--port P] [--threads N] [--queue-limit Q] "
        "[--no-timing] [--verbose]"},
       {{"--host", "H", "address to bind (default 127.0.0.1)"},
        {"--port", "P",
         "TCP port; 0 = ephemeral, printed at startup (default 0)"},
        {"--threads", "N",
         "solver worker threads; 0 = hardware concurrency (default 2)"},
        {"--queue-limit", "Q",
         "max requests in flight before new ones are refused with an "
         "`overloaded` error (default 64)"},
        {"--no-timing", nullptr,
         "omit the (non-deterministic) solve_ns field from responses"},
        {"--verbose", nullptr,
         "log connections and answered requests to stderr"},
        PS_OBS_OPTIONS,
        {"--debug-delay-ms", "MS",
         "test hook: delay every worker this long before the deadline "
         "check", /*hidden=*/true}}},

      {"loadgen",
       "replay or synthesize request load against a serve daemon",
       "The measurement client of the serve story: replays a request trace "
       "(one \"powersched-serve v1\" request line per line, '#' comments "
       "allowed) or sends --requests identical synthetic requests for "
       "--solver, over --connections closed-loop connections, optionally "
       "paced to --rate requests/sec. Prints throughput and p50/p95/p99 "
       "latency, writes the per-request latency CSV and the one-row "
       "summary CSV, and renders the latency figure through the standard "
       "report pipeline. Strict by default: any failed request exits 1 "
       "(after the artifacts are written).",
       {"loadgen --port P [--host H] (--trace FILE | --solver NAME "
        "[--param NAME=VALUE]... [--trials N] [--seed S] [--requests N] "
        "[--deadline-ms MS]) [--connections C] [--rate R] "
        "[--latency-csv PATH] [--summary-csv PATH] [--latency-svg PATH] "
        "[--allow-errors]"},
       {{"--host", "H", "daemon address (default 127.0.0.1)"},
        {"--port", "P", "daemon port (required)"},
        {"--trace", "FILE",
         "replay this request trace (validated fail-closed before anything "
         "is sent); mutually exclusive with the synthetic-mode flags"},
        {"--solver", "NAME",
         "synthetic mode: solver key of the generated requests (default "
         "power.greedy)"},
        {"--param", "NAME=VALUE",
         "synthetic mode: request parameter (repeatable)"},
        {"--trials", "N", "synthetic mode: trials per request (default 1)"},
        {"--seed", "S", "synthetic mode: base seed (default 20100601)"},
        {"--requests", "N",
         "synthetic mode: number of requests (default 100)"},
        {"--deadline-ms", "MS",
         "synthetic mode: per-request deadline (default 0 = none)"},
        {"--connections", "C",
         "concurrent closed-loop connections (default 1)"},
        {"--rate", "R",
         "target aggregate arrival rate in requests/sec; 0 = as fast as "
         "the closed loops go (default 0)"},
        {"--latency-csv", "PATH", "write the per-request latency CSV"},
        {"--summary-csv", "PATH",
         "write the one-row summary CSV (requests,ok,failed,duration_s,"
         "throughput_rps,p50_ms,p95_ms,p99_ms)"},
        {"--latency-svg", "PATH",
         "render the per-request latency figure from the latency CSV "
         "through the report pipeline"},
        {"--allow-errors", nullptr,
         "tolerate failed requests (still counted in the summary) instead "
         "of exiting 1"}}},

      {"list-presets",
       "print the bench preset catalogue",
       "One line per preset, or with --markdown the full generated preset "
       "reference (the exact content of docs/presets.md; CI fails when "
       "that file drifts from the code).",
       {"list-presets [--markdown]"},
       {{"--markdown", nullptr,
         "emit the full Markdown preset reference (docs/presets.md)"}}},

      {"list-solvers",
       "print the registered solver keys",
       "All solver adapters SolverRegistry::with_builtins() registers, one "
       "key per line.",
       {"list-solvers"},
       {}},

      {"help",
       "show help for a command",
       "Without arguments, the command overview. With a command name, that "
       "command's options. With --markdown, the full CLI reference (the "
       "exact content of docs/cli.md; CI fails when that file drifts from "
       "the code).",
       {"help [COMMAND]", "help --markdown"},
       {{"--markdown", nullptr,
         "emit the full Markdown CLI reference (docs/cli.md)"}},
       "[COMMAND]",
       "command to describe"},
  };
  return specs;
}

#undef PS_PLAN_OPTIONS
#undef PS_OUTPUT_OPTIONS
#undef PS_OBS_OPTIONS

const CommandSpec* find_command(const std::string& name) {
  for (const auto& spec : commands()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The one option parser every command shares.

struct ParsedArgs {
  std::map<std::string, std::vector<std::string>> options;
  std::vector<std::string> positionals;

  bool has(const std::string& name) const { return options.count(name) > 0; }
  /// Last occurrence of a value option, or nullptr.
  const std::string* value(const std::string& name) const {
    const auto it = options.find(name);
    return it == options.end() ? nullptr : &it->second.back();
  }
  std::vector<std::string> values(const std::string& name) const {
    const auto it = options.find(name);
    return it == options.end() ? std::vector<std::string>() : it->second;
  }
};

const OptionSpec* find_option(const CommandSpec& spec,
                              const std::string& name) {
  for (const auto& option : spec.options) {
    if (name == option.name) return &option;
  }
  return nullptr;
}

Status parse_args(const CommandSpec& spec,
                  const std::vector<std::string>& args, ParsedArgs& out) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      if (spec.positionals_name == nullptr) {
        return Status::usage("unexpected argument '" + arg +
                             "' for 'powersched " + spec.name + "'");
      }
      out.positionals.push_back(arg);
      continue;
    }
    // --name VALUE and --name=VALUE both work.
    std::string name = arg;
    std::string inline_value;
    bool has_inline = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
      has_inline = true;
    }
    const OptionSpec* option = find_option(spec, name);
    if (option == nullptr) {
      return Status::usage("unknown option '" + name + "' for 'powersched " +
                           spec.name + "'");
    }
    if (option->value_name == nullptr) {
      if (has_inline) {
        return Status::usage("option '" + name + "' takes no value");
      }
      out.options[name].push_back("");
      continue;
    }
    if (has_inline) {
      out.options[name].push_back(inline_value);
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::usage("missing value for '" + name + "' (want " +
                           option->value_name + ")");
    }
    out.options[name].push_back(args[++i]);
  }
  return Status();
}

// ---------------------------------------------------------------------------
// Strict value parsers. Every malformed spec is a usage-level Status; no
// atoi-style silent fallthrough ("--trials 5x" ran 5 trials once).

bool parse_decimal_u64(const std::string& text, std::uint64_t& value) {
  if (text.empty()) return false;
  for (char ch : text) {
    if (ch < '0' || ch > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  value = parsed;
  return true;
}

Status parse_positive_int(const std::string& text, const char* flag,
                          int& value) {
  std::uint64_t parsed = 0;
  if (!parse_decimal_u64(text, parsed) || parsed == 0 || parsed > 1000000) {
    return Status::usage(std::string(flag) + " must be a positive integer "
                         "(got '" + text + "')");
  }
  value = static_cast<int>(parsed);
  return Status();
}

Status parse_threads(const std::string& text, int& value) {
  std::uint64_t parsed = 0;
  if (!parse_decimal_u64(text, parsed) || parsed > 4096) {
    return Status::usage(
        "--threads must be an integer >= 0 (0 = hardware concurrency; got '" +
        text + "')");
  }
  value = static_cast<int>(parsed);
  return Status();
}

Status parse_seed(const std::string& text, std::uint64_t& value) {
  if (!parse_decimal_u64(text, value)) {
    return Status::usage("bad --seed '" + text +
                         "' (want an unsigned decimal integer)");
  }
  return Status();
}

/// "I/N", both unsigned decimals, 0 <= I < N. Rejects signs, garbage, and
/// out-of-range indices with messages naming the rule — `--shard 3/3` and
/// `--shard -1/2` used to be easy to write and hard to diagnose.
Status parse_shard_spec(const std::string& text, std::size_t& index,
                        std::size_t& count) {
  const std::size_t slash = text.find('/');
  std::uint64_t i = 0;
  std::uint64_t n = 0;
  if (slash == std::string::npos ||
      !parse_decimal_u64(text.substr(0, slash), i) ||
      !parse_decimal_u64(text.substr(slash + 1), n)) {
    return Status::usage("bad --shard '" + text +
                         "' (want I/N with 0 <= I < N, e.g. 0/3)");
  }
  if (n == 0) {
    return Status::usage("bad --shard '" + text +
                         "': shard count must be >= 1");
  }
  if (i >= n) {
    return Status::usage("bad --shard '" + text +
                         "': shard index is 0-based and must be < the "
                         "shard count");
  }
  index = static_cast<std::size_t>(i);
  count = static_cast<std::size_t>(n);
  return Status();
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Parses "name=v1,v2,..." into an axis; usage Status on any malformation.
Status parse_axis_spec(const std::string& text, const char* flag,
                       engine::ParamAxis& axis) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::usage(std::string("bad ") + flag + " '" + text +
                         "' (want NAME=V1,V2,...)");
  }
  for (const auto& token : split_commas(text.substr(eq + 1))) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) {
      return Status::usage(std::string("bad ") + flag + " '" + text +
                           "': '" + token + "' is not a number");
    }
    axis.values.push_back(value);
  }
  axis.name = text.substr(0, eq);
  return Status();
}

// ---------------------------------------------------------------------------
// Usage / help / markdown rendering, all from the command table above.

std::string usage_text(const CommandSpec& spec) {
  std::string out;
  for (std::size_t i = 0; i < spec.synopsis.size(); ++i) {
    out += i == 0 ? "usage: powersched " : "       powersched ";
    out += spec.synopsis[i];
    out += "\n";
  }
  return out;
}

std::string general_help_text() {
  std::string out =
      "powersched — the unified experiment CLI of the powersched engine\n"
      "\n"
      "usage: powersched <command> [options]\n"
      "\n"
      "commands:\n";
  for (const auto& spec : commands()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-13s %s\n", spec.name,
                  spec.summary);
    out += line;
  }
  out +=
      "\n"
      "exit codes: 0 success, 1 runtime failure, 2 usage error\n"
      "run `powersched help <command>` for per-command options\n";
  return out;
}

std::string command_help_text(const CommandSpec& spec) {
  std::string out = "powersched " + std::string(spec.name) + " — " +
                    spec.summary + "\n\n" + usage_text(spec);
  if (spec.description[0] != '\0') {
    out += "\n";
    out += spec.description;
    out += "\n";
  }
  bool any_visible = false;
  for (const auto& option : spec.options) any_visible |= !option.hidden;
  if (any_visible) {
    out += "\noptions:\n";
    for (const auto& option : spec.options) {
      if (option.hidden) continue;
      std::string head = option.name;
      if (option.value_name != nullptr) {
        head += " ";
        head += option.value_name;
      }
      char line[256];
      std::snprintf(line, sizeof(line), "  %-24s %s\n", head.c_str(),
                    option.help);
      out += line;
    }
  }
  if (spec.positionals_name != nullptr) {
    out += "\npositionals:\n";
    char line[256];
    std::snprintf(line, sizeof(line), "  %-24s %s\n", spec.positionals_name,
                  spec.positionals_help);
    out += line;
  }
  bool any_hidden = false;
  for (const auto& option : spec.options) any_hidden |= option.hidden;
  if (any_hidden) {
    out += "\nhidden options (compatibility aliases and test hooks):\n";
    for (const auto& option : spec.options) {
      if (!option.hidden) continue;
      std::string head = option.name;
      if (option.value_name != nullptr) {
        head += " ";
        head += option.value_name;
      }
      char line[256];
      std::snprintf(line, sizeof(line), "  %-24s %s\n", head.c_str(),
                    option.help);
      out += line;
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

std::string cli_reference_markdown() {
  std::string out =
      "# powersched CLI reference\n"
      "\n"
      "<!-- GENERATED FILE — do not edit by hand. The source of truth is\n"
      "     src/cli/powersched_cli.cpp; regenerate with\n"
      "       ./build/powersched help --markdown > docs/cli.md\n"
      "     CI fails when this file drifts from the code. -->\n"
      "\n"
      "One binary is the front door to every experiment: `powersched "
      "<command>`.\nEach command is a thin argv adapter over "
      "`ps::engine::Session` plus a stack\nof `ResultSink`s (see "
      "[architecture.md](architecture.md)); the legacy binaries\n"
      "(`powersched_sweep`, `powersched_report`, every `bench_*`) are "
      "deprecation\nshims over the same implementation and emit "
      "byte-identical stdout.\n"
      "\n"
      "**Exit codes:** `0` success · `1` runtime failure (the run itself "
      "failed:\nunwritable sink, unreadable cache, merge not covering the "
      "plan, ...) · `2`\nusage error (unknown preset/solver/option, bad "
      "shard spec, conflicting\nflags, ...).\n";
  for (const auto& spec : commands()) {
    out += "\n## powersched ";
    out += spec.name;
    out += "\n\n";
    out += spec.summary;
    out += ".\n\n```\n" + usage_text(spec) + "```\n";
    if (spec.description[0] != '\0') {
      out += "\n";
      out += spec.description;
      out += "\n";
    }
    bool any_visible = false;
    for (const auto& option : spec.options) any_visible |= !option.hidden;
    if (any_visible) {
      out += "\n| option | value | description |\n|---|---|---|\n";
      for (const auto& option : spec.options) {
        if (option.hidden) continue;
        out += "| `";
        out += option.name;
        out += "` | ";
        if (option.value_name != nullptr) {
          out += "`";
          out += option.value_name;
          out += "`";
        } else {
          out += "—";
        }
        out += " | " + md_cell(option.help) + " |\n";
      }
    }
    if (spec.positionals_name != nullptr) {
      out += "\nPositional arguments: `";
      out += spec.positionals_name;
      out += "` — ";
      out += spec.positionals_help;
      out += ".\n";
    }
  }
  return out;
}

namespace {

/// Prints the Status (and, for usage errors, the command synopsis) to
/// stderr and maps it onto the documented 0/1/2 exit contract.
int finish_status(const CommandSpec* spec, const Status& status) {
  if (status.ok()) return 0;
  std::fprintf(stderr, "powersched: %s\n", status.message().c_str());
  if (status.code() == Status::Code::kUsage && spec != nullptr) {
    std::fputs(usage_text(*spec).c_str(), stderr);
  }
  return status.exit_code();
}

// ---------------------------------------------------------------------------
// Observability flags (--metrics / --metrics-json / --trace), shared by
// every work-running command. Activation happens before the session runs;
// emission happens after, wrapping the command's own exit code.

struct ObsRequest {
  bool metrics_text = false;
  std::string metrics_json_path;
  std::string trace_path;
};

/// Reads the obs flags and switches the global registry / trace recorder on
/// accordingly. Off remains the default: without these flags no instrument
/// is touched and output is bit-identical to an uninstrumented build.
ObsRequest activate_obs(const ParsedArgs& args) {
  ObsRequest out;
  out.metrics_text = args.has("--metrics");
  if (const std::string* path = args.value("--metrics-json")) {
    out.metrics_json_path = *path;
  }
  if (const std::string* path = args.value("--trace")) {
    out.trace_path = *path;
  }
  if (out.metrics_text || !out.metrics_json_path.empty()) {
    obs::set_enabled(true);
  }
  if (!out.trace_path.empty()) {
    obs::TraceRecorder::global().set_active(true);
  }
  return out;
}

/// Emits whatever the obs flags asked for and folds writer failures into
/// the exit code (a run that succeeded but could not write its trace file
/// exits 1 — silent loss of requested output is worse). Also switches the
/// global instrumentation back off and drops the written spans, so an
/// embedder calling run() repeatedly gets per-invocation scoping.
int emit_obs(const ObsRequest& request, int exit_code) {
  if (!request.trace_path.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.set_active(false);
    if (Status status = recorder.write(request.trace_path); !status.ok()) {
      std::fprintf(stderr, "powersched: %s\n", status.message().c_str());
      if (exit_code == 0) exit_code = 1;
    } else {
      std::fprintf(stderr, "trace: wrote %s (%zu span(s))\n",
                   request.trace_path.c_str(), recorder.size());
    }
    recorder.clear();
  }
  if (request.metrics_text || !request.metrics_json_path.empty()) {
    const obs::Registry::Snapshot snapshot =
        obs::Registry::global().snapshot();
    if (request.metrics_text) {
      std::fputs(obs::render_metrics_text(snapshot).c_str(), stderr);
    }
    if (!request.metrics_json_path.empty()) {
      std::ofstream out(request.metrics_json_path,
                        std::ios::binary | std::ios::trunc);
      if (out) out << obs::render_metrics_json(snapshot);
      out.flush();
      if (!out) {
        std::fprintf(stderr,
                     "powersched: cannot write metrics JSON file '%s'\n",
                     request.metrics_json_path.c_str());
        if (exit_code == 0) exit_code = 1;
      }
    }
    obs::set_enabled(false);
  }
  return exit_code;
}

int cmd_list_solvers() {
  const engine::SolverRegistry registry =
      engine::SolverRegistry::with_builtins();
  for (const auto& name : registry.names()) std::puts(name.c_str());
  return 0;
}

int cmd_list_presets(bool markdown) {
  if (markdown) {
    std::fputs(engine::preset_catalogue_markdown().c_str(), stdout);
  } else {
    for (const auto& preset : engine::bench_presets()) {
      std::printf("%-8s %s\n", preset.name.c_str(), preset.title.c_str());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// sweep / merge — one builder, two commands.

struct SessionRequest {
  engine::RunConfig config;
  std::string csv_path;
  std::string report_dir;
};

Status build_session_request(const ParsedArgs& args, bool merge_command,
                             SessionRequest& out) {
  engine::RunConfig& config = out.config;
  config.verbose = true;

  bool plan_flags_given = false;
  if (const std::string* preset = args.value("--preset")) {
    config.preset = *preset;
  }
  for (const auto& list : args.values("--solvers")) {
    for (const auto& name : split_commas(list)) {
      if (!name.empty()) config.plan.solvers.push_back(name);
    }
    plan_flags_given = true;
  }
  for (const auto& text : args.values("--grid")) {
    engine::ParamAxis axis;
    if (Status status = parse_axis_spec(text, "--grid", axis); !status.ok()) {
      return status;
    }
    if (axis.values.empty()) {
      return Status::usage("bad --grid '" + text +
                           "' (an axis needs at least one value)");
    }
    config.plan.axes.push_back(std::move(axis));
    plan_flags_given = true;
  }
  for (const auto& text : args.values("--param")) {
    engine::ParamAxis axis;
    if (Status status = parse_axis_spec(text, "--param", axis);
        !status.ok()) {
      return status;
    }
    if (axis.values.size() != 1) {
      return Status::usage("bad --param '" + text +
                           "' (want NAME=VALUE, exactly one value)");
    }
    config.plan.base_params.set(axis.name, axis.values[0]);
    plan_flags_given = true;
  }
  for (const auto& name : args.values("--algo-param")) {
    if (name.empty() || name.find('=') != std::string::npos ||
        name.find(',') != std::string::npos) {
      return Status::usage("bad --algo-param '" + name +
                           "' (takes one bare parameter name; set values "
                           "with --param NAME=VALUE)");
    }
    config.plan.algo_params.push_back(name);
    plan_flags_given = true;
  }
  if (!config.preset.empty() && plan_flags_given) {
    return Status::usage(
        "--solvers/--grid/--param/--algo-param cannot be combined with "
        "--preset (presets define their own plans; only "
        "--trials/--seed/--threads and the output flags override)");
  }

  if (const std::string* trials = args.value("--trials")) {
    if (Status status = parse_positive_int(*trials, "--trials",
                                           config.trials);
        !status.ok()) {
      return status;
    }
  }
  if (const std::string* seed = args.value("--seed")) {
    if (Status status = parse_seed(*seed, config.seed); !status.ok()) {
      return status;
    }
    config.seed_given = true;
  }
  if (const std::string* threads = args.value("--threads")) {
    if (Status status = parse_threads(*threads, config.num_threads);
        !status.ok()) {
      return status;
    }
  }
  if (const std::string* shard = args.value("--shard")) {
    if (Status status = parse_shard_spec(*shard, config.shard_index,
                                         config.shard_count);
        !status.ok()) {
      return status;
    }
  }
  if (const std::string* cache_file = args.value("--cache-file")) {
    config.cache_file = *cache_file;
  }
  config.timing = args.has("--timing");
  config.tails = args.has("--tails");
  if (const std::string* cap = args.value("--tails-cap")) {
    int value = 0;
    if (Status status = parse_positive_int(*cap, "--tails-cap", value);
        !status.ok()) {
      return status;
    }
    config.tails_cap = static_cast<std::size_t>(value);
  }
  if (args.has("--no-cache")) config.use_cache = false;

  // Merge inputs: the merge command takes positionals and/or --inputs; the
  // sweep command keeps the legacy --merge alias.
  std::vector<std::string> merge_inputs;
  const char* inputs_flag = merge_command ? "--inputs" : "--merge";
  for (const auto& list : args.values(inputs_flag)) {
    for (const auto& file : split_commas(list)) {
      if (!file.empty()) merge_inputs.push_back(file);
    }
  }
  for (const auto& file : args.positionals) merge_inputs.push_back(file);
  if (merge_command && merge_inputs.empty()) {
    return Status::usage(
        "merge needs at least one per-shard cache file (positional or "
        "--inputs F1,F2,...)");
  }
  if (!merge_command && args.has("--merge") && merge_inputs.empty()) {
    return Status::usage("--merge needs at least one cache file");
  }
  config.merge_files = std::move(merge_inputs);

  if (const std::string* csv = args.value("--csv")) out.csv_path = *csv;
  if (const std::string* report = args.value("--report")) {
    if (config.preset.empty()) {
      return Status::usage(
          "--report renders the preset's declared figures and needs "
          "--preset");
    }
    out.report_dir = *report;
  }
  return Status();
}

int run_session_request(const CommandSpec& spec, SessionRequest request) {
  const std::size_t shard_index = request.config.shard_index;
  const std::size_t shard_count = request.config.shard_count;
  const std::size_t merge_count = request.config.merge_files.size();
  const bool has_cache_file = !request.config.cache_file.empty();

  engine::Session session(std::move(request.config));
  if (Status status = session.prepare(); !status.ok()) {
    return finish_status(&spec, status);
  }
  if (const engine::BenchPreset* preset = session.preset()) {
    std::fprintf(stderr, "preset %s: %s", preset->name.c_str(),
                 preset->title.c_str());
    if (shard_count > 1) {
      std::fprintf(stderr, "  [shard %zu/%zu]", shard_index, shard_count);
    }
    if (merge_count > 0) {
      std::fprintf(stderr, "  [merging %zu cache file(s)]", merge_count);
    }
    std::fprintf(stderr, "\n");
  }

  session.add_sink(std::make_unique<engine::TableSink>());
  if (has_cache_file) {
    session.add_sink(std::make_unique<engine::CacheFileSink>());
  }
  if (!request.csv_path.empty()) {
    session.add_sink(std::make_unique<engine::CsvSink>(request.csv_path));
  }
  if (!request.report_dir.empty()) {
    session.add_sink(
        std::make_unique<engine::SvgReportSink>(request.report_dir));
  }
  return finish_status(&spec, session.run());
}

int cmd_sweep(const CommandSpec& spec, const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }
  // Legacy powersched_sweep listing modes. They own stdout completely, so
  // `--list-presets --markdown > docs/presets.md` keeps working verbatim.
  // The markdown-consistency check comes first, exactly as the legacy
  // binary ordered it: `--list --markdown` is a usage error, not a listing.
  if (parsed.has("--markdown") && !parsed.has("--list-presets")) {
    return finish_status(
        &spec, Status::usage("--markdown requires --list-presets"));
  }
  if (parsed.has("--list")) return cmd_list_solvers();
  if (parsed.has("--list-presets")) {
    return cmd_list_presets(parsed.has("--markdown"));
  }
  SessionRequest request;
  if (Status status = build_session_request(parsed, /*merge_command=*/false,
                                            request);
      !status.ok()) {
    return finish_status(&spec, status);
  }
  // The ticker is interactive-terminal-only by contract: piped stderr (CI
  // logs, 2>file) never sees the carriage-return line.
  request.config.progress =
      parsed.has("--progress") && ::isatty(STDERR_FILENO) != 0;
  const ObsRequest obs_request = activate_obs(parsed);
  return emit_obs(obs_request, run_session_request(spec, std::move(request)));
}

int cmd_merge(const CommandSpec& spec, const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }
  SessionRequest request;
  if (Status status = build_session_request(parsed, /*merge_command=*/true,
                                            request);
      !status.ok()) {
    return finish_status(&spec, status);
  }
  const ObsRequest obs_request = activate_obs(parsed);
  return emit_obs(obs_request, run_session_request(spec, std::move(request)));
}

// ---------------------------------------------------------------------------
// dispatch

int cmd_dispatch(const CommandSpec& spec,
                 const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }
  const std::string* root_flag = parsed.value("--source-root");
  const std::string source_root =
      root_flag != nullptr ? *root_flag : std::string(POWERSCHED_SOURCE_DIR);

  if (parsed.has("--print-fingerprint")) {
    dispatch::SourceFingerprint fingerprint;
    if (Status status =
            dispatch::compute_source_fingerprint(source_root, fingerprint);
        !status.ok()) {
      return finish_status(&spec, status);
    }
    std::printf("%s\n", dispatch::fingerprint_hex(fingerprint.value).c_str());
    std::fprintf(stderr, "fingerprint over %zu source file(s) under %s\n",
                 fingerprint.file_count, source_root.c_str());
    return 0;
  }

  SessionRequest request;
  if (Status status = build_session_request(parsed, /*merge_command=*/false,
                                            request);
      !status.ok()) {
    return finish_status(&spec, status);
  }

  dispatch::DispatchConfig config;
  config.base = std::move(request.config);
  // The dispatcher owns all stderr narration (shard banners, retries, the
  // merge line); individual shard Sessions stay quiet.
  config.base.verbose = false;
  config.verbose = true;
  config.source_root = source_root;
  config.artifact_dir = "dispatch-artifacts";
  if (const std::string* dir = parsed.value("--artifacts")) {
    config.artifact_dir = *dir;
  }
  if (const std::string* shards = parsed.value("--shards")) {
    int value = 0;
    if (Status status = parse_positive_int(*shards, "--shards", value);
        !status.ok()) {
      return finish_status(&spec, status);
    }
    config.shards = static_cast<std::size_t>(value);
  }
  if (const std::string* workers = parsed.value("--workers")) {
    std::uint64_t value = 0;
    if (!parse_decimal_u64(*workers, value) || value > 4096) {
      return finish_status(
          &spec, Status::usage("bad --workers '" + *workers +
                               "' (want an integer in [0, 4096]; 0 = "
                               "min(shards, hardware concurrency))"));
    }
    config.workers = static_cast<std::size_t>(value);
  }
  if (const std::string* attempts = parsed.value("--attempts")) {
    if (Status status = parse_positive_int(*attempts, "--attempts",
                                           config.retry.max_attempts);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* backoff = parsed.value("--backoff-ms")) {
    std::uint64_t value = 0;
    if (!parse_decimal_u64(*backoff, value) || value > 60000) {
      return finish_status(
          &spec, Status::usage("bad --backoff-ms '" + *backoff +
                               "' (want an integer in [0, 60000])"));
    }
    config.retry.initial_backoff_ms = static_cast<int>(value);
  }
  if (parsed.has("--no-reuse")) config.reuse = false;
  if (const std::string* fail = parsed.value("--debug-fail-shards")) {
    for (const std::string& token : split_commas(*fail)) {
      std::uint64_t shard = 0;
      if (token.empty() || !parse_decimal_u64(token, shard)) {
        return finish_status(
            &spec, Status::usage("bad --debug-fail-shards '" + *fail +
                                 "' (want comma-separated shard indices)"));
      }
      config.debug_fail_shards.push_back(static_cast<std::size_t>(shard));
    }
  }
  config.progress = parsed.has("--progress") && ::isatty(STDERR_FILENO) != 0;

  dispatch::Dispatcher dispatcher(std::move(config));
  dispatcher.add_sink(std::make_unique<engine::TableSink>());
  if (!request.csv_path.empty()) {
    dispatcher.add_sink(std::make_unique<engine::CsvSink>(request.csv_path));
  }
  if (!request.report_dir.empty()) {
    dispatcher.add_sink(
        std::make_unique<engine::SvgReportSink>(request.report_dir));
  }
  const ObsRequest obs_request = activate_obs(parsed);
  return emit_obs(obs_request, finish_status(&spec, dispatcher.run()));
}

// ---------------------------------------------------------------------------
// report

Status render_report(const engine::BenchPreset& preset,
                     const std::string& csv_path,
                     const std::string& out_dir) {
  if (Status status = engine::ensure_directory(out_dir); !status.ok()) {
    return status;
  }
  report::CsvTable table;
  if (!report::CsvTable::load(csv_path, table)) {
    return Status::runtime("FAILED to load results CSV '" + csv_path + "'");
  }
  if (!report::build_preset_report(preset, table, out_dir)) {
    return Status::runtime("FAILED to build figure report for preset '" +
                           preset.name + "' in '" + out_dir + "'");
  }
  std::fprintf(stderr, "report: wrote %s/%s.md (%zu figure(s))\n",
               out_dir.c_str(), preset.name.c_str(), preset.sweeps.size());
  return Status();
}

int cmd_report_impl(const CommandSpec& spec, const ParsedArgs& parsed) {
  const std::string preset_name =
      parsed.value("--preset") ? *parsed.value("--preset") : "";
  const std::string csv_path =
      parsed.value("--csv") ? *parsed.value("--csv") : "";
  const std::string csv_dir =
      parsed.value("--csv-dir") ? *parsed.value("--csv-dir") : "";
  const std::string out_dir =
      parsed.value("--out") ? *parsed.value("--out") : "docs/reports";
  const bool all = parsed.has("--all");

  if (!all && preset_name.empty()) {
    return finish_status(
        &spec, Status::usage("pass --preset NAME (or --all with --csv-dir)"
                             "\navailable presets: " +
                             engine::preset_names_joined()));
  }

  if (all) {
    if (!preset_name.empty() || !csv_path.empty() || csv_dir.empty()) {
      return finish_status(
          &spec,
          Status::usage("--all renders every preset with a CSV in "
                        "--csv-dir (and takes no --preset/--csv)"));
    }
    std::size_t rendered = 0;
    for (const auto& preset : engine::bench_presets()) {
      const std::filesystem::path path =
          std::filesystem::path(csv_dir) / (preset.name + ".csv");
      std::error_code ec;
      if (!std::filesystem::exists(path, ec)) continue;
      if (Status status = render_report(preset, path.string(), out_dir);
          !status.ok()) {
        return finish_status(&spec, status);
      }
      ++rendered;
    }
    if (rendered == 0) {
      return finish_status(
          &spec, Status::runtime("no <preset>.csv files found in '" +
                                 csv_dir + "'"));
    }
    return 0;
  }

  const engine::BenchPreset* preset =
      engine::find_bench_preset(preset_name);
  if (preset == nullptr) {
    return finish_status(
        &spec, Status::usage("unknown preset '" + preset_name +
                             "'\navailable presets: " +
                             engine::preset_names_joined()));
  }
  if (csv_path.empty() == csv_dir.empty()) {  // need exactly one
    return finish_status(
        &spec, Status::usage("pass exactly one of --csv or --csv-dir"));
  }
  const std::string resolved_csv =
      !csv_path.empty()
          ? csv_path
          : (std::filesystem::path(csv_dir) / (preset_name + ".csv"))
                .string();
  return finish_status(&spec, render_report(*preset, resolved_csv, out_dir));
}

int cmd_report(const CommandSpec& spec,
               const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }
  const ObsRequest obs_request = activate_obs(parsed);
  return emit_obs(obs_request, cmd_report_impl(spec, parsed));
}

// ---------------------------------------------------------------------------
// bench

int cmd_bench(const CommandSpec& spec, const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }
  const ObsRequest obs_request = activate_obs(parsed);

  if (parsed.has("--compare")) {
    if (parsed.positionals.size() != 2) {
      return finish_status(
          &spec, Status::usage("--compare takes exactly two snapshot files "
                               "(old baseline first): bench --compare "
                               "OLD.json NEW.json"));
    }
    double threshold = 2.0;
    if (const std::string* text = parsed.value("--threshold")) {
      char* end = nullptr;
      threshold = std::strtod(text->c_str(), &end);
      if (text->empty() || end != text->c_str() + text->size() ||
          threshold <= 0.0) {
        return finish_status(
            &spec, Status::usage("bad --threshold '" + *text +
                                 "' (want a positive ratio, e.g. 2.0)"));
      }
    }
    engine::BenchReport old_report;
    engine::BenchReport new_report;
    if (Status status =
            engine::load_bench_report(parsed.positionals[0], old_report);
        !status.ok()) {
      return finish_status(&spec, status);
    }
    if (Status status =
            engine::load_bench_report(parsed.positionals[1], new_report);
        !status.ok()) {
      return finish_status(&spec, status);
    }
    const engine::BenchComparison comparison =
        engine::compare_bench_reports(old_report, new_report, threshold);
    std::fputs(comparison.text.c_str(), stdout);
    if (comparison.matched == 0) {
      return emit_obs(
          obs_request,
          finish_status(&spec, Status::runtime(
                                   "the snapshots share no kernel — nothing "
                                   "was compared")));
    }
    if (comparison.regressions > 0) {
      return emit_obs(
          obs_request,
          finish_status(
              &spec,
              Status::runtime(std::to_string(comparison.regressions) +
                              " kernel(s) regressed past the threshold")));
    }
    return emit_obs(obs_request, 0);
  }

  if (!parsed.positionals.empty()) {
    return finish_status(
        &spec, Status::usage("bench takes positionals only with --compare"));
  }
  if (parsed.has("--threshold")) {
    return finish_status(
        &spec,
        Status::usage("--threshold only applies to bench --compare"));
  }

  engine::BenchOptions options;
  for (const auto& list : parsed.values("--presets")) {
    for (const auto& name : split_commas(list)) {
      if (!name.empty()) options.presets.push_back(name);
    }
  }
  if (const std::string* text = parsed.value("--trials")) {
    if (Status status = parse_positive_int(*text, "--trials", options.trials);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--reps")) {
    if (Status status = parse_positive_int(*text, "--reps", options.reps);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--warmup")) {
    std::uint64_t warmup = 0;
    if (!parse_decimal_u64(*text, warmup) || warmup > 1000) {
      return finish_status(
          &spec, Status::usage("bad --warmup '" + *text +
                               "' (want an integer >= 0)"));
    }
    options.warmup = static_cast<int>(warmup);
  }
  if (const std::string* rev = parsed.value("--rev")) {
    if (rev->empty()) {
      return finish_status(&spec,
                           Status::usage("--rev needs a non-empty label"));
    }
    options.revision = *rev;
  }
  options.verbose = parsed.has("--verbose");

  engine::BenchReport report;
  if (Status status = engine::run_bench(options, report); !status.ok()) {
    return finish_status(&spec, status);
  }
  const std::string out_path =
      parsed.value("--out") != nullptr ? *parsed.value("--out")
                                       : "BENCH_" + options.revision + ".json";
  if (Status status = engine::write_bench_report(report, out_path);
      !status.ok()) {
    return finish_status(&spec, status);
  }
  std::fprintf(stderr, "bench: wrote %s (%zu kernel(s), rev %s)\n",
               out_path.c_str(), report.entries.size(),
               report.revision.c_str());
  return emit_obs(obs_request, 0);
}

// ---------------------------------------------------------------------------
// solve / serve / loadgen — the request/response path. `solve` answers one
// request in process, `serve` is the daemon, `loadgen` the measurement
// client; all three speak the same "powersched-serve v1" schema.

Status parse_port(const std::string& text, const char* flag, bool allow_zero,
                  int& value) {
  std::uint64_t parsed = 0;
  if (!parse_decimal_u64(text, parsed) || parsed > 65535 ||
      (parsed == 0 && !allow_zero)) {
    return Status::usage(std::string(flag) + " must be a TCP port in [" +
                         (allow_zero ? "0" : "1") + ", 65535] (got '" + text +
                         "')");
  }
  value = static_cast<int>(parsed);
  return Status();
}

/// One "--param NAME=VALUE" setting. Reuses the axis grammar but insists on
/// a single value — value lists belong to sweep axes, not requests.
Status parse_param_setting(const std::string& text, engine::ParamMap& params) {
  engine::ParamAxis axis;
  if (Status status = parse_axis_spec(text, "--param", axis); !status.ok()) {
    return status;
  }
  if (axis.values.size() != 1) {
    return Status::usage("bad --param '" + text +
                         "' (want a single NAME=VALUE; value lists belong "
                         "to `sweep`)");
  }
  params.set(axis.name, axis.values[0]);
  return Status();
}

Status parse_deadline_ms(const std::string& text, std::int64_t& value) {
  std::uint64_t parsed = 0;
  if (!parse_decimal_u64(text, parsed) || parsed > 86400000) {
    return Status::usage("bad --deadline-ms '" + text +
                         "' (want an integer in [0, 86400000])");
  }
  value = static_cast<std::int64_t>(parsed);
  return Status();
}

int cmd_solve(const CommandSpec& spec, const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }

  engine::SolveRequest request;
  request.id = "cli";
  if (const std::string* id = parsed.value("--id")) {
    if (id->empty()) {
      return finish_status(&spec,
                           Status::usage("--id needs a non-empty value"));
    }
    request.id = *id;
  }
  const std::string* solver = parsed.value("--solver");
  if (solver == nullptr || solver->empty()) {
    return finish_status(&spec, Status::usage("solve needs --solver NAME"));
  }
  request.solver = *solver;
  for (const auto& text : parsed.values("--param")) {
    if (Status status = parse_param_setting(text, request.params);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  for (const auto& name : parsed.values("--algo-param")) {
    if (name.empty()) {
      return finish_status(
          &spec, Status::usage("--algo-param needs a parameter name"));
    }
    request.algo_params.push_back(name);
  }
  if (const std::string* text = parsed.value("--trials")) {
    if (Status status = parse_positive_int(*text, "--trials", request.trials);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--seed")) {
    if (Status status = parse_seed(*text, request.seed); !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* path = parsed.value("--instance")) {
    if (path->empty()) {
      return finish_status(&spec,
                           Status::usage("--instance needs a file path"));
    }
    request.instance_file = *path;
  }
  request.want_schedule = parsed.has("--want-schedule");

  const ObsRequest obs_request = activate_obs(parsed);
  const engine::SolveService service;
  engine::SolveResponse response;
  if (Status status = service.solve(request, response); !status.ok()) {
    return emit_obs(obs_request, finish_status(&spec, status));
  }
  std::puts(
      serve::render_ok_response(response, parsed.has("--timing")).c_str());
  return emit_obs(obs_request, 0);
}

/// The serving Server, published for the signal handlers below.
/// request_stop() is async-signal-safe (a single pipe write), so SIGTERM and
/// SIGINT can trigger the graceful drain directly.
serve::Server* volatile g_signal_server = nullptr;

void handle_stop_signal(int) {
  serve::Server* server = g_signal_server;
  if (server != nullptr) server->request_stop();
}

int cmd_serve(const CommandSpec& spec, const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }

  serve::ServeOptions options;
  if (const std::string* host = parsed.value("--host")) {
    if (host->empty()) {
      return finish_status(
          &spec, Status::usage("--host needs a non-empty address"));
    }
    options.host = *host;
  }
  if (const std::string* text = parsed.value("--port")) {
    if (Status status =
            parse_port(*text, "--port", /*allow_zero=*/true, options.port);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--threads")) {
    int threads = 0;
    if (Status status = parse_threads(*text, threads); !status.ok()) {
      return finish_status(&spec, status);
    }
    options.threads = static_cast<std::size_t>(threads);
  }
  if (const std::string* text = parsed.value("--queue-limit")) {
    int limit = 0;
    if (Status status = parse_positive_int(*text, "--queue-limit", limit);
        !status.ok()) {
      return finish_status(&spec, status);
    }
    options.queue_limit = static_cast<std::size_t>(limit);
  }
  if (const std::string* text = parsed.value("--debug-delay-ms")) {
    std::uint64_t delay = 0;
    if (!parse_decimal_u64(*text, delay) || delay > 60000) {
      return finish_status(
          &spec, Status::usage("bad --debug-delay-ms '" + *text +
                               "' (want an integer in [0, 60000])"));
    }
    options.debug_delay_ms = static_cast<std::int64_t>(delay);
  }
  options.include_timing = !parsed.has("--no-timing");
  options.verbose = parsed.has("--verbose");

  const ObsRequest obs_request = activate_obs(parsed);
  serve::Server server(options);
  if (Status status = server.start(); !status.ok()) {
    return emit_obs(obs_request, finish_status(&spec, status));
  }
  // The readiness line: scripts (and the CI smoke job) wait for it and read
  // the bound port off it, so --port 0 works end to end.
  std::printf("powersched serve: listening on %s:%d\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);

  g_signal_server = &server;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  server.wait();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_signal_server = nullptr;
  std::fprintf(stderr, "powersched serve: drained and stopped\n");
  return emit_obs(obs_request, 0);
}

int cmd_loadgen(const CommandSpec& spec,
                const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }

  serve::LoadgenOptions options;
  if (const std::string* host = parsed.value("--host")) {
    if (host->empty()) {
      return finish_status(
          &spec, Status::usage("--host needs a non-empty address"));
    }
    options.host = *host;
  }
  const std::string* port_text = parsed.value("--port");
  if (port_text == nullptr) {
    return finish_status(
        &spec, Status::usage("loadgen needs --port P (the daemon's port)"));
  }
  if (Status status = parse_port(*port_text, "--port", /*allow_zero=*/false,
                                 options.port);
      !status.ok()) {
    return finish_status(&spec, status);
  }

  if (const std::string* trace = parsed.value("--trace")) {
    if (trace->empty()) {
      return finish_status(&spec,
                           Status::usage("--trace needs a file path"));
    }
    for (const char* flag : {"--solver", "--param", "--trials", "--seed",
                             "--requests", "--deadline-ms"}) {
      if (parsed.has(flag)) {
        return finish_status(
            &spec, Status::usage(std::string(flag) +
                                 " is a synthetic-mode flag and does not "
                                 "combine with --trace"));
      }
    }
    options.trace_path = *trace;
  }
  if (const std::string* solver = parsed.value("--solver")) {
    if (solver->empty()) {
      return finish_status(&spec,
                           Status::usage("--solver needs a solver name"));
    }
    options.solver = *solver;
  }
  for (const auto& text : parsed.values("--param")) {
    if (Status status = parse_param_setting(text, options.params);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--trials")) {
    if (Status status = parse_positive_int(*text, "--trials", options.trials);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--seed")) {
    if (Status status = parse_seed(*text, options.seed); !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--requests")) {
    if (Status status =
            parse_positive_int(*text, "--requests", options.requests);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--deadline-ms")) {
    if (Status status = parse_deadline_ms(*text, options.deadline_ms);
        !status.ok()) {
      return finish_status(&spec, status);
    }
  }
  if (const std::string* text = parsed.value("--connections")) {
    int connections = 0;
    if (Status status =
            parse_positive_int(*text, "--connections", connections);
        !status.ok()) {
      return finish_status(&spec, status);
    }
    options.connections = static_cast<std::size_t>(connections);
  }
  if (const std::string* text = parsed.value("--rate")) {
    char* end = nullptr;
    options.rate_rps = std::strtod(text->c_str(), &end);
    if (text->empty() || end != text->c_str() + text->size() ||
        options.rate_rps < 0.0) {
      return finish_status(
          &spec, Status::usage("bad --rate '" + *text +
                               "' (want requests/sec >= 0; 0 = unpaced)"));
    }
  }
  if (const std::string* path = parsed.value("--latency-csv")) {
    options.latency_csv = *path;
  }
  if (const std::string* path = parsed.value("--summary-csv")) {
    options.summary_csv = *path;
  }
  if (const std::string* path = parsed.value("--latency-svg")) {
    options.latency_svg = *path;
  }
  options.allow_errors = parsed.has("--allow-errors");

  serve::LoadgenReport report;
  return finish_status(&spec, serve::run_loadgen(options, &report));
}

// ---------------------------------------------------------------------------
// help + dispatch

int cmd_help(const CommandSpec& spec, const std::vector<std::string>& args) {
  ParsedArgs parsed;
  if (Status status = parse_args(spec, args, parsed); !status.ok()) {
    return finish_status(&spec, status);
  }
  if (parsed.has("--markdown")) {
    std::fputs(cli_reference_markdown().c_str(), stdout);
    return 0;
  }
  if (parsed.positionals.empty()) {
    std::fputs(general_help_text().c_str(), stdout);
    return 0;
  }
  if (parsed.positionals.size() > 1) {
    return finish_status(
        &spec, Status::usage("help takes at most one command name"));
  }
  const CommandSpec* target = find_command(parsed.positionals[0]);
  if (target == nullptr) {
    return finish_status(
        &spec, Status::usage("unknown command '" + parsed.positionals[0] +
                             "' (run `powersched help` for the list)"));
  }
  std::fputs(command_help_text(*target).c_str(), stdout);
  return 0;
}

int run_command(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fputs(general_help_text().c_str(), stderr);
    return 2;
  }
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "--help" || command == "-h") {
    std::fputs(general_help_text().c_str(), stdout);
    return 0;
  }
  const CommandSpec* spec = find_command(command);
  if (spec == nullptr) {
    std::fprintf(stderr, "powersched: unknown command '%s'\n\n",
                 command.c_str());
    std::fputs(general_help_text().c_str(), stderr);
    return 2;
  }
  if (command == std::string("sweep")) return cmd_sweep(*spec, rest);
  if (command == std::string("merge")) return cmd_merge(*spec, rest);
  if (command == std::string("dispatch")) return cmd_dispatch(*spec, rest);
  if (command == std::string("report")) return cmd_report(*spec, rest);
  if (command == std::string("bench")) return cmd_bench(*spec, rest);
  if (command == std::string("solve")) return cmd_solve(*spec, rest);
  if (command == std::string("serve")) return cmd_serve(*spec, rest);
  if (command == std::string("loadgen")) return cmd_loadgen(*spec, rest);
  if (command == std::string("list-presets")) {
    ParsedArgs parsed;
    if (Status status = parse_args(*spec, rest, parsed); !status.ok()) {
      return finish_status(spec, status);
    }
    return cmd_list_presets(parsed.has("--markdown"));
  }
  if (command == std::string("list-solvers")) {
    ParsedArgs parsed;
    if (Status status = parse_args(*spec, rest, parsed); !status.ok()) {
      return finish_status(spec, status);
    }
    return cmd_list_solvers();
  }
  return cmd_help(*spec, rest);  // "help"
}

}  // namespace

int run(const std::vector<std::string>& args) {
  try {
    return run_command(args);
  } catch (const std::exception& e) {
    // A kernel refusing its input (e.g. the exact optimum's slot cap) deep
    // inside a sweep is a runtime failure: report it and exit 1, not abort.
    std::fprintf(stderr, "powersched: %s\n", e.what());
    return 1;
  }
}

int powersched_main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args);
}

int legacy_shim_main(const char* command, int argc, char** argv) {
  std::fprintf(stderr,
               "%s: deprecated shim — forwarding to `powersched %s` (same "
               "options, byte-identical stdout)\n",
               argc > 0 ? argv[0] : "powersched-shim", command);
  std::vector<std::string> args{command};
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args);
}

int preset_shim_main(const char* preset, int argc, char** argv) {
  std::fprintf(stderr,
               "%s: deprecated shim — forwarding to `powersched sweep "
               "--preset %s` (extra options forward too)\n",
               argc > 0 ? argv[0] : "bench-shim", preset);
  std::vector<std::string> args{"sweep", "--preset", preset};
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args);
}

}  // namespace ps::cli
