#include "engine/perf_baseline.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "engine/bench_presets.hpp"
#include "engine/registry.hpp"
#include "engine/scenario.hpp"
#include "obs/json.hpp"
#include "obs/time.hpp"

namespace ps::engine {

const char BenchReport::kSchema[] = "powersched-bench v1";

const std::vector<std::string>& default_bench_presets() {
  static const std::vector<std::string> presets = {"p_micro", "p_greedy",
                                                   "a1", "a2", "a3", "a4"};
  return presets;
}

namespace {

/// Median ns per trial over `reps` timed repetitions of a `trials`-long
/// serial inner loop, after `warmup` discarded repetitions. The inner loop
/// replays the exact per-trial seed derivation the sweep engine uses, so
/// the kernel measured here is the kernel a sweep runs.
double median_ns_per_op(const Solver& solver, const ScenarioSpec& spec,
                        int trials, int reps, int warmup) {
  std::vector<double> rep_ns;
  rep_ns.reserve(static_cast<std::size_t>(reps));
  const TrialSeeds seeds = spec.trial_seeds();
  for (int rep = -warmup; rep < reps; ++rep) {
    const std::uint64_t start = obs::now_ns();
    for (int t = 0; t < trials; ++t) {
      util::Rng instance_rng(seeds.instance(t));
      util::Rng algo_rng(seeds.algo(t));
      (void)solver.run_trial(spec.params, instance_rng, algo_rng);
    }
    const std::uint64_t elapsed = obs::now_ns() - start;
    if (rep >= 0) {
      rep_ns.push_back(static_cast<double>(elapsed) /
                       static_cast<double>(trials));
    }
  }
  std::sort(rep_ns.begin(), rep_ns.end());
  const std::size_t n = rep_ns.size();
  return n % 2 == 1 ? rep_ns[n / 2]
                    : (rep_ns[n / 2 - 1] + rep_ns[n / 2]) / 2.0;
}

std::string entry_key(const BenchEntry& entry) {
  return entry.preset + "/" + entry.kernel + "{" + entry.params + "}";
}

}  // namespace

ps::Status run_bench(const BenchOptions& options, BenchReport& out) {
  if (options.trials <= 0 || options.reps <= 0 || options.warmup < 0) {
    return ps::Status::usage(
        "bench needs --trials > 0, --reps > 0, --warmup >= 0");
  }
  const std::vector<std::string>& preset_names =
      options.presets.empty() ? default_bench_presets() : options.presets;

  out = BenchReport{};
  out.revision = options.revision;
  out.warmup = options.warmup;
  out.hardware_concurrency = std::thread::hardware_concurrency();
#if defined(__unix__) || defined(__APPLE__)
  struct utsname uts;
  if (::uname(&uts) == 0) {
    out.host_os = std::string(uts.sysname) + " " + uts.release;
    out.host_machine = uts.machine;
  }
#endif

  const SolverRegistry registry = SolverRegistry::with_builtins();
  for (const auto& name : preset_names) {
    const BenchPreset* preset = find_bench_preset(name);
    if (preset == nullptr) {
      return ps::Status::usage("unknown preset '" + name +
                               "'\navailable presets: " +
                               preset_names_joined());
    }
    // One kernel per distinct solver per preset: the first scenario the
    // preset's expansion names it in. First-occurrence keeps the identity
    // stable as long as the preset's plan order is.
    std::set<std::string> seen;
    for (const auto& preset_sweep : preset->sweeps) {
      for (const auto& spec : preset_sweep.plan.expand()) {
        if (!seen.insert(spec.solver).second) continue;
        const Solver* solver = registry.find(spec.solver);
        if (solver == nullptr) {
          return ps::Status::runtime("preset '" + name +
                                     "' names unregistered solver '" +
                                     spec.solver + "'");
        }
        BenchEntry entry;
        entry.preset = name;
        entry.kernel = spec.solver;
        entry.params = spec.params.signature();
        entry.trials = options.trials;
        entry.reps = options.reps;
        entry.ns_per_op = median_ns_per_op(*solver, spec, options.trials,
                                           options.reps, options.warmup);
        entry.trials_per_sec =
            entry.ns_per_op > 0.0 ? 1e9 / entry.ns_per_op : 0.0;
        if (options.verbose) {
          std::fprintf(stderr, "bench: %-8s %-32s %12.0f ns/op\n",
                       entry.preset.c_str(), entry.kernel.c_str(),
                       entry.ns_per_op);
        }
        out.entries.push_back(std::move(entry));
      }
    }
  }
  return ps::Status();
}

std::string render_bench_json(const BenchReport& report) {
  std::string out = "{\n";
  out += "  \"schema\": \"" + obs::json_escape(BenchReport::kSchema) +
         "\",\n";
  out += "  \"revision\": \"" + obs::json_escape(report.revision) + "\",\n";
  out += "  \"host\": {\"os\": \"" + obs::json_escape(report.host_os) +
         "\", \"machine\": \"" + obs::json_escape(report.host_machine) +
         "\", \"hardware_concurrency\": " +
         std::to_string(report.hardware_concurrency) + "},\n";
  out += "  \"warmup\": " + std::to_string(report.warmup) + ",\n";
  out += "  \"entries\": [";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& entry = report.entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"preset\": \"" + obs::json_escape(entry.preset) +
           "\", \"kernel\": \"" + obs::json_escape(entry.kernel) +
           "\", \"params\": \"" + obs::json_escape(entry.params) +
           "\", \"trials\": " + std::to_string(entry.trials) +
           ", \"reps\": " + std::to_string(entry.reps) +
           ", \"ns_per_op\": " + format_param(entry.ns_per_op) +
           ", \"trials_per_sec\": " + format_param(entry.trials_per_sec) +
           "}";
  }
  out += report.entries.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

ps::Status write_bench_report(const BenchReport& report,
                              const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      return ps::Status::runtime("cannot create directory '" +
                                 parent.string() + "': " + ec.message());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return ps::Status::runtime("cannot open bench output file '" + path +
                               "'");
  }
  out << render_bench_json(report);
  out.flush();
  if (!out) {
    return ps::Status::runtime("write to bench output file '" + path +
                               "' failed");
  }
  return ps::Status();
}

ps::Status load_bench_report(const std::string& path, BenchReport& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return ps::Status::runtime("cannot open bench file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::Json root;
  std::string error;
  if (!obs::Json::parse(buffer.str(), root, &error)) {
    return ps::Status::runtime("bench file '" + path + "': " + error);
  }
  const obs::Json* schema = root.find("schema");
  if (schema == nullptr || schema->string_or("") != BenchReport::kSchema) {
    return ps::Status::runtime(
        "bench file '" + path + "': not a " +
        std::string(BenchReport::kSchema) + " document (schema is '" +
        (schema != nullptr ? schema->string_or("") : "") + "')");
  }
  out = BenchReport{};
  if (const obs::Json* revision = root.find("revision")) {
    out.revision = revision->string_or("");
  }
  if (const obs::Json* host = root.find("host")) {
    if (const obs::Json* os = host->find("os")) out.host_os = os->string_or("");
    if (const obs::Json* machine = host->find("machine")) {
      out.host_machine = machine->string_or("");
    }
    if (const obs::Json* hc = host->find("hardware_concurrency")) {
      out.hardware_concurrency = static_cast<unsigned>(hc->number_or(0.0));
    }
  }
  if (const obs::Json* warmup = root.find("warmup")) {
    out.warmup = static_cast<int>(warmup->number_or(0.0));
  }
  const obs::Json* entries = root.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return ps::Status::runtime("bench file '" + path +
                               "': missing \"entries\" array");
  }
  for (const obs::Json& item : entries->array_items) {
    BenchEntry entry;
    if (const obs::Json* v = item.find("preset")) {
      entry.preset = v->string_or("");
    }
    if (const obs::Json* v = item.find("kernel")) {
      entry.kernel = v->string_or("");
    }
    if (const obs::Json* v = item.find("params")) {
      entry.params = v->string_or("");
    }
    if (const obs::Json* v = item.find("trials")) {
      entry.trials = static_cast<int>(v->number_or(0.0));
    }
    if (const obs::Json* v = item.find("reps")) {
      entry.reps = static_cast<int>(v->number_or(0.0));
    }
    if (const obs::Json* v = item.find("ns_per_op")) {
      entry.ns_per_op = v->number_or(0.0);
    }
    if (const obs::Json* v = item.find("trials_per_sec")) {
      entry.trials_per_sec = v->number_or(0.0);
    }
    if (entry.kernel.empty() || entry.ns_per_op <= 0.0) {
      return ps::Status::runtime(
          "bench file '" + path +
          "': entry without a kernel name or a positive ns_per_op");
    }
    out.entries.push_back(std::move(entry));
  }
  return ps::Status();
}

BenchComparison compare_bench_reports(const BenchReport& old_report,
                                      const BenchReport& new_report,
                                      double threshold) {
  BenchComparison result;
  char line[256];
  std::snprintf(line, sizeof(line),
                "bench compare: old=%s new=%s threshold=%.2fx\n",
                old_report.revision.c_str(), new_report.revision.c_str(),
                threshold);
  result.text = line;
  std::snprintf(line, sizeof(line), "  %-8s %-32s %12s %12s %8s\n", "preset",
                "kernel", "old ns/op", "new ns/op", "ratio");
  result.text += line;

  std::set<std::string> matched_keys;
  for (const auto& old_entry : old_report.entries) {
    const BenchEntry* new_entry = nullptr;
    for (const auto& candidate : new_report.entries) {
      if (candidate.preset == old_entry.preset &&
          candidate.kernel == old_entry.kernel &&
          candidate.params == old_entry.params) {
        new_entry = &candidate;
        break;
      }
    }
    if (new_entry == nullptr) {
      std::snprintf(line, sizeof(line), "  %-8s %-32s %12.0f %12s %8s\n",
                    old_entry.preset.c_str(), old_entry.kernel.c_str(),
                    old_entry.ns_per_op, "-", "gone");
      result.text += line;
      continue;
    }
    matched_keys.insert(entry_key(old_entry));
    ++result.matched;
    const double ratio = old_entry.ns_per_op > 0.0
                             ? new_entry->ns_per_op / old_entry.ns_per_op
                             : 0.0;
    const bool regression = ratio > threshold;
    if (regression) ++result.regressions;
    std::snprintf(line, sizeof(line), "  %-8s %-32s %12.0f %12.0f %7.2fx%s\n",
                  old_entry.preset.c_str(), old_entry.kernel.c_str(),
                  old_entry.ns_per_op, new_entry->ns_per_op, ratio,
                  regression ? "  REGRESSION" : "");
    result.text += line;
  }
  for (const auto& new_entry : new_report.entries) {
    if (matched_keys.count(entry_key(new_entry)) > 0) continue;
    bool in_old = false;
    for (const auto& old_entry : old_report.entries) {
      if (old_entry.preset == new_entry.preset &&
          old_entry.kernel == new_entry.kernel &&
          old_entry.params == new_entry.params) {
        in_old = true;
        break;
      }
    }
    if (in_old) continue;
    std::snprintf(line, sizeof(line), "  %-8s %-32s %12s %12.0f %8s\n",
                  new_entry.preset.c_str(), new_entry.kernel.c_str(), "-",
                  new_entry.ns_per_op, "new");
    result.text += line;
  }
  std::snprintf(line, sizeof(line),
                "  %zu kernel(s) compared, %zu regression(s) past %.2fx\n",
                result.matched, result.regressions, threshold);
  result.text += line;
  return result;
}

}  // namespace ps::engine
