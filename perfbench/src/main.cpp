// perfbench — the end-to-end benchmark program. One process runs one
// workload from its seed, checks every output it produces, and prints a
// human-readable metric table followed by the one-line JSON result:
//
//   perfbench --workload paper_cold --seed 7 --seconds 20 --trace 0
//             --work-dir .bench_work/x --source-root .
//             --digests perfbench/paper_digests.txt
//
// `--record-digests` (with --work-dir) prints the paper_cold digest table of
// the current tree instead: how perfbench/paper_digests.txt was made.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "trial_log.hpp"
#include "util/stats.hpp"

namespace perfbench {

double now_s() { return static_cast<double>(ps::obs::now_ns()) * 1e-9; }

double process_cpu_s() {
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return ps::util::percentile_of_sorted(values, q);
}

void PassSamples::add(const std::string& op, double wall_ms, double cpu_s) {
  wall_ms_[op].push_back(wall_ms);
  cpu_s_[op].push_back(cpu_s);
}

void PassSamples::report(Outcome& out) const {
  std::vector<double> op_ms;
  double wall_s = 0.0, cpu_s = 0.0;
  for (const auto& [op, samples] : wall_ms_) {
    op_ms.push_back(percentile(samples, quantile_));
    wall_s += op_ms.back() * 1e-3;
    cpu_s += percentile(cpu_s_.at(op), quantile_);
  }
  out.add("wall_s", wall_s, "s");
  out.add("cpu_s", cpu_s, "s");
  out.add("p50_ms", percentile(op_ms, 0.50), "ms");
  out.add("p99_ms", percentile(op_ms, 0.99), "ms");
  out.add("max_rps", static_cast<double>(op_ms.size()) / wall_s, "1/s");
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> shuffled_order(std::size_t n, SeedRng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

Spans::Spans(bool active) : active_(active) {
  recorder_.set_active(active);
}

void Spans::add(const std::string& name, const std::string& layer,
                std::uint64_t start_ns, std::uint64_t end_ns) {
  if (active_) recorder_.add_complete(name, layer, start_ns, end_ns - start_ns);
}

bool Spans::write(const std::string& path) const {
  if (!active_) return true;
  const ps::Status status = recorder_.write(path);
  if (!status.ok()) std::fprintf(stderr, "perfbench: %s\n", status.message().c_str());
  return status.ok();
}

const std::vector<std::string>& paper_presets() {
  static const std::vector<std::string> names = {
      "e1", "e2",  "e3",  "e4",  "e5",  "e6",  "e7",  "e8",
      "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16"};
  return names;
}

std::vector<Metric> end_to_end_metrics() {
  return {{"wall_s", 0.0, "s"},       {"cpu_s", 0.0, "s"},
          {"peak_rss_mb", 0.0, "MB"}, {"setup_s", 0.0, "s"},
          {"ok_frac", 0.0, "ratio"},  {"p50_ms", 0.0, "ms"},
          {"p99_ms", 0.0, "ms"},      {"max_rps", 0.0, "1/s"}};
}

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> out = {{"engine.prepare_ms", 0.0, "ms"}};
  for (const std::string& preset : paper_presets()) {
    out.push_back({"engine.run_ms." + preset, 0.0, "ms"});
  }
  out.push_back({"engine.trials", 0.0, "count"});
  out.push_back({"engine.oracle_calls", 0.0, "count"});
  out.push_back({"engine.emit_ms", 0.0, "ms"});
  out.push_back({"engine.merge_ms", 0.0, "ms"});
  for (const std::string& family : trial_families()) {
    out.push_back({"trial." + family + ".count", 0.0, "count"});
    out.push_back({"trial." + family + ".busy_ms", 0.0, "ms"});
    out.push_back({"trial." + family + ".p50_us", 0.0, "us"});
    out.push_back({"trial." + family + ".p99_us", 0.0, "us"});
  }
  const std::vector<Metric> rest = {
      {"reference.misses", 0.0, "count"},
      {"reference.hits", 0.0, "count"},
      {"pool.compute_threads", 0.0, "count"},
      {"pool.busy_ms", 0.0, "ms"},
      {"pool.utilization", 0.0, "ratio"},
      {"pool.tail_idle_ms", 0.0, "ms"},
      {"serve.parse_us.p50", 0.0, "us"},
      {"serve.render_us.p50", 0.0, "us"},
      {"serve.solve_ms.p50", 0.0, "ms"},
      {"serve.solve_ms.p99", 0.0, "ms"},
      {"serve.wait_ms.p50", 0.0, "ms"},
      {"serve.wait_ms.p99", 0.0, "ms"},
      {"serve.overloaded", 0.0, "count"},
      {"serve.gen_late_ms.p99", 0.0, "ms"},
      {"dispatch.fingerprint_ms", 0.0, "ms"},
      {"dispatch.reused", 0.0, "count"},
      {"dispatch.launched", 0.0, "count"},
      {"cache_store.save_ms", 0.0, "ms"},
      {"cache_store.load_ms", 0.0, "ms"},
      {"cache_store.bytes", 0.0, "bytes"},
      {"report.render_ms", 0.0, "ms"},
      {"trace.overhead_pct", 0.0, "%"}};
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

}  // namespace perfbench

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_cold|serve_cold_mix|dispatch_warm --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --source-root DIR --digests FILE\n"
               "       perfbench --record-digests --work-dir DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-digests") {
      record = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--source-root") {
      options.source_root = value;
    } else if (flag == "--digests") {
      options.digests_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (record) {
    std::fputs(perfbench::record_digests(options).c_str(), stdout);
    return 0;
  }
  if (options.source_root.empty() || !(options.seconds > 0.0)) {
    return usage("--source-root and a positive --seconds are required");
  }

  perfbench::Outcome outcome;
  if (options.workload == "paper_cold") {
    outcome = perfbench::run_paper_cold(options);
  } else if (options.workload == "serve_cold_mix") {
    outcome = perfbench::run_serve_cold_mix(options);
  } else if (options.workload == "dispatch_warm") {
    outcome = perfbench::run_dispatch_warm(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  // Every workload prints the same metric set: all end-to-end metrics
  // untraced (a missing one is a benchmark bug and fails the run), all
  // per-layer metrics traced, with 0 for a layer the workload never calls.
  bool correct = outcome.attempted > 0 && outcome.failed == 0;
  std::vector<perfbench::Metric> metrics =
      options.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  for (perfbench::Metric& slot : metrics) {
    const auto found = std::find_if(
        outcome.metrics.begin(), outcome.metrics.end(),
        [&](const perfbench::Metric& metric) { return metric.name == slot.name; });
    if (found != outcome.metrics.end()) {
      slot.value = found->value;
    } else if (!options.trace) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n", slot.name.c_str());
      correct = false;
    }
  }
  outcome.metrics = std::move(metrics);
  // A non-finite metric is a benchmark bug: it prints as 0 and fails the run.
  for (const perfbench::Metric& metric : outcome.metrics) {
    correct = correct && std::isfinite(metric.value);
    std::printf("%-32s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& metric = outcome.metrics[i];
    json << (i > 0 ? ", " : "") << "\"" << metric.name << "\": {\"value\": "
         << (std::isfinite(metric.value) ? metric.value : 0.0)
         << ", \"unit\": \"" << metric.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
