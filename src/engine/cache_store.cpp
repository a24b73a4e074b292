#include "engine/cache_store.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/time.hpp"
#include "util/number_codec.hpp"

namespace ps::engine {

const char kScenarioCacheFormatHeader[] = "powersched-scenario-cache v2";

namespace {

/// Names embedded in the line format (solver, parameter, metric names) must
/// be single whitespace-free tokens. Every name in the library is; this
/// guards the format against a future one that is not.
bool plain_token(const std::string& name) {
  if (name.empty()) return false;
  for (char ch : name) {
    if (std::isspace(static_cast<unsigned char>(ch))) return false;
  }
  return true;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

bool load_error(const std::string& path, std::size_t line_no,
                const std::string& detail) {
  std::fprintf(stderr, "cache load: %s:%zu: %s\n", path.c_str(), line_no,
               detail.c_str());
  return false;
}

/// Splits one line into whitespace-separated tokens in place, with the
/// separators `istream >>` uses.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  /// The next token, or an empty view when the line has none left.
  std::string_view next() {
    std::size_t i = 0;
    while (i < rest_.size() && is_space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_space(rest_[j])) ++j;
    const std::string_view token = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return token;
  }

  /// Reads the next token into `out`; false when the line has none left.
  bool next(std::string& out) {
    const std::string_view token = next();
    out.assign(token);
    return !token.empty();
  }

 private:
  static bool is_space(char ch) {
    return std::isspace(static_cast<unsigned char>(ch)) != 0;
  }

  std::string_view rest_;
};

/// Parses the next token as a double that uses the whole token (see
/// util::parse_double). A loaded accumulator state is therefore
/// bit-identical to the saved one; decimals no save writes (a leading '+',
/// hex, values that round to zero or infinity) fail the line.
bool parse_double(Fields& fields, double& out) {
  return util::parse_double(fields.next(), out);
}

/// Parses the next token as an unsigned decimal count that uses the whole
/// token; a sign, a hex prefix or trailing characters fail the line.
bool parse_size(Fields& fields, std::size_t& out) {
  std::uint64_t value = 0;
  if (!util::parse_count(fields.next(), value)) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse_accumulator_state(Fields& fields,
                             util::Accumulator::State& state) {
  return parse_size(fields, state.count) && parse_double(fields, state.mean) &&
         parse_double(fields, state.m2) && parse_double(fields, state.min) &&
         parse_double(fields, state.max) && parse_double(fields, state.sum);
}

/// Appends each of `parts` to `out`.
void append(std::string& out, std::initializer_list<std::string_view> parts) {
  for (const std::string_view part : parts) out += part;
}

/// One `acc` / `metric` line: keyword, name, then the streaming state.
void append_state_line(std::string& out, std::string_view keyword,
                       std::string_view name, const util::Accumulator& acc) {
  const util::Accumulator::State state = acc.state();
  append(out, {keyword, " ", name, " ", std::to_string(state.count)});
  for (double v : {state.mean, state.m2, state.min, state.max, state.sum}) {
    out += ' ';
    util::append_param(out, v);
  }
  out += '\n';
}

/// Reads the whole file at `path` into `text`; false when it cannot be
/// opened.
bool read_file(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  text.resize(file_size(path));
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return true;
}

/// Splits the next line off `rest`, as std::getline does: false at the end.
bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t eol = rest.find('\n');
  line = rest.substr(0, eol);
  rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
  return true;
}

/// The five core accumulators, in fixed file order.
constexpr const char* kCoreAccumulators[] = {"objective", "ratio", "cost",
                                             "oracle_calls", "wall_ms"};

/// The core accumulators that retain samples under `--tails` — wall_ms never
/// does (it is the one non-deterministic reading, and persisting it would
/// break byte-identical shard merges).
constexpr const char* kSampledAccumulators[] = {"objective", "ratio", "cost",
                                                "oracle_calls"};

/// One `samples` / `metric_samples` line: keyword, name, count, then the
/// retained readings in ascending order (sorted_samples() — the canonical
/// deterministic order, so the emitted bytes never depend on whether a
/// percentile was computed before the save).
void append_samples_line(std::string& out, std::string_view keyword,
                         std::string_view name, const util::Accumulator& acc) {
  const std::vector<double>& sorted = acc.sorted_samples();
  append(out, {keyword, " ", name, " ", std::to_string(sorted.size())});
  for (double v : sorted) {
    out += ' ';
    util::append_param(out, v);
  }
  out += '\n';
}

/// Whether every sample-bearing accumulator of `result` retained its
/// samples — the condition for writing the entry's sample blocks. Mixed
/// retention (which no aggregation path produces) degrades to a
/// streaming-only entry rather than a half-sampled one.
bool all_samples_kept(const ScenarioResult& result) {
  bool keep = result.objective.samples_kept() && result.ratio.samples_kept() &&
              result.cost.samples_kept() &&
              result.oracle_calls.samples_kept();
  for (const auto& [name, acc] : result.metrics) {
    keep = keep && acc.samples_kept();
  }
  return keep;
}

util::Accumulator* core_accumulator(ScenarioResult& result,
                                    const std::string& name) {
  if (name == "objective") return &result.objective;
  if (name == "ratio") return &result.ratio;
  if (name == "cost") return &result.cost;
  if (name == "oracle_calls") return &result.oracle_calls;
  if (name == "wall_ms") return &result.wall_ms;
  return nullptr;
}

}  // namespace

bool ScenarioCacheStore::load(ScenarioCache& cache) const {
  if (!file_exists(path_)) return true;  // nothing persisted yet
  const obs::StopWatch watch;
  std::size_t entries_loaded = 0;
  std::string text;
  if (!read_file(path_, text)) {
    std::fprintf(stderr, "cache load: cannot open '%s'\n", path_.c_str());
    return false;
  }

  std::string_view rest(text);
  std::string_view line;
  std::size_t line_no = 1;
  if (!next_line(rest, line)) {
    return load_error(path_, line_no, "not a powersched scenario cache file");
  }
  if (line != kScenarioCacheFormatHeader) {
    if (line.starts_with("powersched-scenario-cache")) {
      return load_error(path_, line_no,
                        "version mismatch: file is '" + std::string(line) +
                            "', this build reads '" +
                            kScenarioCacheFormatHeader +
                            "' — regenerate the cache file");
    }
    return load_error(path_, line_no, "not a powersched scenario cache file");
  }

  bool in_entry = false;
  ScenarioSpec spec;
  ScenarioResult result;
  std::size_t core_seen = 0;
  bool aggregate_seen = false;
  // v2 sample blocks, buffered until 'end' so counts can be checked against
  // the accumulator states regardless of line order within the entry.
  int samples_flag = 0;
  std::map<std::string, std::vector<double>> core_samples;
  std::map<std::string, std::vector<double>> metric_samples;
  while (next_line(rest, line)) {
    ++line_no;
    if (line.empty()) continue;
    Fields fields(line);
    const std::string keyword(fields.next());

    if (!in_entry) {
      if (keyword != "scenario") {
        return load_error(path_, line_no,
                          "expected 'scenario', got '" + keyword + "'");
      }
      spec = ScenarioSpec{};
      result = ScenarioResult{};
      core_seen = 0;
      aggregate_seen = false;
      samples_flag = 0;
      core_samples.clear();
      metric_samples.clear();
      if (!fields.next(spec.solver)) {
        return load_error(path_, line_no, "scenario line missing solver name");
      }
      in_entry = true;
      continue;
    }

    if (keyword == "trials") {
      std::size_t trials = 0;
      if (!parse_size(fields, trials) ||
          trials > static_cast<std::size_t>(INT_MAX)) {
        return load_error(path_, line_no, "bad trials line");
      }
      spec.trials = static_cast<int>(trials);
    } else if (keyword == "seed") {
      std::size_t seed = 0;
      if (!parse_size(fields, seed)) {
        return load_error(path_, line_no, "bad seed line");
      }
      spec.seed = seed;
    } else if (keyword == "param") {
      std::string name;
      double value = 0.0;
      if (!fields.next(name) || !parse_double(fields, value)) {
        return load_error(path_, line_no, "bad param line");
      }
      spec.params.set(name, value);
    } else if (keyword == "algo_param") {
      std::string name;
      if (!fields.next(name)) {
        return load_error(path_, line_no, "bad algo_param line");
      }
      spec.algo_params.push_back(name);
    } else if (keyword == "aggregate") {
      if (!parse_size(fields, result.trials_run) ||
          !parse_size(fields, result.infeasible)) {
        return load_error(path_, line_no, "bad aggregate line");
      }
      // The 0/1 samples flag is a required third field — a v2 header over
      // a body without it fails here rather than loading half-understood.
      std::size_t flag = 0;
      if (!parse_size(fields, flag) || flag > 1 || !fields.next().empty()) {
        return load_error(path_, line_no,
                          "bad aggregate line: v2 requires "
                          "'aggregate <trials> <infeasible> <0|1>'");
      }
      samples_flag = static_cast<int>(flag);
      aggregate_seen = true;
    } else if (keyword == "samples" || keyword == "metric_samples") {
      if (samples_flag != 1) {
        return load_error(path_, line_no,
                          "'" + keyword +
                              "' block in an entry whose aggregate line did "
                              "not declare samples");
      }
      std::string name;
      std::size_t count = 0;
      if (!fields.next(name) || !parse_size(fields, count)) {
        return load_error(path_, line_no, "bad " + keyword + " line");
      }
      if (keyword == "samples") {
        bool sampled_core = false;
        for (const char* core_name : kSampledAccumulators) {
          sampled_core = sampled_core || name == core_name;
        }
        if (!sampled_core) {
          return load_error(path_, line_no,
                            "'samples " + name +
                                "' is not a sample-bearing core accumulator");
        }
      }
      // The declared count is untrusted input: parse values one at a time
      // (a short list fails before, not after, a giant allocation) and cap
      // the up-front reserve by what the line could physically hold.
      std::vector<double> values;
      values.reserve(std::min(count, line.size() / 2 + 1));
      for (std::size_t i = 0; i < count; ++i) {
        double value = 0.0;
        if (!parse_double(fields, value)) {
          return load_error(path_, line_no,
                            keyword + " '" + name + "': expected " +
                                std::to_string(count) +
                                " values, found a short or malformed list");
        }
        values.push_back(value);
      }
      if (!fields.next().empty()) {
        return load_error(path_, line_no,
                          keyword + " '" + name +
                              "': trailing tokens after the declared " +
                              std::to_string(count) + " values");
      }
      auto& dest = keyword == "samples" ? core_samples : metric_samples;
      if (!dest.emplace(name, std::move(values)).second) {
        return load_error(path_, line_no,
                          "duplicate " + keyword + " '" + name + "'");
      }
    } else if (keyword == "acc") {
      std::string name;
      util::Accumulator::State state;
      if (!fields.next(name) || !parse_accumulator_state(fields, state)) {
        return load_error(path_, line_no, "bad acc line");
      }
      util::Accumulator* acc = core_accumulator(result, name);
      if (acc == nullptr) {
        return load_error(path_, line_no, "unknown accumulator '" + name + "'");
      }
      *acc = util::Accumulator::from_state(state);
      ++core_seen;
    } else if (keyword == "metric") {
      std::string name;
      util::Accumulator::State state;
      if (!fields.next(name) || !parse_accumulator_state(fields, state)) {
        return load_error(path_, line_no, "bad metric line");
      }
      result.metrics.insert_or_assign(name,
                                      util::Accumulator::from_state(state));
    } else if (keyword == "end") {
      if (!aggregate_seen ||
          core_seen != std::size(kCoreAccumulators)) {
        return load_error(path_, line_no, "incomplete scenario entry");
      }
      if (samples_flag == 1) {
        // Rebuild every sample-bearing accumulator with its retained
        // samples, failing closed on any missing block or a retained count
        // exceeding the streaming state. Fewer retained than counted is
        // legal: a --tails-cap reservoir keeps a bounded subset.
        for (const char* name : kSampledAccumulators) {
          util::Accumulator* acc = core_accumulator(result, name);
          const auto it = core_samples.find(name);
          if (it == core_samples.end()) {
            return load_error(path_, line_no,
                              std::string("entry declares samples but has "
                                          "no 'samples ") +
                                  name + "' block");
          }
          if (it->second.size() > acc->count()) {
            return load_error(
                path_, line_no,
                std::string("samples ") + name + ": " +
                    std::to_string(it->second.size()) +
                    " value(s) but the accumulator counted " +
                    std::to_string(acc->count()));
          }
          *acc = util::Accumulator::from_state_and_samples(
              acc->state(), std::move(it->second));
        }
        for (auto& [name, values] : metric_samples) {
          const auto it = result.metrics.find(name);
          if (it == result.metrics.end()) {
            return load_error(path_, line_no,
                              "metric_samples '" + name +
                                  "' has no matching metric line");
          }
          if (values.size() > it->second.count()) {
            return load_error(path_, line_no,
                              "metric_samples " + name + ": " +
                                  std::to_string(values.size()) +
                                  " value(s) but the accumulator counted " +
                                  std::to_string(it->second.count()));
          }
          it->second = util::Accumulator::from_state_and_samples(
              it->second.state(), std::move(values));
        }
        for (const auto& [name, acc] : result.metrics) {
          if (!acc.samples_kept()) {
            return load_error(path_, line_no,
                              "entry declares samples but metric '" + name +
                                  "' has no metric_samples block");
          }
        }
      }
      result.spec = spec;
      // The key is recomputed from the loaded spec, so file content and
      // cache key can never disagree.
      cache.insert(scenario_cache_key(spec),
                   std::make_shared<ScenarioResult>(std::move(result)));
      ++entries_loaded;
      in_entry = false;
    } else {
      return load_error(path_, line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (in_entry) {
    return load_error(path_, line_no, "truncated file: entry missing 'end'");
  }
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("cache.store.load.files").add(1);
    registry.counter("cache.store.load.entries").add(entries_loaded);
    registry.counter("cache.store.load.bytes").add(text.size());
    registry.histogram("cache.store.load.ns").record(watch.ns());
  }
  return true;
}

bool ScenarioCacheStore::save(const ScenarioCache& cache) const {
  const obs::StopWatch watch;
  std::size_t entries_saved = 0;
  const std::string tmp_path =
      path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cache save: cannot open '%s' for writing\n",
                 tmp_path.c_str());
    return false;
  }

  out << kScenarioCacheFormatHeader << '\n';
  // One entry's text at a time: the buffer is reused, so a save holds at
  // most the largest entry beside the cache itself.
  std::string entry;
  for (const auto& [key, result] : cache.snapshot()) {
    const ScenarioSpec& spec = result->spec;
    bool names_ok = plain_token(spec.solver);
    for (const auto& [name, value] : spec.params.values()) {
      names_ok = names_ok && plain_token(name);
    }
    for (const auto& name : spec.algo_params) {
      names_ok = names_ok && plain_token(name);
    }
    for (const auto& [name, acc] : result->metrics) {
      names_ok = names_ok && plain_token(name);
    }
    if (!names_ok) {
      std::fprintf(stderr,
                   "cache save: scenario '%s' has a name the line format "
                   "cannot hold (empty or contains whitespace)\n",
                   key.c_str());
      out.close();
      std::remove(tmp_path.c_str());
      return false;
    }

    entry.clear();
    append(entry, {"scenario ", spec.solver, "\ntrials ",
                   std::to_string(spec.trials), "\nseed ",
                   std::to_string(spec.seed), "\n"});
    for (const auto& [name, value] : spec.params.values()) {
      append(entry, {"param ", name, " "});
      util::append_param(entry, value);
      entry += '\n';
    }
    for (const auto& name : spec.algo_params) {
      append(entry, {"algo_param ", name, "\n"});
    }
    const bool with_samples = all_samples_kept(*result);
    append(entry, {"aggregate ", std::to_string(result->trials_run), " ",
                   std::to_string(result->infeasible),
                   with_samples ? " 1\n" : " 0\n"});
    const util::Accumulator* const core[] = {
        &result->objective, &result->ratio, &result->cost,
        &result->oracle_calls, &result->wall_ms};
    for (std::size_t i = 0; i < std::size(kCoreAccumulators); ++i) {
      append_state_line(entry, "acc", kCoreAccumulators[i], *core[i]);
    }
    if (with_samples) {
      for (std::size_t i = 0; i < std::size(kSampledAccumulators); ++i) {
        append_samples_line(entry, "samples", kSampledAccumulators[i],
                            *core[i]);
      }
    }
    for (const auto& [name, acc] : result->metrics) {
      append_state_line(entry, "metric", name, acc);
    }
    if (with_samples) {
      for (const auto& [name, acc] : result->metrics) {
        append_samples_line(entry, "metric_samples", name, acc);
      }
    }
    entry += "end\n";
    out.write(entry.data(), static_cast<std::streamsize>(entry.size()));
    ++entries_saved;
  }

  out.flush();
  if (!out) {
    std::fprintf(stderr, "cache save: write to '%s' failed\n",
                 tmp_path.c_str());
    out.close();
    std::remove(tmp_path.c_str());
    return false;
  }
  out.close();
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::fprintf(stderr, "cache save: rename '%s' -> '%s' failed: %s\n",
                 tmp_path.c_str(), path_.c_str(), std::strerror(errno));
    std::remove(tmp_path.c_str());
    return false;
  }
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("cache.store.save.files").add(1);
    registry.counter("cache.store.save.entries").add(entries_saved);
    registry.counter("cache.store.save.bytes").add(file_size(path_));
    registry.histogram("cache.store.save.ns").record(watch.ns());
  }
  return true;
}

bool ScenarioCacheStore::merge_into(const std::vector<std::string>& paths,
                                    ScenarioCache& cache) {
  for (const auto& path : paths) {
    if (!file_exists(path)) {
      std::fprintf(stderr, "cache merge: cache file '%s' does not exist\n",
                   path.c_str());
      return false;
    }
    if (!ScenarioCacheStore(path).load(cache)) return false;
  }
  return true;
}

bool setup_file_cache(const std::string& cache_file,
                      const std::vector<std::string>& merge_files,
                      ScenarioCache& cache, SweepOptions& sweep_options) {
  if (cache_file.empty() && merge_files.empty()) return true;
  sweep_options.use_cache = true;
  sweep_options.cache = &cache;
  if (!merge_files.empty() &&
      !ScenarioCacheStore::merge_into(merge_files, cache)) {
    return false;
  }
  if (!cache_file.empty() && !ScenarioCacheStore(cache_file).load(cache)) {
    return false;
  }
  return true;
}

}  // namespace ps::engine
