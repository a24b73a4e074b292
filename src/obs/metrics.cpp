#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>

#include "obs/json.hpp"
#include "util/number_codec.hpp"

namespace ps::obs {
namespace {

std::atomic<bool> g_enabled{false};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// LatencyHistogram

const std::array<std::uint64_t, LatencyHistogram::kBuckets - 1>&
LatencyHistogram::bucket_bounds() {
  // 1-2-5 per decade, 1ns .. 1e12ns (~17min); values past the last bound
  // land in the overflow bucket and report as [1e12, max].
  static const std::array<std::uint64_t, kBuckets - 1> bounds = [] {
    std::array<std::uint64_t, kBuckets - 1> out{};
    std::size_t i = 0;
    std::uint64_t decade = 1;
    for (int d = 0; d < 12; ++d) {
      out[i++] = decade;
      out[i++] = 2 * decade;
      out[i++] = 5 * decade;
      decade *= 10;
    }
    out[i++] = decade;  // 1e12
    return out;
  }();
  return bounds;
}

void LatencyHistogram::record(std::uint64_t ns) {
  const auto& bounds = bucket_bounds();
  const std::size_t bucket = static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), ns) - bounds.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (ns < seen &&
         !min_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

std::uint64_t LatencyHistogram::min() const {
  const std::uint64_t value = min_.load(std::memory_order_relaxed);
  return value == UINT64_MAX ? 0 : value;
}

double LatencyHistogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double LatencyHistogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Fractional 0-based rank into the (conceptually sorted) sample sequence;
  // walk the buckets to the one containing it and interpolate by rank
  // position inside the bucket. Exact to within the bucket by construction.
  const double target = q * static_cast<double>(n - 1);
  const auto& bounds = bucket_bounds();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double in_bucket =
        static_cast<double>(counts_[i].load(std::memory_order_relaxed));
    if (in_bucket > 0.0 && cumulative + in_bucket > target) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double hi = i < bounds.size() ? static_cast<double>(bounds[i])
                                          : static_cast<double>(max());
      double fraction = (target - cumulative + 0.5) / in_bucket;
      fraction = std::min(1.0, std::max(0.0, fraction));
      double value = lo + (hi - lo) * fraction;
      value = std::max(value, static_cast<double>(min()));
      value = std::min(value, static_cast<double>(max()));
      return value;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max());
}

void LatencyHistogram::reset() {
  for (auto& bucket : counts_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Shard {
  mutable std::mutex mutex;
  // node-based maps: instrument addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms;
};

Registry::Registry() {
  for (auto& shard : shards_) shard = std::make_unique<Shard>();
}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: worker
  return *instance;  // threads may record during static teardown
}

Registry::Shard& Registry::shard_for(const std::string& name) {
  return *shards_[std::hash<std::string>{}(name) % kShards];
}

namespace {

/// Instrument names are a flat typed namespace; one name meaning a counter
/// here and a gauge there would render two conflicting rows. Loud abort —
/// this is a programming error, not an input error.
[[noreturn]] void kind_collision(const std::string& name, const char* kind) {
  std::fprintf(stderr,
               "obs: instrument '%s' already registered as a different kind "
               "(requested %s)\n",
               name.c_str(), kind);
  std::abort();
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.gauges.count(name) || shard.histograms.count(name)) {
    kind_collision(name, "counter");
  }
  auto& slot = shard.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.counters.count(name) || shard.histograms.count(name)) {
    kind_collision(name, "gauge");
  }
  auto& slot = shard.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Registry::histogram(const std::string& name) {
  Shard& shard = shard_for(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.counters.count(name) || shard.gauges.count(name)) {
    kind_collision(name, "histogram");
  }
  auto& slot = shard.histograms[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [name, counter] : shard->counters) {
      out.counters.push_back({name, counter->value()});
    }
    for (const auto& [name, gauge] : shard->gauges) {
      out.gauges.push_back({name, gauge->value()});
    }
    for (const auto& [name, histogram] : shard->histograms) {
      out.histograms.push_back({name, histogram->count(), histogram->sum(),
                                histogram->min(), histogram->max(),
                                histogram->percentile(0.50),
                                histogram->percentile(0.95),
                                histogram->percentile(0.99)});
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void Registry::reset() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [name, counter] : shard->counters) counter->reset();
    for (const auto& [name, gauge] : shard->gauges) gauge->reset();
    for (const auto& [name, histogram] : shard->histograms) {
      histogram->reset();
    }
  }
}

// ---------------------------------------------------------------------------
// Exporters

std::string render_metrics_text(const Registry::Snapshot& snapshot) {
  std::string out = "== powersched metrics ==\n";
  char line[256];
  for (const auto& row : snapshot.counters) {
    std::snprintf(line, sizeof(line), "counter %-40s %llu\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.value));
    out += line;
  }
  for (const auto& row : snapshot.gauges) {
    std::snprintf(line, sizeof(line), "gauge   %-40s %s\n", row.name.c_str(),
                  util::format_param(row.value).c_str());
    out += line;
  }
  for (const auto& row : snapshot.histograms) {
    std::snprintf(line, sizeof(line),
                  "hist    %-40s count=%llu p50=%.0fns p95=%.0fns "
                  "p99=%.0fns max=%lluns mean=%.0fns\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.count), row.p50_ns,
                  row.p95_ns, row.p99_ns,
                  static_cast<unsigned long long>(row.max_ns),
                  row.count == 0 ? 0.0
                                 : static_cast<double>(row.sum_ns) /
                                       static_cast<double>(row.count));
    out += line;
  }
  return out;
}

std::string render_metrics_json(const Registry::Snapshot& snapshot) {
  std::string out = "{\n  \"schema\": \"powersched-metrics v1\",\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& row = snapshot.counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(row.name) +
           "\": " + std::to_string(row.value);
  }
  out += snapshot.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& row = snapshot.gauges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(row.name) +
           "\": " + util::format_param(row.value);
  }
  out += snapshot.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& row = snapshot.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(row.name) + "\": {\"count\": " +
           std::to_string(row.count) +
           ", \"sum_ns\": " + std::to_string(row.sum_ns) +
           ", \"min_ns\": " + std::to_string(row.min_ns) +
           ", \"max_ns\": " + std::to_string(row.max_ns) +
           ", \"p50_ns\": " + util::format_param(row.p50_ns) +
           ", \"p95_ns\": " + util::format_param(row.p95_ns) +
           ", \"p99_ns\": " + util::format_param(row.p99_ns) + "}";
  }
  out += snapshot.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace ps::obs
