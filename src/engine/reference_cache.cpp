#include "engine/reference_cache.hpp"

#include <cstdint>
#include <future>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace ps::engine {
namespace {

struct Cache {
  std::mutex mutex;
  // A key's future becomes ready when its value is known; until then it is
  // the in-flight computation that later callers wait on.
  std::unordered_map<std::string, std::shared_future<double>> values;
  ReferenceCacheStats stats;
  // Bumped by clear_reference_cache, so a computation that outlives a clear
  // knows the entry under its key is no longer its own.
  std::uint64_t generation = 0;
};

Cache& cache() {
  static Cache instance;
  return instance;
}

}  // namespace

double cached_reference(const std::string& key,
                        const std::function<double()>& compute) {
  Cache& c = cache();
  std::promise<double> promise;
  std::shared_future<double> in_flight;
  std::uint64_t generation = 0;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    const auto [it, inserted] = c.values.try_emplace(key);
    if (inserted) {
      ++c.stats.misses;
      it->second = promise.get_future().share();
      generation = c.generation;
    } else {
      ++c.stats.hits;
      in_flight = it->second;
    }
  }
  if (in_flight.valid()) {
    if (obs::enabled()) {
      obs::Registry::global().counter("cache.reference.hits").add(1);
    }
    return in_flight.get();  // rethrows if the first caller's compute threw
  }
  if (obs::enabled()) {
    obs::Registry::global().counter("cache.reference.misses").add(1);
  }
  try {
    const double value = compute();
    promise.set_value(value);
    return value;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(c.mutex);
      if (c.generation == generation) c.values.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

ReferenceCacheStats reference_cache_stats() {
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return c.stats;
}

void clear_reference_cache() {
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.values.clear();
  c.stats = {};
  ++c.generation;
}

}  // namespace ps::engine
