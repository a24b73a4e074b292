// On-disk persistence for the scenario cache: serializes completed
// ScenarioResults — spec and full streaming-accumulator state — to a
// versioned line-oriented text file, so a sweep's work survives the process
// and shards computed in separate processes (or on separate machines) can
// be merged back into one plan.
//
// Every number goes through util/number_codec.hpp: doubles are written as
// %.17g (std::to_chars), which is exact for IEEE-754 binary64, and read back
// with std::from_chars, so a result loaded from disk reproduces the original
// aggregates bit-for-bit and a merged multi-shard run emits the same CSV
// bytes a single-process run would have. Files start with a version header
// and loading is loud and fails closed on any version or schema mismatch —
// a half-understood cache must never silently feed a results table. That
// includes numbers no save writes: a token must be a whole unsigned decimal
// count or a whole decimal double, so a sign on a count, a leading '+',
// hex, trailing characters, or a decimal that rounds to zero or infinity
// fail the load with the file and line named. Saves write to a temp file in the same directory and
// rename into place, so concurrent writers cannot interleave and readers
// never observe a torn file.
//
// v2 (the only format read or written) carries optional retained samples:
// the aggregate line ends in a 0/1 samples flag, and flagged entries carry
// one `samples <name> <count> <v...>` block per sample-bearing core
// accumulator (objective/ratio/cost/oracle_calls — never wall_ms) plus one
// `metric_samples <name> <count> <v...>` block per metric, each listing the
// retained per-trial readings in ascending (stable-sorted) order. Older
// headers fail the load with a "regenerate the cache file" error. A block may
// retain fewer readings than the accumulator counted (a `--tails-cap`
// reservoir keeps a bounded subset); sample blocks retaining MORE than the
// accumulator counted, truncated blocks, or malformed values fail the load
// like any other schema error.
#pragma once

#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace ps::engine {

/// The exact first line of every cache file this build reads and writes
/// (v2). Bump the version when the entry schema changes incompatibly; any
/// other version is rejected with a message naming both versions.
extern const char kScenarioCacheFormatHeader[];

/// Load/save/merge of ScenarioCache contents for one file path.
class ScenarioCacheStore {
 public:
  explicit ScenarioCacheStore(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Reads the file into `cache` (keys already present are kept, not
  /// replaced; the hit/miss counters are untouched). A missing file is
  /// success with zero entries — the natural first run. A present but
  /// unreadable, wrong-version, or malformed file prints a diagnostic with
  /// the path and returns false.
  bool load(ScenarioCache& cache) const;

  /// Serializes every cache entry, sorted by key, via write-to-temp +
  /// rename. Returns false (with a diagnostic) when the file cannot be
  /// written; the target is never left half-written.
  bool save(const ScenarioCache& cache) const;

  /// Loads every file in `paths` into `cache` — the shard-merge primitive.
  /// All files must load cleanly; stops at and reports the first failure.
  /// Unlike load(), a missing file here is an error: a merge set naming an
  /// absent shard would silently under-merge.
  static bool merge_into(const std::vector<std::string>& paths,
                         ScenarioCache& cache);

 private:
  std::string path_;
};

/// Shared --cache-file/--merge plumbing of ps::engine::Session (the one
/// place cache wiring lives since the API redesign): when either argument
/// is non-empty, points `sweep_options` at `cache` (enabling caching into
/// the file-scoped cache rather than the process-wide one), merges
/// `merge_files` into it, then loads `cache_file` if one is named. No-op
/// when both are empty. Returns false — the loaders have already printed
/// the diagnostic — when any file fails to load.
bool setup_file_cache(const std::string& cache_file,
                      const std::vector<std::string>& merge_files,
                      ScenarioCache& cache, SweepOptions& sweep_options);

}  // namespace ps::engine
