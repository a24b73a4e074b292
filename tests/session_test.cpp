// Tests for the Session / ResultSink front door: the Session-driven run
// reproduces the pre-redesign engine emission byte-for-byte (CSV, tables,
// SVG reports — the golden comparison the API redesign is held to), sinks
// compose, sharded sessions merge back bit-identically, and every
// malformed request or failing sink surfaces as a typed ps::Status with
// the documented usage/runtime split.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/bench_presets.hpp"
#include "engine/cache_store.hpp"
#include "engine/registry.hpp"
#include "engine/result_sink.hpp"
#include "engine/session.hpp"
#include "engine/solve_service.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/csv_table.hpp"
#include "report/report_builder.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace ps::engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "session_test_" + name;
}

RunConfig e15_config(int trials) {
  RunConfig config;
  config.preset = "e15";
  config.trials = trials;
  config.use_cache = false;  // exercise real computation, not the cache
  return config;
}

// The golden comparison: a Session with a TableSink + CsvSink emits the
// byte-identical tables and CSV the pre-redesign engine path (SweepRunner
// + results_table + write_results_csv, wired by hand) produced.
TEST(Session, MatchesLegacyEnginePathByteForByte) {
  const BenchPreset* preset = find_bench_preset("e15");
  ASSERT_NE(preset, nullptr);

  // Legacy path, exactly as the pre-redesign preset runner emitted it.
  const SolverRegistry registry = SolverRegistry::with_builtins();
  SweepOptions sweep_options;
  sweep_options.num_threads = preset->default_threads;
  const SweepRunner runner(sweep_options);
  std::string legacy_tables;
  std::vector<ScenarioResult> all;
  bool first = true;
  for (const auto& preset_sweep : preset->sweeps) {
    SweepPlan plan = preset_sweep.plan;
    plan.trials = 1;
    auto results = runner.run(registry, plan.expand());
    legacy_tables += results_table(results,
                                   (first ? std::string() : std::string("\n")) +
                                       preset_sweep.caption,
                                   preset->timing)
                         .to_string();
    all.insert(all.end(), results.begin(), results.end());
    first = false;
  }
  legacy_tables += "\nPASS criterion: " + preset->pass_criterion + "\n";
  const std::string legacy_csv = temp_path("legacy.csv");
  ASSERT_TRUE(write_results_csv(all, legacy_csv, preset->timing));

  // Session path.
  std::ostringstream session_tables;
  const std::string session_csv = temp_path("session.csv");
  Session session(e15_config(/*trials=*/1));
  session.add_sink(std::make_unique<TableSink>(session_tables));
  session.add_sink(std::make_unique<CsvSink>(session_csv));
  const Status status = session.run();
  ASSERT_TRUE(status.ok()) << status.message();

  EXPECT_EQ(session_tables.str(), legacy_tables);
  EXPECT_EQ(read_file(session_csv), read_file(legacy_csv));
  EXPECT_GT(read_file(session_csv).size(), 0u);
  std::remove(legacy_csv.c_str());
  std::remove(session_csv.c_str());
}

// In-memory CSV rendering is byte-identical to the file the CsvSink
// writes — the contract the SvgReportSink's no-file-round-trip path
// leans on.
TEST(Session, ResultsCsvTextMatchesWrittenFile) {
  const BenchPreset* preset = find_bench_preset("e15");
  ASSERT_NE(preset, nullptr);
  const SolverRegistry registry = SolverRegistry::with_builtins();
  SweepPlan plan = preset->sweeps[0].plan;
  plan.trials = 1;
  const auto results = SweepRunner().run(registry, plan.expand());
  const std::string path = temp_path("text.csv");
  ASSERT_TRUE(write_results_csv(results, path));
  EXPECT_EQ(results_csv_text(results), read_file(path));
  std::remove(path.c_str());
}

// Three sharded Sessions persisting cache files, merged by a fourth
// Session, reproduce the unsharded Session's CSV and figure report
// byte-for-byte (the PR 3/PR 4 acceptance bar, now through the API).
TEST(Session, ShardMergeAndReportByteIdentical) {
  const std::string dir = temp_path("shard/");
  ASSERT_TRUE(ensure_directory(dir).ok());

  // Unsharded reference.
  const std::string reference_csv = dir + "reference.csv";
  {
    Session session(e15_config(/*trials=*/2));
    session.add_sink(std::make_unique<CsvSink>(reference_csv));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }

  // Three shard legs, each persisting its scenario cache.
  std::vector<std::string> cache_files;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    RunConfig config = e15_config(/*trials=*/2);
    config.shard_index = shard;
    config.shard_count = 3;
    config.cache_file = dir + "s" + std::to_string(shard) + ".cache";
    cache_files.push_back(config.cache_file);
    Session session(std::move(config));
    session.add_sink(std::make_unique<CacheFileSink>());
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }

  // Merge session: CSV and figure report from the cache files alone.
  const std::string merged_csv = dir + "merged.csv";
  const std::string merged_reports = dir + "reports-merged";
  {
    RunConfig config = e15_config(/*trials=*/2);
    config.merge_files = cache_files;
    Session session(std::move(config));
    session.add_sink(std::make_unique<CsvSink>(merged_csv));
    session.add_sink(std::make_unique<SvgReportSink>(merged_reports));
    const Status status = session.run();
    ASSERT_TRUE(status.ok()) << status.message();
  }
  EXPECT_EQ(read_file(merged_csv), read_file(reference_csv));

  // The pre-redesign report path over the reference CSV file.
  const BenchPreset* preset = find_bench_preset("e15");
  ASSERT_NE(preset, nullptr);
  const std::string reference_reports = dir + "reports-reference";
  report::CsvTable table;
  ASSERT_TRUE(report::CsvTable::load(reference_csv, table));
  ASSERT_TRUE(report::build_preset_report(*preset, table, reference_reports));
  for (const char* name : {"/e15.md", "/e15-sweep1.svg"}) {
    const std::string merged_bytes = read_file(merged_reports + name);
    EXPECT_GT(merged_bytes.size(), 0u) << name;
    EXPECT_EQ(merged_bytes, read_file(reference_reports + name)) << name;
  }
}

// One run, every sink at once: tables, cache file, CSV, and figures all
// materialize from a single Session.
TEST(Session, SinksCompose) {
  const std::string dir = temp_path("compose/");
  ASSERT_TRUE(ensure_directory(dir).ok());
  std::ostringstream tables;
  RunConfig config = e15_config(/*trials=*/1);
  config.cache_file = dir + "compose.cache";
  Session session(std::move(config));
  session.add_sink(std::make_unique<TableSink>(tables));
  session.add_sink(std::make_unique<CacheFileSink>());
  session.add_sink(std::make_unique<CsvSink>(dir + "compose.csv"));
  session.add_sink(std::make_unique<SvgReportSink>(dir + "reports"));
  const Status status = session.run();
  ASSERT_TRUE(status.ok()) << status.message();

  EXPECT_NE(tables.str().find("PASS criterion:"), std::string::npos);
  EXPECT_GT(read_file(dir + "compose.csv").size(), 0u);
  EXPECT_GT(read_file(dir + "reports/e15.md").size(), 0u);
  ScenarioCache cache;
  EXPECT_TRUE(ScenarioCacheStore(dir + "compose.cache").load(cache));
  EXPECT_GT(cache.size(), 0u);
}

// The observability purity contract: a fully instrumented run (metrics
// switch on, trace recorder active, progress callback wired) produces
// byte-identical tables, CSV, and SVG reports to a plain run. Metrics only
// ever touch stderr and side files — never the primary outputs.
TEST(Session, MetricsDoNotPerturbOutputs) {
  const std::string dir = temp_path("obs/");
  ASSERT_TRUE(ensure_directory(dir).ok());

  const auto run_e15 = [&dir](const std::string& tag,
                              std::string& tables_out) {
    std::ostringstream tables;
    RunConfig config = e15_config(/*trials=*/2);
    config.progress = true;  // no TTY here; exercises the callback path
    Session session(std::move(config));
    session.add_sink(std::make_unique<TableSink>(tables));
    session.add_sink(std::make_unique<CsvSink>(dir + tag + ".csv"));
    session.add_sink(std::make_unique<SvgReportSink>(dir + "reports-" + tag));
    const Status status = session.run();
    tables_out = tables.str();
    return status;
  };

  std::string plain_tables;
  ASSERT_TRUE(run_e15("plain", plain_tables).ok());

  obs::set_enabled(true);
  obs::TraceRecorder::global().set_active(true);
  // An instrumented serve daemon answers requests while the instrumented
  // sweep runs: the daemon shares the process-global registry and caches,
  // and must be just as invisible to the primary outputs.
  serve::Server server({});
  ASSERT_TRUE(server.start().ok());
  const int client_fd = serve::connect_to("127.0.0.1", server.port());
  ASSERT_GE(client_fd, 0);
  {
    SolveRequest request;
    request.id = "purity";
    request.solver = "power.greedy";
    request.trials = 2;
    ASSERT_TRUE(serve::send_all(
        client_fd, serve::render_request_line(request) + "\n"));
  }
  std::string instrumented_tables;
  const Status status = run_e15("instrumented", instrumented_tables);
  serve::LineReader reader(client_fd);
  std::string response_line;
  EXPECT_TRUE(reader.read_line(response_line));
  ::close(client_fd);
  server.request_stop();
  server.wait();
  obs::TraceRecorder::global().set_active(false);
  obs::set_enabled(false);
  ASSERT_TRUE(status.ok()) << status.message();

  // The instrumentation did observe the run — the sweep and the daemon...
  EXPECT_GT(obs::Registry::global().counter("sweep.trials.run").value(), 0u);
  EXPECT_EQ(obs::Registry::global().counter("serve.requests.served").value(),
            1u);
  EXPECT_GT(obs::TraceRecorder::global().size(), 0u);
  obs::TraceRecorder::global().clear();
  obs::Registry::global().reset();

  // ...and the primary outputs do not know it happened.
  EXPECT_EQ(instrumented_tables, plain_tables);
  EXPECT_EQ(read_file(dir + "instrumented.csv"), read_file(dir + "plain.csv"));
  EXPECT_GT(read_file(dir + "plain.csv").size(), 0u);
  for (const char* name : {"/e15.md", "/e15-sweep1.svg"}) {
    const std::string plain_bytes = read_file(dir + "reports-plain" + name);
    EXPECT_GT(plain_bytes.size(), 0u) << name;
    EXPECT_EQ(read_file(dir + "reports-instrumented" + name), plain_bytes)
        << name;
  }
}

// Missing parent directories of every sink path are created up front; the
// satellite bugfix that tools used to each hand-roll (or forget).
TEST(Session, CreatesMissingParentDirectories) {
  const std::string dir = temp_path("mkdirs/");
  RunConfig config = e15_config(/*trials=*/1);
  config.cache_file = dir + "a/b/out.cache";
  Session session(std::move(config));
  session.add_sink(std::make_unique<CacheFileSink>());
  session.add_sink(std::make_unique<CsvSink>(dir + "c/d/out.csv"));
  const Status status = session.run();
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_GT(read_file(dir + "a/b/out.cache").size(), 0u);
  EXPECT_GT(read_file(dir + "c/d/out.csv").size(), 0u);
}

TEST(SessionStatus, UnknownPresetIsUsage) {
  RunConfig config;
  config.preset = "e99";
  Session session(std::move(config));
  const Status status = session.run();
  EXPECT_EQ(status.code(), Status::Code::kUsage);
  EXPECT_EQ(status.exit_code(), 2);
  EXPECT_NE(status.message().find("unknown preset 'e99'"),
            std::string::npos);
}

TEST(SessionStatus, BadShardIsUsage) {
  RunConfig config = e15_config(/*trials=*/1);
  config.shard_index = 3;
  config.shard_count = 3;
  EXPECT_EQ(Session(std::move(config)).run().code(), Status::Code::kUsage);

  RunConfig zero = e15_config(/*trials=*/1);
  zero.shard_count = 0;
  EXPECT_EQ(Session(std::move(zero)).run().code(), Status::Code::kUsage);
}

TEST(SessionStatus, MergeCannotBeSharded) {
  RunConfig config = e15_config(/*trials=*/1);
  config.merge_files = {"whatever.cache"};
  config.shard_count = 2;
  config.shard_index = 0;
  EXPECT_EQ(Session(std::move(config)).run().code(), Status::Code::kUsage);
}

TEST(SessionStatus, AdHocValidation) {
  {  // unknown solver
    RunConfig config;
    config.plan.solvers = {"nosuch.solver"};
    EXPECT_EQ(Session(std::move(config)).run().code(), Status::Code::kUsage);
  }
  {  // empty plan
    RunConfig config;
    EXPECT_EQ(Session(std::move(config)).run().code(), Status::Code::kUsage);
  }
  {  // algo param naming nothing in the plan: the old silent fallthrough
    RunConfig config;
    config.plan.solvers = {"powerdown.break_even"};
    config.plan.algo_params = {"bogus"};
    const Status status = Session(std::move(config)).run();
    EXPECT_EQ(status.code(), Status::Code::kUsage);
    EXPECT_NE(status.message().find("bogus"), std::string::npos);
  }
  {  // non-positive trials
    RunConfig config;
    config.plan.solvers = {"powerdown.break_even"};
    config.plan.trials = 0;
    EXPECT_EQ(Session(std::move(config)).run().code(), Status::Code::kUsage);
  }
}

TEST(SessionStatus, MissingMergeInputIsRuntime) {
  RunConfig config = e15_config(/*trials=*/1);
  config.merge_files = {temp_path("does_not_exist.cache")};
  const Status status = Session(std::move(config)).run();
  EXPECT_EQ(status.code(), Status::Code::kRuntime);
  EXPECT_EQ(status.exit_code(), 1);
}

TEST(SessionStatus, UnwritableSinkIsRuntime) {
  // A regular file where a parent directory would have to be: the sink's
  // prepare() fails loudly, naming the path, before any trial runs.
  const std::string blocker = temp_path("blocker.txt");
  std::ofstream(blocker) << "in the way";
  RunConfig config = e15_config(/*trials=*/1);
  Session session(std::move(config));
  session.add_sink(std::make_unique<CsvSink>(blocker + "/out.csv"));
  const Status status = session.run();
  EXPECT_EQ(status.code(), Status::Code::kRuntime);
  EXPECT_NE(status.message().find(blocker), std::string::npos);
  std::remove(blocker.c_str());
}

TEST(SessionStatus, ReportSinkNeedsPreset) {
  RunConfig config;
  config.plan.solvers = {"powerdown.break_even"};
  config.plan.trials = 1;
  Session session(std::move(config));
  session.add_sink(std::make_unique<SvgReportSink>(temp_path("no_reports")));
  EXPECT_EQ(session.run().code(), Status::Code::kUsage);
}

TEST(SessionStatus, CacheFileSinkNeedsConfiguredCacheFile) {
  Session session(e15_config(/*trials=*/1));
  session.add_sink(std::make_unique<CacheFileSink>());
  EXPECT_EQ(session.run().code(), Status::Code::kUsage);
}

}  // namespace
}  // namespace ps::engine
